"""Exact collision detection: the P- and f-injectivity scans and the Zagier
probe.

All three scans run one engine on every orbit of infinite order and on
the rationals, and each hands it the same three things about its items:
their residues mod the first two suitable primes p, q below 2**31,
`value(i)`, the exact value of item i, built only when asked, and
`label(i)`, its key in the report.  An item's key is its value's residue
modulo N = p*q, so every key fits a uint64 (N < 2**62).  Equal exact
values always produce equal keys at suitable primes, so no true collision
can be missed.  Orbit values grow quadratically in digit count and are
far too large to store exactly (measured: the |m| <= 2000 orbit would
need hours and gigabytes), while residues are constant-size.  Only items
whose key occurs more than once become candidates.  A run of equal keys
is a full two-prime fingerprint match, and every scan groups a
partition's candidates by exact value in `collision_scan`'s dict before
they may enter the report.

The P-scan finds its runs in two stages and never builds a key.  Equal
keys mod N are equal residues mod p and mod q, so it sorts a copy of the
residues mod p, keeps only the items whose residue repeats
(`_mod_p_candidates`), and then walks q keeping only those items'
residues (`_picked`); the runs of equal pairs (rp, rq) among them are the
runs of equal keys (`_p_classes`).  The pair scans build their items'
keys mod N by the CRT (`_fingerprints`), as their pair keys need them.

The orbit scans decide once, exactly, whether the generator G has finite
order.  A G of finite order d never enters the engine: its orbit holds
at most d*width exact points, so `_finite_orbit` groups its labels by
exact point and the scans index those few values exactly.  On a G of
infinite order two labels name one point only when the torsion list names
a point twice, so its duplicate groups come from the spec
(`_distinct_translates`), and only one translate of each point is walked.
G is reduced mod each prime in one block loop (`_walk`): each block of
multiples of G is a source block plus a stride, in one vectorised chord
addition with one batched inverse (`_inverse`), and only an entry that
doubles goes through the scalar group law.  The source and the stride
double up to WALK_BLOCK points, and then each block is the one before it
plus a fixed stride.  No point of its orbit is exactly the identity, so
any that reduces to the identity mod p makes the prime unsuitable, and
the first one met ends the prime.  The walk is streamed: each block's P
residues (`_residue_blocks`) go into one uint32 array, or only the
candidates' residues are kept.  The walk of q covers every point even
when no candidate is left, so its identities skip the same primes.  An
orbit's items (`_orbit_items`) are labelled by index arithmetic, and
value(i) builds item i's exact point, at most once.

The f-scan and `zagier_probe`, whose items are the rationals of bounded
height, share its pair form (`_pair_classes`) and its one exact formula,
`pairing.zagier_eval`.  The tests' exact oracle shares only
`collision_scan` with the product.

No scan takes a resource setting.  The P-scan holds 8 bytes per orbit
point at its peak: the uint32 residues mod p and their sorted copy, beside
a few walk blocks.  The copy is freed before the candidate pass, and the
residues mod p before the walk of q, which keeps about 32 bytes per
candidate; at primes near 2**31 the candidates are about one point in 170
at 2 * 10**7 points.  The f-scan holds 16 bytes per orbit point for its
keys (two primes' residues and the uint64 keys), and the pair scans about
100 bytes per item of sorted and searched row arrays.  The pair scans never
build all k*k keys: row i's keys in a key range are one slice of the
sorted right terms (`_PairKeys`), so one searchsorted per partition edge
counts the ranges on both sides of it, and each range is gathered from
its slices.  The partitions are equal key ranges expected to hold a
little under max(2**14, 16*k) keys at 24 bytes a key, so a pair scan
holds O(k) memory plus one small partition; a crowded key value, or
items whose keys cluster, can make a range hold more.  The search for
repeated sorted keys and the candidate pass run CHUNK_KEYS keys at a
time, so no mask covers the keys, and the candidate pass searches only
the keys that a small bool table over their top bits marks.  Reports are deterministic and do
not depend on the partitions: keys inside a class are in stream order,
and classes are sorted by value before emission.

numpy loads on first use: each function that needs it imports it, so
importing this module (and with it the CLI) costs no numpy start-up in the
commands that run no scan, nor in a scan of a finite orbit.
"""

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Iterable

from .curve import INFINITY, add, scalar_mul
from .injection import UniquenessFunction, validate_params
from .modular import CurveModP, UnsuitablePrimeError, fraction_mod, primes_descending
from .pairing import zagier_eval
from .points import OrbitSpec, rationals_by_height, torsion_cycle
from .rational import format_rational
from .reporting import envelope

logger = logging.getLogger(__name__)

# Keys per chunk of the search for repeated sorted keys, so it holds no
# mask over a whole partition, of the candidate pass and of the CRT of the
# orbit keys.
CHUNK_KEYS = 2**16
# The candidate pass's table over the keys' top bits (see _candidates)
# has this many bool entries a run.  Over the 2 * 10**6 residues mod p of
# check-p --M 1000000, whose 463 runs hold 1,146 candidates, searching every
# key took 0.14 s of a 0.27 s scan, and the table's hits 0.02 s (2-vCPU Xeon).
PREFILTER_ENTRIES_PER_RUN = 16

# Bytes per key of a pair partition at its largest, while it is gathered:
# the keys (8), the offsets 0, 1, 2, ... (8) and one int64 index or
# left-term array (8).  The keys and the offsets are two buffers that every
# partition reuses, grown only by a partition that outgrows them.
PAIR_BYTES_PER_KEY = 24
# A pair partition of k items targets max(PAIR_PARTITION_KEYS,
# PAIR_KEYS_PER_ITEM * k) keys, so the k searches of each of its edges cost
# about a sixteenth of its keys.
PAIR_PARTITION_KEYS = 2**14
PAIR_KEYS_PER_ITEM = 16

# Bounds up to which a scan's config reads "method": "exact"; see _scan_config.
EXACT_P_SCAN_BOUND = 300
EXACT_F_SCAN_BOUND = 60

# Both fingerprint primes lie below this, so N = p*q < 2**62.
PRIME_SEARCH_START = 2**31
# The orbit walk's blocks double up to this many points, then stay (see _walk).
WALK_BLOCK = 2**14


@dataclass
class CollisionClass:
    value: Fraction
    keys: list


@dataclass
class CollisionReport:
    total_scanned: int
    classes: list
    duplicate_points: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 2 if (self.classes or self.duplicate_points) else 0

    def to_json_dict(self) -> dict:
        return envelope(self.config, {
            "total_scanned": self.total_scanned,
            "classes": [
                {"value": format_rational(c.value), "keys": list(c.keys)}
                for c in self.classes
            ],
            "duplicate_points": [list(g) for g in self.duplicate_points],
        })


def collision_scan(stream: Iterable[tuple]) -> CollisionReport:
    """Group exactly equal values in a stream of (key, value) pairs.

    Classes (>= 2 keys sharing one value) are sorted by value; key order
    inside a class is stream order.
    """
    index = {}
    total = 0
    for key, value in stream:
        index.setdefault((value.numerator, value.denominator), []).append(key)
        total += 1
    classes = [
        CollisionClass(Fraction(num, den), keys)
        for (num, den), keys in index.items()
        if len(keys) >= 2
    ]
    classes.sort(key=lambda c: c.value)
    return CollisionReport(total, classes)


def _repeated_keys(part):
    """The keys that occur more than once in the sorted unsigned array
    `part`, each once, in increasing order and of its dtype.  Neighbours
    are compared CHUNK_KEYS at a time, so no mask covers the partition, and
    no chunk view outlives this call to keep the partition alive."""
    import numpy as np

    found = [part[:0].copy()]
    for lo in range(1, len(part), CHUNK_KEYS):
        hi = min(lo + CHUNK_KEYS, len(part))
        keys = part[lo:hi]
        found.append(keys[keys == part[lo - 1:hi - 1]])
    dup = np.concatenate(found)
    if not len(dup):
        return dup
    # a run of r equal keys leaves r - 1 copies of its key, adjacent in dup
    return dup[np.concatenate(([True], dup[1:] != dup[:-1]))]


def _candidates(keys, runs):
    """The indices of the unsigned `keys` that are one of the sorted `runs`,
    in stream order, an int64 array, read CHUNK_KEYS keys at a time.

    A bool table over the keys' top bits marks the entries of the runs, and
    only a key whose entry is marked is searched for among them.  It has
    PREFILTER_ENTRIES_PER_RUN * runs entries rounded up to a power of two,
    or one per key value up to the largest key when that is fewer, so at
    most one entry in sixteen is marked, and about as few of the keys are
    searched for when they spread evenly over their range."""
    import numpy as np

    found = [np.empty(0, dtype=np.intp)]
    if len(runs):
        top = int(keys.max())
        entries = PREFILTER_ENTRIES_PER_RUN * len(runs)
        shift = max(top.bit_length() - (entries - 1).bit_length(), 0)
        marked = np.zeros((top >> shift) + 1, dtype=bool)
        marked[runs >> shift] = True
        for lo in range(0, len(keys), CHUNK_KEYS):
            block = keys[lo:lo + CHUNK_KEYS]
            hits = np.flatnonzero(marked[block >> shift])
            block = block[hits]
            at = np.searchsorted(runs, block)
            np.minimum(at, len(runs) - 1, out=at)
            found.append(lo + hits[runs[at] == block])
    return np.concatenate(found)


def _crt(p, q, rp, rq):
    """The uint64 keys mod p*q of residues `rp` mod p and `rq` mod q, for two
    distinct primes below 2**31, as rp + p*t (Garner's form).  The residues
    are read as uint32 and combined CHUNK_KEYS at a time, in place in the
    key array, so no temporary spans the scan.  Every intermediate value
    stays below 2**62."""
    import numpy as np

    rp, rq = np.asarray(rp, dtype=np.uint32), np.asarray(rq, dtype=np.uint32)
    keys = np.empty(len(rp), dtype=np.uint64)
    inv = pow(p, -1, q)
    for lo in range(0, len(keys), CHUNK_KEYS):
        out, a = keys[lo:lo + CHUNK_KEYS], rp[lo:lo + CHUNK_KEYS]
        out[:] = rq[lo:lo + CHUNK_KEYS]
        out += q
        out -= a % q
        out %= q
        out *= inv
        out %= q
        out *= p
        out += a
    return keys


def _inverse(a, p):
    """The inverse mod p of each entry of the uint64 array `a`, and 0 for a
    zero entry, so callers must route those entries through the scalar group
    law.  Montgomery's trick on a product tree: pairs multiply up to one root
    (each odd level padded with 1), the root is inverted once, and the walk
    back down costs two products per node, about three products per entry."""
    import numpy as np

    zero = a == 0
    level, levels = np.where(zero, 1, a), []
    while len(level) > 1:
        if len(level) % 2:
            level = np.append(level, np.uint64(1))
        levels.append(level)
        level = level[0::2] * level[1::2] % p
    inv = np.array([pow(int(r), -1, p) for r in level], dtype=np.uint64)
    for v in reversed(levels):
        # each child's inverse is its parent's times its sibling
        inv = (inv[: len(v) // 2, None] * v.reshape(-1, 2)[:, ::-1] % p).reshape(-1)
    return np.where(zero, 0, inv[: len(a)])


def _add_point(p, x, y, t):
    """(x3, y3, odd): the chord sums (x, y) + t mod p over uint64 arrays of
    affine points and one affine point t.  `odd` indexes the entries whose
    x equals t's (a doubling, or a sum that cancels); their x3 and y3 are
    meaningless and must come from `CurveModP.add`.  Every product of two
    residues below 2**31 fits a uint64, and no difference goes negative."""
    import numpy as np

    tx, ty = t
    den = (tx + p - x) % p
    lam = (ty + p - y) * _inverse(den, p) % p
    x3 = (lam * lam + (2 * p - tx) - x) % p
    y3 = (lam * (x + p - x3) + (p - y)) % p
    return x3, y3, np.flatnonzero(den == 0)


def _walk(cm: CurveModP, g: tuple, bound: int):
    """Yields (lo, x, y): m*G mod p for m = lo + 1.., uint64 arrays of at
    most WALK_BLOCK points, whose blocks tile m = 1..bound in order.  Raises
    UnsuitablePrimeError at the least m with m*G reducing to the identity.

    Position i holds (i + 1)*G.  Each block [lo, lo + n) is source[:n] + t,
    with the stride t = len(source)*G, in one vectorised chord addition;
    only an entry that doubles or cancels goes through `CurveModP.add`.
    The source starts as G alone.  While it holds fewer than WALK_BLOCK
    points it grows by each new block, so t, its last point, doubles; after
    that each block is the source of the next, and t stays fixed.  Blocks
    start at 0, 1, 2, 4, ..., WALK_BLOCK and then every WALK_BLOCK, and the
    walk holds at most the source and one block.  As the walk stops at the
    first identity, no source and no stride is ever the identity.
    """
    import numpy as np

    if not bound:
        return
    x, y = np.array([g[0]], dtype=np.uint64), np.array([g[1]], dtype=np.uint64)
    yield 0, x, y
    lo, t = 1, g
    while lo < bound:
        n = min(len(x), bound - lo)
        bx, by, odd = _add_point(cm.p, x[:n], y[:n], t)
        for j in odd.tolist():
            pt = cm.add((int(x[j]), int(y[j])), t)
            if pt is None:
                raise UnsuitablePrimeError(f"{lo + j + 1}*G reduces to the identity mod {cm.p}")
            bx[j], by[j] = pt
        yield lo, bx, by
        lo += n
        if len(x) < WALK_BLOCK:
            x, y = np.concatenate((x, bx)), np.concatenate((y, by))
            t = int(x[-1]), int(y[-1])
        else:
            x, y = bx, by


def _orbit_label(translates: tuple):
    """label(i): the orbit() label of walk position i, by index arithmetic.

    `translates` holds the index k of each distinct torsion point, in
    order, and is empty without a torsion list; width = max(its length, 1).
    Position ((m - 1)*2 + s)*width + j holds m*G + T_k for s = 0 and
    -m*G + T_k for s = 1, with k = translates[j].  Its label is m or -m,
    paired with k when the spec has a torsion list.
    """
    width = max(len(translates), 1)

    def label(i):
        m, j = divmod(i, width)
        m, s = divmod(m, 2)
        m = -(m + 1) if s else m + 1
        return (m, translates[j]) if translates else m

    return label


def _distinct_translates(spec: OrbitSpec):
    """(kept, duplicate groups) of an orbit of infinite order, from its
    torsion list alone: `kept` is the index of the first entry naming each
    point, in order.  A point named at k1 < k2 < ... makes the group
    [(s, k1), (s, k2), ...] for s = 1, -1, ..., M, -M, sorted by the text of
    the first label, and no other labels share a point: s*G + T_k =
    s'*G + T_l makes (s - s')*G torsion, so s = s' and T_k = T_l."""
    by_point = {}
    for k, t in enumerate(spec.torsion):
        by_point.setdefault(t, []).append(k)
    repeats = [ks for ks in by_point.values() if len(ks) >= 2]
    groups = [[(s, k) for k in ks] for ks in repeats for m in range(1, spec.bound + 1) for s in (m, -m)]
    return tuple(ks[0] for ks in by_point.values()), sorted(groups, key=lambda g: str(g[0]))


def _residue_blocks(spec: OrbitSpec, kept: tuple, cm: CurveModP, ar: int, br: int):
    """Yields (lo, residues): the P residues alpha*x + beta*y mod p (`ar`
    and `br` are alpha and beta mod p) of the items lo, lo + 1, ... of the
    orbit of a G of infinite order on the translates `kept`, in item order
    (`_orbit_label`), a uint32 array (p < 2**31) for each walk block.  The
    blocks tile the orbit's items in order.

    No such orbit point is exactly the identity, so one that reduces to the
    identity mod p makes the prime unsuitable: UnsuitablePrimeError.  A
    torsion translate never does, as rational torsion injects into E(F_p)
    at an odd prime of good reduction.  The first identity met ends the
    prime: the walk's own, or else, in the first block where a translate
    meets one, the least such k at its least m.
    """
    import numpy as np

    p = cm.p
    g = cm.reduce_point(spec.generator)
    if g is None:
        raise UnsuitablePrimeError(f"generator reduces to the identity mod {p}")
    translates = [(k, cm.reduce_point(spec.torsion[k])) for k in kept] or [(0, None)]
    for lo, x, y in _walk(cm, g, spec.bound):
        residues = np.empty((len(x), 2, len(translates)), dtype=np.uint32)
        for s, ys in enumerate((y, (p - y) % p)):
            for j, (k, t) in enumerate(translates):
                px, py, odd = (x, ys, ()) if t is None else _add_point(p, x, ys, t)
                if len(odd):
                    # m*G = +-T_k mod p puts m*G + T_k or -m*G + T_k at the identity
                    i = int(odd[0])
                    m = lo + i + 1
                    label = (m if (y[i] + t[1]) % p == 0 else -m, k)
                    raise UnsuitablePrimeError(f"orbit point at label {label} reduces to the identity mod {p}")
                residues[:, s, j] = (ar * px + br * py) % p
        yield 2 * len(translates) * lo, residues.reshape(-1)


def _filled(k, blocks):
    """The residues of the k items of `blocks` (`_residue_blocks`), one
    uint32 array."""
    import numpy as np

    residues = np.empty(k, dtype=np.uint32)
    for lo, block in blocks:
        residues[lo:lo + len(block)] = block
    return residues


def _picked(at, blocks):
    """The residues of `blocks` (`_residue_blocks`) at the sorted item
    positions `at` alone, one uint32 array.  Every block is walked, and
    each is dropped once its positions are read.  Filling all the residues
    mod q and indexing them would hold 4 bytes a point after the residues
    mod p are freed: below the stage mod p under tracemalloc, and as fast,
    but at check-p --M 100000 it raised the own peak RSS from 35.1-35.5 to
    35.7-36.0 MiB (6 runs each of three builds that differ only in a
    docstring's length, 2-vCPU Xeon), as the freed memory of the stage
    mod p is not all returned to the system."""
    import numpy as np

    picked, done = np.empty(len(at), dtype=np.uint32), 0
    for lo, block in blocks:
        end = int(np.searchsorted(at, lo + len(block)))
        picked[done:end] = block[at[done:end] - lo]
        done = end
    return picked


def _choose_primes(build, then=None):
    """((p, a), (q, b)) at the first two primes p > q below
    PRIME_SEARCH_START at which a = build(p), and then b = then(q, a), or
    build(q) without `then`, raise no UnsuitablePrimeError."""
    primes = primes_descending(PRIME_SEARCH_START)
    p, a = _next_suitable(primes, build)
    q, b = _next_suitable(primes, build if then is None else lambda q: then(q, a))
    logger.info("primes chosen: %d, %d", p, q)
    return (p, a), (q, b)


def _next_suitable(primes, build):
    """(p, build(p)) at the next prime p of the iterator `primes` at which
    `build` raises no UnsuitablePrimeError."""
    for p in primes:
        try:
            return p, build(p)
        except UnsuitablePrimeError as exc:
            logger.info("prime %d skipped: %s", p, exc)
    # only reachable when the search starts at a small prime
    raise RuntimeError("prime search exhausted")


def _fingerprints(chosen):
    """(N, keys): the uint64 keys mod N = p*q of the items whose uint32
    residues are rp mod p and rq mod q, in item order, for the primes
    chosen = ((p, rp), (q, rq)) (`_crt`)."""
    (p, rp), (q, rq) = chosen
    keys = _crt(p, q, rp, rq)
    logger.info(
        "fingerprints of %d items: residues %d + %d bytes, keys %d bytes",
        len(keys), rp.nbytes, rq.nbytes, keys.nbytes,
    )
    return p * q, keys


def _orbit_items(u: UniquenessFunction, spec: OrbitSpec, kept: tuple, *also_invert):
    """(k, blocks, value, label): the k items of the orbit of a G of
    infinite order on the distinct translates `kept`
    (`_distinct_translates`), in emission order: blocks(p), their P
    residues mod p, walked one block at a time (`_residue_blocks`), P at
    item i's exact point, built once and only when asked, and its orbit()
    label (`_orbit_label`).  The denominators of `also_invert` must not
    vanish mod p either: blocks(p) checks them all before it walks."""

    def blocks(p):
        ar, br = fraction_mod(u.params.alpha, p), fraction_mod(u.params.beta, p)
        for c in also_invert:
            fraction_mod(c, p)
        return _residue_blocks(spec, kept, CurveModP(spec.generator.curve, p), ar, br)

    label = _orbit_label(kept)

    @cache
    def value(i):
        m, k = label(i) if spec.torsion else (label(i), 0)
        return u.eval_P(add(scalar_mul(m, spec.generator), (spec.torsion or (INFINITY,))[k]))

    return 2 * spec.bound * max(len(kept), 1), blocks, value, label


def _finite_orbit(u: UniquenessFunction, spec: OrbitSpec, cycle):
    """(duplicate groups, kept) of the orbit of a G of finite order d, whose
    exact `torsion_cycle` is `cycle`.  Each orbit() label takes its point
    from the table r*G + T_k, r = m mod d, and the labels are grouped by
    exact point (a translate inside the cycle makes two entries one point);
    exact identities carry no label.  `kept` is (first label, P value) of
    each point, in stream order; the groups of two or more labels are
    sorted by the text of their first label."""
    table = [[add(c, t) for t in spec.torsion or (INFINITY,)] for c in cycle]
    d, by_point = len(cycle), {}
    for m in range(1, spec.bound + 1):
        for sign, r in ((m, m % d), (-m, -m % d)):
            for k, pt in enumerate(table[r]):
                if not pt.is_infinity:
                    label = (sign, k) if spec.torsion else sign
                    by_point.setdefault((pt.x, pt.y), (pt, []))[1].append(label)
    points = list(by_point.values())
    labels = sum(len(g) for _, g in points)
    logger.info("finite orbit: G of order %d, %d labels on %d points", d, labels, len(points))
    groups = sorted((g for _, g in points if len(g) >= 2), key=lambda g: str(g[0]))
    return groups, [(g[0], u.eval_P(pt)) for pt, g in points]


def _scan_config(op: str, u: UniquenessFunction, spec: OrbitSpec, exact_bound: int) -> dict:
    return {
        "op": op,
        "curve": u.curve.to_json_dict(),
        "params": u.params.to_json_dict(),
        "spec": spec.config_dict(),
        # hashed into config_digest only; it selects nothing.  It names the
        # engine the scans once picked by size, so digests stay unchanged.
        "method": "exact" if spec.bound <= exact_bound else "residue",
    }


def _require_valid(u: UniquenessFunction):
    violations = validate_params(u.params)
    if violations:
        raise ValueError("invalid injection parameters: " + "; ".join(violations))


def _mod_p_candidates(p, rp):
    """(at, rp[at]): the positions `at` of the uint32 residues `rp` mod p
    that occur more than once, in stream order, and their residues.  Equal
    keys mod N = p*q are equal residues mod p, so every item of a run mod N
    is among them.  A sorted copy of `rp` gives the repeated residues, and
    is freed before `_candidates` reads `rp` again, so the stage holds 8
    bytes an item at its peak."""
    import numpy as np

    part = np.sort(rp)
    runs = _repeated_keys(part)
    del part
    at = _candidates(rp, runs)
    logger.info("P-scan mod %d: %d candidates in %d runs", p, len(at), len(runs))
    return at, rp[at]


def _p_classes(k, at, rp, rq, value, label):
    """The classes of the exact values `value(i)` of k items, keyed by
    `label(i)`, from their candidates mod p (`_mod_p_candidates`): the
    positions `at`, in stream order, with their uint32 residues `rp` mod p
    and `rq` mod q.  Equal keys mod N = p*q are equal residues at both
    primes, so the runs of equal pairs (rp, rq) among the candidates are the
    runs of equal keys mod N, in the same stream order, and only their
    items' values are built.  A pair is one uint64, rp * 2**31 + rq."""
    import numpy as np

    pairs = rp.astype(np.uint64) << 31
    pairs |= rq
    runs = _repeated_keys(np.sort(pairs))
    survivors = at[_candidates(pairs, runs)].tolist()
    classes = collision_scan((label(i), value(i)) for i in survivors).classes
    # the residues mod p and their sorted copy, and the bool mask of one
    # chunk of the search for repeated residues (`_mod_p_candidates`)
    logger.info(
        "P-scan partition 1/1: %d keys, %d candidate runs, %d confirmed classes, %d bytes",
        k, len(runs), len(classes), 8 * k + min(k, CHUNK_KEYS),
    )
    return classes


def p_injectivity_scan(u: UniquenessFunction, spec: OrbitSpec) -> CollisionReport:
    """Scan eval_P over the orbit for exact value collisions.

    Labels whose points coincide are flagged as duplicate points, not value
    collisions, and only the first occurrence stays in the value scan.  A
    finite orbit is scanned exactly (`_finite_orbit`).  On any other only a
    point the torsion list names twice has two labels, so those groups come
    from the spec, and the rest is walked mod p, its residues sorted in
    one partition, and walked mod q only for the candidates whose residue
    mod p repeats (`_mod_p_candidates`, `_p_classes`).  Its peak, 8 bytes
    an orbit point, is the residues mod p and their sorted copy.
    """
    _require_valid(u)
    spec.validate()
    config = _scan_config("p_injectivity_scan", u, spec, EXACT_P_SCAN_BOUND)
    cycle = torsion_cycle(spec.generator)
    if cycle is not None:
        groups, kept = _finite_orbit(u, spec, cycle)
        return CollisionReport(len(kept), collision_scan(kept).classes, groups, config)
    kept, groups = _distinct_translates(spec)
    k, blocks, value, label = _orbit_items(u, spec, kept)
    (_, (at, rp)), (_, rq) = _choose_primes(
        lambda p: _mod_p_candidates(p, _filled(k, blocks(p))),
        lambda q, candidates: _picked(candidates[0], blocks(q)),
    )
    return CollisionReport(k, _p_classes(k, at, rp, rq, value, label), groups, config)


P_NOT_INJECTIVE = "P not injective on scanned set; shrink or exclude collision points"


def f_injectivity_scan(u: UniquenessFunction, spec: OrbitSpec) -> CollisionReport:
    """Scan eval_f over all ordered orbit-point pairs; keys are (m1, m2).

    Precondition: eval_P must be collision-free on the same orbit, so the
    scanned set plays the role of the injective open set.  A torsion list
    that names a point twice fails it from the spec, before any prime is
    chosen, once M >= 1; otherwise it is checked on the scan's own residue
    systems, with exact confirmation (`_p_classes`), reading the residues
    mod q of the candidates mod p from the full residues its keys need.
    For k orbit points
    the pair scan holds row arrays of about 100 bytes a point and one
    equal key range of about max(2**14, 16*k) keys at 24 bytes a key
    (`_pair_classes`), never all k^2 keys at once.
    A finite orbit passes the precondition only while 2M < d, so its few
    pairs are indexed exactly.
    """
    _require_valid(u)
    spec.validate()
    config = _scan_config("f_injectivity_scan", u, spec, EXACT_F_SCAN_BOUND)
    config["strategy"] = "direct"  # hashed into config_digest; the only f-strategy
    n, gamma = u.params.n, u.params.gamma
    cycle = torsion_cycle(spec.generator)
    if cycle is not None:
        groups, kept = _finite_orbit(u, spec, cycle)
        if groups or collision_scan(kept).classes:
            raise ValueError(P_NOT_INJECTIVE)
        pairs = (((a, b), zagier_eval(v, w, n, gamma)) for a, v in kept for b, w in kept)
        return CollisionReport(len(kept) ** 2, collision_scan(pairs).classes, [], config)
    kept, groups = _distinct_translates(spec)
    if groups:
        raise ValueError(P_NOT_INJECTIVE)
    k, blocks, value, label = _orbit_items(u, spec, kept, gamma)
    chosen = _choose_primes(lambda p: _filled(k, blocks(p)))
    (p, rp), (_, rq) = chosen
    at, rp_at = _mod_p_candidates(p, rp)
    if _p_classes(k, at, rp_at, rq[at], value, label):
        raise ValueError(P_NOT_INJECTIVE)
    modulus, keys = _fingerprints(chosen)
    # the pair scan needs the keys alone
    del chosen, rp, rq
    classes = _pair_classes("f-scan", modulus, keys, n, gamma, value, label)
    return CollisionReport(k**2, classes, [], config)


def _pair_classes(scan, modulus, keys, n, gamma, value, label):
    """Collision classes of v_i**n + gamma*v_j**n over all ordered pairs
    (i, j) of the k = len(keys) items, keys (label(i), label(j)) in
    row-major order.

    The items come by their uint64 keys mod `modulus` (`_fingerprints`),
    with value and label as in `_p_classes`; `value(i)`,
    v_i, is asked for both items of each candidate pair, so a costly one
    must cache, and gamma must be invertible mod `modulus`.  The key of
    pair (i, j) is (left[i] + right[j]) mod N, at flat index i*k + j.  A
    partition targets max(PAIR_PARTITION_KEYS, PAIR_KEYS_PER_ITEM * k)
    keys, a bound on k alone: when all k*k keys fit, there is one.
    Otherwise [0, N) is cut into equal key ranges expected to hold the
    target less four standard deviations.  Each edge is searched once
    (`_PairKeys.below`), and its row counts close the range below it and
    open the one above.  A range is gathered into two reused buffers of
    min(k*k, target) keys, which a range holding more keys (a crowded key
    value, or skewed items) grows, and sorted there; the pairs of its
    repeated keys are confirmed exactly.
    """
    import numpy as np

    k = len(keys)
    w = [pow(v, n, modulus) for v in keys.tolist()]
    g = fraction_mod(gamma, modulus)
    pairs = _PairKeys(
        np.array(w, dtype=np.uint64), np.array([g * v % modulus for v in w], dtype=np.uint64), modulus,
    )
    del w
    target = max(PAIR_PARTITION_KEYS, PAIR_KEYS_PER_ITEM * k)
    expected = max(target - 4 * isqrt(target), (target + 1) // 2)
    ranges = 1 if k * k <= target else min(modulus, -(-k * k // expected))
    # reused by every partition: gathering into fresh arrays took
    # zagier_probe(60) from 0.29 to 0.41 s on a 2-vCPU Xeon
    held = min(k * k, target)
    part, offsets = np.empty(held, dtype=np.uint64), np.arange(held)
    lower, classes = pairs.below(0), []
    for s in range(1, ranges + 1):
        upper = pairs.below(s * modulus // ranges)
        count = upper - lower
        size = int(count.sum())
        if size > len(part):
            # free the old buffers before the larger ones are allocated
            del part, offsets
            part, offsets = np.empty(size, dtype=np.uint64), np.arange(size)
        partition = pairs.gather(lower, count, part, offsets)
        lower = upper
        partition.sort()
        runs = _repeated_keys(partition)
        del partition
        found = collision_scan(
            (x, zagier_eval(value(x // k), value(x % k), n, gamma)) for x in pairs.candidates(runs)
        ).classes
        logger.info(
            "%s partition %d/%d: %d keys, %d candidate runs, %d confirmed classes, %d bytes",
            scan, s, ranges, size, len(runs), len(found), PAIR_BYTES_PER_KEY * size,
        )
        classes.extend(found)
    classes.sort(key=lambda c: c.value)
    for c in classes:
        c.keys = [(label(x // k), label(x % k)) for x in c.keys]
    return classes


class _PairKeys:
    """The k*k keys (left[i] + right[j]) mod N of the ordered pairs (i, j),
    at flat index i*k + j, read from a sorted `right` without building them
    all.

    The rows are taken in increasing order of left (`lorder`), and `right`
    is sorted (`rs`, `rorder`).  Row i's keys ls_i + rs_j wrap past N where
    rs_j >= N - ls_i, so in increasing order they are rs2[x] + ls_i - N for
    x in [base_i, base_i + k), where rs2 is rs followed by rs + N and base_i
    counts the rs below N - ls_i.  Every entry of rs2 is below 2N < 2**63.
    The row's keys below an edge e are those with rs2[x] < e + N - ls_i,
    so one searchsorted counts them for every row (`below`), and the keys
    in [e, e') are one slice of rs2 per row.
    """

    def __init__(self, left, right, modulus):
        import numpy as np

        self.k = len(left)
        self.lorder = np.argsort(left)
        self.rorder = np.argsort(right)
        rs = right[self.rorder]
        self.rs2 = np.concatenate((rs, rs + np.uint64(modulus)))
        del rs
        self.shift = np.uint64(modulus) - left[self.lorder]  # N - ls_i, in (0, N]
        self.base = np.searchsorted(self.rs2, self.shift)
        # ls_i - N, wrapped mod 2**64: added to rs2[x] it leaves the key
        self.lows = np.uint64(0) - self.shift

    def below(self, e):
        """How many keys of each row lie below e, an int64 array, for
        0 <= e <= N."""
        import numpy as np

        count = np.searchsorted(self.rs2, self.shift + np.uint64(e))
        count -= self.base
        return count

    def gather(self, lower, count, part, offsets):
        """The uint64 keys of each row's `count` keys from its count `lower`
        of `below` on, row by row, written to the front of the uint64 buffer
        `part`, which must hold them all; `offsets` is np.arange of its
        length."""
        import numpy as np

        size = int(count.sum())
        # a key's place in rs2 is its row's first place plus its offset in
        # the row, which is its index less the row's start in the partition
        first = self.base + lower
        first -= np.cumsum(count) - count
        j = np.repeat(first, count)
        del first
        j += offsets[:size]
        # mode "clip" writes straight into `part`; "raise" would buffer it
        np.take(self.rs2, j, out=part[:size], mode="clip")
        del j
        part[:size] += np.repeat(self.lows, count)
        return part[:size]

    def candidates(self, runs):
        """The flat indices of the pairs whose key is one of `runs`, in
        stream order: for each run key r, each row's entries of rs2 equal
        to r + N - ls_i, by a left and a right searchsorted.  Equal entries
        lie in one half of rs2, so they are one slice of `rorder`."""
        import numpy as np

        k, found = self.k, []
        for r in runs.tolist():
            t = self.shift + np.uint64(r)
            lo, hi = np.searchsorted(self.rs2, t, "left"), np.searchsorted(self.rs2, t, "right")
            for i in np.flatnonzero(hi > lo).tolist():
                j = int(lo[i]) % k
                found.extend((int(self.lorder[i]) * k + self.rorder[j:j + int(hi[i] - lo[i])]).tolist())
        found.sort()
        return found


def zagier_probe(h_bound: int) -> CollisionReport:
    """Exact collision scan of r1^7 + 3*r2^7 over all ordered pairs of
    rationals of height <= h_bound, keys (r1, r2) in text form, in the
    f-scan's pair partitions (`_pair_classes`).  A nonempty class would be
    a finding to surface, never to suppress."""
    import numpy as np

    rats = list(rationals_by_height(h_bound))
    config = {"op": "zagier_probe", "height_bound": h_bound, "n": 7, "gamma": "3"}
    modulus, keys = _fingerprints(_choose_primes(
        lambda p: np.fromiter((fraction_mod(r, p) for r in rats), dtype=np.uint32, count=len(rats))
    ))
    classes = _pair_classes(
        "zagier-scan", modulus, keys, 7, Fraction(3), rats.__getitem__, lambda i: format_rational(rats[i]),
    )
    return CollisionReport(len(rats) ** 2, classes, [], config)
