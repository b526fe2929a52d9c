"""Exact collision detection: the P- and f-injectivity scans and the Zagier
probe.

All three scans run one engine on every orbit of infinite order and on
the rationals, and each hands it the same things about its items: their
residues mod suitable primes below 2**31, `value(i)`, the exact value of
item i, built only when asked, and `label(i)`, its key in the report.
Equal exact values always produce equal residues at a suitable prime, so
no true collision can be missed.  Orbit values grow quadratically in
digit count and are far too large to store exactly (measured: the |m| <=
2000 orbit would need hours and gigabytes), while residues are
constant-size.  Only items whose residues repeat at every prime become
candidates, and every scan groups a partition's candidates by exact value
in `collision_scan`'s dict before they may enter the report.

The P-scan walks one prime p and never builds a key.  It sorts its
residues mod p in place, keeps their repeated values, frees them, and
walks p again for the items whose residue repeats (`_walked_candidates`).
Unequal residues at any prime prove unequal values, so the runs of those
candidates are split by their residues at up to FURTHER_PRIMES further
primes, which a batched double-and-add ladder gives at the candidates
alone (`_orbit_residues`, `_split_runs`).  A further prime needs good
reduction and no candidate at the identity, not the whole orbit's, and
none is chosen once no candidate is left.  Only the runs left build exact
points (`_p_classes`).  The f-scan's precondition, that P takes no value
twice on its orbit, is this P-scan itself.  The pair scans key their items
mod N = p*q at the first two suitable primes by the CRT (`_fingerprints`),
as their pair keys need all of them; a key fits a uint64 (N < 2**62).

The orbit scans decide once, exactly, whether the generator G has finite
order.  A G of finite order d never enters the engine: its orbit holds
at most d*width exact points, so `_finite_orbit` groups its labels by
exact point and the scans index those few values exactly.  On a G of
infinite order two labels name one point only when the torsion list names
a point twice, so its duplicate groups come from the spec
(`_distinct_translates`), and only one translate of each point is walked.
G is reduced mod a walked prime in one block loop (`_walk`): each block
of multiples of G is a source block plus a stride, in one vectorised chord
addition with one batched inverse (`_inverse`), and only an entry that
doubles goes through the scalar group law.  The source and the stride
double up to the largest block, about bound/32 points, a power of two in
[2**10, 2**14] (`_walk_block`), and then each block is the one before it
plus a fixed stride.  The block kernel writes into buffers allocated once
per walk, so a walk holds about 50 bytes per point of its largest block.
No point of its orbit is exactly the identity, so any that reduces to the
identity mod p makes the prime unsuitable, and the first one met ends the
prime.  The walk is streamed: each block's P residues (`_residue_blocks`)
go into one uint32 array, or are read at once against the runs mod p.
An orbit's items (`_orbit_items`) are labelled by index arithmetic, and
value(i) builds item i's exact point, at most once.

The f-scan and `zagier_probe`, whose items are the rationals of bounded
height, share its pair form (`_pair_classes`) and its one exact formula,
`pairing.zagier_eval`.  The tests' exact oracle shares only
`collision_scan` with the product.

No scan takes a resource setting.  The P-scan holds 4 bytes per orbit
point at its peak: the uint32 residues mod p, sorted in place, beside the
walk's buffers.  They are freed before the second walk, which keeps about
12 bytes per candidate; at primes near 2**31 the candidates are about one
point in 170 at 2 * 10**7 points.  The f-scan holds 16 bytes per orbit
point for its keys (two primes' residues and the uint64 keys), and the
pair scans about 100 bytes per item of sorted and searched row arrays.
The pair scans never build all k*k keys: row i's keys in a key range are
one slice of the sorted right terms (`_PairKeys`), so one searchsorted per
partition edge counts the ranges on both sides of it, and each range is
gathered from its slices.  The partitions are equal key ranges expected to
hold a little under max(2**14, 16*k) keys at 24 bytes a key, so a pair scan
holds O(k) memory plus one small partition; a crowded key value, or
items whose keys cluster, can make a range hold more.  The search for
repeated sorted keys and the candidate pass run CHUNK_KEYS keys at a
time, so no mask covers the keys, and the candidate pass searches only
the keys that a small bool table over their top bits marks.  Reports are
deterministic and depend neither on the partitions nor on the primes:
keys inside a class are in stream order, and classes are sorted by value
before emission.

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
# The orbit walk's blocks double up to about bound/32 points, within these
# bounds, then stay (see _walk_block).  Against 2**14-point blocks at every
# bound, 2**12 took 0.7 MiB off the own peak RSS of check-p --M 100000, and
# made check-p --M 10000000 28% slower (1.83 to 2.35 s, 2-vCPU Xeon).
WALK_BLOCK_MIN = 2**10
WALK_BLOCK = 2**14
# The P-scan splits its candidates mod the walked prime at up to this many
# further primes (see _split_runs).
FURTHER_PRIMES = 3


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


def _run_table(runs, modulus):
    """(shift, marked): the bool table of `_candidates` over the top bits of
    keys below `modulus`, built once for the sorted `runs`: it has
    PREFILTER_ENTRIES_PER_RUN * runs entries rounded up to a power of two,
    or one per key value below `modulus` when that is fewer, and marks the
    entries of the runs, so at most one entry in sixteen is marked."""
    import numpy as np

    top = modulus - 1
    entries = max(PREFILTER_ENTRIES_PER_RUN * len(runs), 1)
    shift = max(top.bit_length() - (entries - 1).bit_length(), 0)
    marked = np.zeros((top >> shift) + 1, dtype=bool)
    marked[runs >> shift] = True
    return shift, marked


def _candidates(keys, runs, table):
    """The indices of the unsigned `keys` that are one of the sorted `runs`,
    in stream order, an int64 array, read CHUNK_KEYS keys at a time.  Only
    a key whose entry `table` (`_run_table`, sized from the modulus, so
    any block of keys below it may be read) marks is searched for among the
    runs, and about as few of the keys are when they spread evenly over
    their range."""
    import numpy as np

    found = [np.empty(0, dtype=np.intp)]
    if len(runs):
        shift, marked = table
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


class _Work:
    """Work buffers of the block kernel for arrays of at most n points, so
    that `_add_point` and `_inverse` allocate no array of that size: the
    product tree (`tree`, 2n + 64 uint64 entries, room for every level
    padded to even length), the slopes (`lam`) and a bool mask (`zero`).
    Between kernel calls a caller may use `tree` and `lam` as scratch."""

    def __init__(self, n):
        import numpy as np

        self.tree = np.empty(2 * n + 64, dtype=np.uint64)
        self.lam = np.empty(n, dtype=np.uint64)
        self.zero = np.empty(n, dtype=bool)


def _inverse(a, p, out=None, work=None):
    """The inverse mod p of each entry of the uint64 array `a`, and 0 for a
    zero entry, so callers must route those entries through the scalar group
    law.  Montgomery's trick on a product tree: pairs multiply up to one root
    (each odd level padded with 1), the root is inverted once, and the walk
    back down costs two products per node, about three products per entry.

    The inverses are written into `out`, which may be `a`, and the tree into
    `work` (`_Work`); both are allocated when not given.  On the way down
    `out` holds each level's left children while they are overwritten."""
    import numpy as np

    n = len(a)
    out = np.empty(n, dtype=np.uint64) if out is None else out
    if not n:
        return out
    work = _Work(n) if work is None else work
    tree, zero = work.tree, work.zero[:n]
    np.equal(a, 0, out=zero)
    np.maximum(a, 1, out=tree[:n])  # a zero entry multiplies in as 1
    levels, lo, size = [], 0, n
    while size > 1:
        if size % 2:
            tree[lo + size] = 1
            size += 1
        levels.append((lo, size))
        up = tree[lo + size:lo + size + size // 2]
        np.multiply(tree[lo:lo + size:2], tree[lo + 1:lo + size:2], out=up)
        up %= p
        lo, size = lo + size, size // 2
    tree[lo] = pow(int(tree[lo]), -1, p)
    for lo, size in reversed(levels):
        # each child's inverse is its parent's times its sibling
        parent, half = tree[lo + size:lo + size + size // 2], size // 2
        left, right = tree[lo:lo + size:2], tree[lo + 1:lo + size:2]
        out[:half] = left
        np.multiply(parent, right, out=left)
        left %= p
        np.multiply(parent, out[:half], out=right)
        right %= p
    out[:] = tree[:n]
    np.copyto(out, 0, where=zero)
    return out


def _add_point(p, x, y, t, out=None, work=None):
    """(x3, y3, odd): the chord sums (x, y) + t mod p over uint64 arrays of
    affine points and one affine point t.  `odd` indexes the entries whose
    x equals t's (a doubling, or a sum that cancels); their x3 and y3 keep
    x and y, and their sums must come from `CurveModP.add`.  Every product
    of two residues below 2**31 fits a uint64, and no difference goes
    negative.

    x3 and y3 are written into `out`, a pair of uint64 arrays of len(x),
    which may be x and y themselves, with `work` (`_Work`); both are
    allocated when not given.  The slopes go to `work.lam`, y is read once
    and x last where x3 is first written, and y3 = lam*(tx - x3) - ty needs
    neither."""
    import numpy as np

    n = len(x)
    x3, y3 = (np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)) if out is None else out
    work = _Work(n) if work is None else work
    tx, ty = t
    lam = work.lam[:n]
    np.subtract(tx + p, x, out=lam)
    lam %= p
    odd = np.flatnonzero(np.equal(lam, 0, out=work.zero[:n]))
    inputs = x[odd], y[odd]
    _inverse(lam, p, lam, work)
    np.subtract(ty + p, y, out=y3)
    lam *= y3
    lam %= p
    np.multiply(lam, lam, out=y3)
    y3 += 2 * p - tx
    y3 -= x
    y3 %= p
    np.copyto(x3, y3)
    np.subtract(tx + p, x3, out=y3)
    y3 *= lam
    y3 += p - ty
    y3 %= p
    x3[odd], y3[odd] = inputs
    return x3, y3, odd


def _walk_block(bound):
    """The walk's largest block for m = 1..bound: about bound/32, rounded up
    to a power of two and clamped to [WALK_BLOCK_MIN, WALK_BLOCK]."""
    return min(WALK_BLOCK, max(WALK_BLOCK_MIN, 1 << (max(bound // 32, 1) - 1).bit_length()))


def _walk(cm: CurveModP, g: tuple, bound: int, work=None):
    """Yields (lo, x, y): m*G mod p for m = lo + 1.., uint64 arrays of at
    most _walk_block(bound) points, whose blocks tile m = 1..bound in order.
    Raises UnsuitablePrimeError at the least m with m*G reducing to the
    identity.

    Position i holds (i + 1)*G.  Each block [lo, lo + n) is source[:n] + t,
    with the stride t = len(source)*G, in one vectorised chord addition;
    only an entry that doubles or cancels goes through `CurveModP.add`.
    The source starts as G alone.  While it holds fewer than the largest
    block it grows by each new block, so t, its last point, doubles; after
    that each block is the source of the next, and t stays fixed.  Blocks
    start at 0, 1, 2, 4, ..., the largest block and then every largest
    block.  As the walk stops at the first identity, no source and no
    stride is ever the identity.

    The walk allocates its buffers once: the largest block's points and
    the kernel's `_Work` for them, unless `work` is given; the caller may
    use it between blocks.  A doubling block is written straight behind its
    source, and a fixed-stride block over it.  So each yielded block is a
    view that the walk overwrites once the next block is asked for.
    """
    import numpy as np

    if not bound:
        return
    block = _walk_block(bound)
    work = _Work(block) if work is None else work
    source = np.empty((2, block), dtype=np.uint64)
    source[:, 0] = g
    yield 0, source[0, :1], source[1, :1]
    lo, t, size = 1, g, 1
    while lo < bound:
        n = min(size, bound - lo)
        out = source[:, size:size + n] if size < block else source[:, :n]
        bx, by, odd = _add_point(cm.p, source[0, :n], source[1, :n], t, out, work)
        for j in odd.tolist():
            pt = cm.add((int(bx[j]), int(by[j])), t)
            if pt is None:
                raise UnsuitablePrimeError(f"{lo + j + 1}*G reduces to the identity mod {cm.p}")
            bx[j], by[j] = pt
        yield lo, bx, by
        lo += n
        if size < block:
            size += n
            t = int(source[0, size - 1]), int(source[1, size - 1])


def _add_at(cm: CurveModP, x, y, none, on, t):
    """Adds the point t mod p, not the identity, to the entries `on` (an
    index array) of the uint64 points (x, y), in place, in one `_add_point`
    call: an entry that the bool array `none` marks as the identity becomes
    t itself, and one that doubles or cancels goes through `CurveModP.add`;
    a cancel is marked in `none`, and its x and y become meaningless."""
    first, on = on[none[on]], on[~none[on]]
    bx, by, odd = _add_point(cm.p, x[on], y[on], t)
    for i in odd.tolist():
        pt = cm.add((int(x[on[i]]), int(y[on[i]])), t)
        if pt is None:
            none[on[i]] = True
        else:
            bx[i], by[i] = pt
    x[on], y[on] = bx, by
    x[first], y[first] = t
    none[first] = False


def _ladder(cm: CurveModP, g, m):
    """(x, y, none): m*G mod p at the positive multiples m, an int64 array,
    by one batched double-and-add: at bit b, 2**b*G is added to every entry
    with bit b set (`_add_at`).  `none` marks the entries at the identity
    mod p, whose uint64 x and y are meaningless; `g` is G mod p, or None at
    the identity."""
    import numpy as np

    n = len(m)
    x, y = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
    none = np.ones(n, dtype=bool)
    d = g
    for b in range(int(m.max()).bit_length() if n else 0):
        if d is None:
            break  # 2**b*G is the identity, and so is every double of it
        _add_at(cm, x, y, none, np.flatnonzero((m >> b) & 1), d)
        d = cm.add(d, d)
    return x, y, none


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
    blocks tile the orbit's items in order.  Like the walk's, each block is
    a view into buffers allocated once, overwritten once the next block is
    asked for.

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
    block = _walk_block(spec.bound)
    work = _Work(block)
    # -y and the translated points, only where a translate is not the identity
    neg, px, py = np.empty((3, block if any(t for _, t in translates) else 0), dtype=np.uint64)
    residues = np.empty((block, 2, len(translates)), dtype=np.uint32)
    for lo, x, y in _walk(cm, g, spec.bound, work):
        n = len(x)
        # between kernel calls its tree and slopes hold P(x, y) and beta*y
        a, b, ny, qx, qy = work.tree[:n], work.lam[:n], neg[:n], px[:n], py[:n]
        if len(ny):
            np.subtract(p, y, out=ny)
            ny %= p
        for j, (k, t) in enumerate(translates):
            if t is None:
                # P(x, -y) = P(x, y) - 2*beta*y, kept nonnegative by 2*br*p
                np.multiply(x, ar, out=a)
                np.multiply(y, br, out=b)
                a += b
                a %= p
                residues[:n, 0, j] = a
                a += 2 * br * p
                a -= b
                a -= b
                a %= p
                residues[:n, 1, j] = a
                continue
            for s, ys in enumerate((y, ny)):
                _, _, odd = _add_point(p, x, ys, t, (qx, qy), work)
                if len(odd):
                    # m*G = +-T_k mod p puts m*G + T_k or -m*G + T_k at the identity
                    i = int(odd[0])
                    m = lo + i + 1
                    label = (m if (y[i] + t[1]) % p == 0 else -m, k)
                    raise UnsuitablePrimeError(f"orbit point at label {label} reduces to the identity mod {p}")
                qx *= ar
                qy *= br
                qx += qy
                qx %= p
                residues[:n, s, j] = qx
        yield 2 * len(translates) * lo, residues[:n].reshape(-1)


def _orbit_residues(spec: OrbitSpec, kept: tuple, cm: CurveModP, ar: int, br: int, at, label):
    """The uint32 P residues mod p of the orbit items `at` (an int64 array)
    alone, as `_residue_blocks` would give them, from one batched ladder
    (`_ladder`) at their multiples |m|, then the negation for -m and one
    `_add_at` per translate.  Only these points need a residue, so the
    prime is unsuitable only when one of them reduces to the identity:
    UnsuitablePrimeError names the first in stream order by its `label`.
    Whatever else reduces to the identity, the reduction mod p is a ring
    map on these points' values."""
    import numpy as np

    p, width = cm.p, max(len(kept), 1)
    pos, j = np.divmod(at, width)
    m, s = np.divmod(pos, 2)
    x, y, none = _ladder(cm, cm.reduce_point(spec.generator), m + 1)
    flip = np.flatnonzero(s)
    y[flip] = (p - y[flip]) % p
    for jj, k in enumerate(kept):
        t = cm.reduce_point(spec.torsion[k])
        if t is not None:
            # a multiple at the identity mod p reduces its translate to T_k itself
            _add_at(cm, x, y, none, np.flatnonzero(j == jj), t)
    if none.any():
        first = int(at[none].min())
        raise UnsuitablePrimeError(f"candidate at label {label(first)} reduces to the identity mod {p}")
    x *= ar
    y *= br
    x += y
    x %= p
    return x.astype(np.uint32)


def _filled(k, blocks):
    """The residues of the k items of `blocks` (`_residue_blocks`), one
    uint32 array."""
    import numpy as np

    residues = np.empty(k, dtype=np.uint32)
    for lo, block in blocks:
        residues[lo:lo + len(block)] = block
    return residues


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


def _fingerprints(build):
    """(N, keys): the uint64 keys mod N = p*q of the items, in item order,
    whose uint32 residues mod a prime r are build(r), at the first two
    primes p > q below PRIME_SEARCH_START at which build raises no
    UnsuitablePrimeError (`_crt`).  The residues are freed on return."""
    primes = primes_descending(PRIME_SEARCH_START)
    p, rp = _next_suitable(primes, build)
    q, rq = _next_suitable(primes, build)
    logger.info("primes chosen: %d, %d", p, q)
    keys = _crt(p, q, rp, rq)
    logger.info(
        "fingerprints of %d items: residues %d + %d bytes, keys %d bytes",
        len(keys), rp.nbytes, rq.nbytes, keys.nbytes,
    )
    return p * q, keys


def _orbit_items(u: UniquenessFunction, spec: OrbitSpec, kept: tuple, *also_invert):
    """(k, blocks, residues, value, label): the k items of the orbit of a G
    of infinite order on the distinct translates `kept`
    (`_distinct_translates`), in emission order: blocks(p), their P
    residues mod p, walked one block at a time (`_residue_blocks`),
    residues(p, at), those of the items `at` alone (`_orbit_residues`), P at
    item i's exact point, built once and only when asked, and its orbit()
    label (`_orbit_label`).  The denominators of `also_invert` must not
    vanish mod p either: blocks(p) and residues(p, at) check them all
    first."""

    def reduced(p):
        ar, br = fraction_mod(u.params.alpha, p), fraction_mod(u.params.beta, p)
        for c in also_invert:
            fraction_mod(c, p)
        return CurveModP(spec.generator.curve, p), ar, br

    def blocks(p):
        return _residue_blocks(spec, kept, *reduced(p))

    def residues(p, at):
        return _orbit_residues(spec, kept, *reduced(p), at, label)

    label = _orbit_label(kept)

    @cache
    def value(i):
        m, k = label(i) if spec.torsion else (label(i), 0)
        return u.eval_P(add(scalar_mul(m, spec.generator), (spec.torsion or (INFINITY,))[k]))

    return 2 * spec.bound * max(len(kept), 1), blocks, residues, value, label


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


def _mod_p_candidates(p, runs, blocks):
    """(at, rp): the positions `at` of the items of `blocks`, (lo, uint32
    residues mod p) in item order, whose residue is one of the sorted
    `runs`, in stream order, an int64 array, and their residues.  The table
    of `_candidates` is built once, and each block is read as it comes."""
    import numpy as np

    table = _run_table(runs, p)
    at, rp = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.uint32)]
    for lo, block in blocks:
        hits = _candidates(block, runs, table)
        at.append(lo + hits)
        rp.append(block[hits])
    at, rp = np.concatenate(at), np.concatenate(rp)
    logger.info("P-scan mod %d: %d candidates in %d runs", p, len(at), len(runs))
    return at, rp


def _walked_candidates(p, k, blocks):
    """(at, rp, runs): those of `_mod_p_candidates`, and how many runs they
    hold, for the k items of the orbit walked twice mod p by blocks(p)
    (`_residue_blocks`).  Equal keys mod any product of primes are equal
    residues mod p, so every item of a run is among them.  The first walk
    fills the uint32 residues, which are sorted in place for their repeated
    values and freed; the second reads each block against those runs.  The
    stage holds 4 bytes an item at its peak."""
    residues = _filled(k, blocks(p))
    residues.sort()
    runs = _repeated_keys(residues)
    del residues
    return (*_mod_p_candidates(p, runs, blocks(p)), len(runs))


def _refined(r, at, run, rr):
    """(at, run, runs): the candidates `at`, in stream order, that still
    share their run with another once each `run` (ids below 2**31, such as
    the residues mod p) is split by their uint32 residues `rr` mod the prime
    r, their new run ids, the places of their pairs (run, rr) among the
    repeated ones, and how many runs those are.  Unequal residues at r prove
    unequal values, so no item of a true class is dropped.  (np.unique would
    do, but it imports numpy.ma, 1.1 MiB of every P-scan's peak RSS.)"""
    import numpy as np

    pairs = run.astype(np.uint64) << 31
    pairs |= rr
    runs = _repeated_keys(np.sort(pairs))
    run = np.searchsorted(runs, pairs)
    np.minimum(run, max(len(runs) - 1, 0), out=run)
    keep = runs[run] == pairs if len(runs) else np.zeros(len(pairs), dtype=bool)
    at, run = at[keep], run[keep]
    logger.info("P-scan mod %d: %d candidates in %d runs", r, len(at), len(runs))
    return at, run, len(runs)


def _split_runs(primes, p, at, rp, runs, residues):
    """(at, runs) of `_refined` after the candidates mod p (positions
    `at`, residues `rp`, in `runs` runs) are split at up to FURTHER_PRIMES
    further primes from the iterator `primes`, taken while candidates are
    left.  residues(r, at) gives the candidates' residues mod r alone, and a
    prime at which it raises UnsuitablePrimeError is skipped.  Logs the
    primes chosen."""
    chosen, run = [p], rp
    while len(at) and len(chosen) <= FURTHER_PRIMES:
        r = next(primes, None)
        if r is None:
            break  # only reachable when the search starts at a small prime
        try:
            rr = residues(r, at)
        except UnsuitablePrimeError as exc:
            logger.info("prime %d skipped: %s", r, exc)
            continue
        at, run, runs = _refined(r, at, run, rr)
        chosen.append(r)
    logger.info("primes chosen: %s", ", ".join(map(str, chosen)))
    return at, runs


def _p_classes(k, at, runs, value, label):
    """The classes of the exact values `value(i)` of k items, keyed by
    `label(i)`, from the candidates `at`, in stream order, that share their
    run at every chosen prime with another, in `runs` runs: only their
    values are built."""
    classes = collision_scan((label(i), value(i)) for i in at.tolist()).classes
    # the residues mod p, sorted, and the bool mask of one chunk of the
    # search for repeated residues
    logger.info(
        "P-scan partition 1/1: %d keys, %d candidate runs, %d confirmed classes, %d bytes",
        k, runs, len(classes), 4 * k + min(k, CHUNK_KEYS),
    )
    return classes


def p_injectivity_scan(u: UniquenessFunction, spec: OrbitSpec) -> CollisionReport:
    """Scan eval_P over the orbit for exact value collisions.

    Labels whose points coincide are flagged as duplicate points, not value
    collisions, and only the first occurrence stays in the value scan.  A
    finite orbit is scanned exactly (`_finite_orbit`).  On any other only a
    point the torsion list names twice has two labels, so those groups come
    from the spec.  The rest is walked mod p into its residues, sorted in
    place, and walked again for the candidates whose residue repeats
    (`_walked_candidates`); their runs are split by their residues at up to
    FURTHER_PRIMES further primes, each from a ladder at the candidates
    alone (`_split_runs`), and only the runs left build exact points
    (`_p_classes`).  Its peak, 4 bytes an orbit point, is the residues mod
    p, beside the walk's buffers.
    """
    _require_valid(u)
    spec.validate()
    config = _scan_config("p_injectivity_scan", u, spec, EXACT_P_SCAN_BOUND)
    cycle = torsion_cycle(spec.generator)
    if cycle is not None:
        groups, kept = _finite_orbit(u, spec, cycle)
        return CollisionReport(len(kept), collision_scan(kept).classes, groups, config)
    kept, groups = _distinct_translates(spec)
    k, blocks, residues, value, label = _orbit_items(u, spec, kept)
    primes = primes_descending(PRIME_SEARCH_START)
    p, (at, rp, runs) = _next_suitable(primes, lambda p: _walked_candidates(p, k, blocks))
    at, runs = _split_runs(primes, p, at, rp, runs, residues)
    return CollisionReport(k, _p_classes(k, at, runs, value, label), groups, config)


P_NOT_INJECTIVE = "P not injective on scanned set; shrink or exclude collision points"


def f_injectivity_scan(u: UniquenessFunction, spec: OrbitSpec) -> CollisionReport:
    """Scan eval_f over all ordered orbit-point pairs; keys are (m1, m2).

    Precondition: eval_P must be collision-free on the same orbit, so the
    scanned set plays the role of the injective open set.  It is the P-scan
    itself (`p_injectivity_scan`): any class or duplicate point it reports
    refuses the scan, so a torsion list that names a point twice fails it
    once M >= 1.  A finite orbit passes it only while 2M < d, so its few
    pairs are indexed exactly.  Otherwise the f-scan walks its own two
    primes for the items' keys (`_fingerprints`), and for k orbit points
    the pair scan holds row arrays of about 100 bytes a point and one equal
    key range of about max(2**14, 16*k) keys at 24 bytes a key
    (`_pair_classes`), never all k^2 keys at once.
    """
    if p_injectivity_scan(u, spec).exit_code:
        raise ValueError(P_NOT_INJECTIVE)
    config = _scan_config("f_injectivity_scan", u, spec, EXACT_F_SCAN_BOUND)
    config["strategy"] = "direct"  # hashed into config_digest; the only f-strategy
    n, gamma = u.params.n, u.params.gamma
    cycle = torsion_cycle(spec.generator)
    if cycle is not None:
        _, kept = _finite_orbit(u, spec, cycle)
        pairs = (((a, b), zagier_eval(v, w, n, gamma)) for a, v in kept for b, w in kept)
        return CollisionReport(len(kept) ** 2, collision_scan(pairs).classes, [], config)
    k, blocks, _, value, label = _orbit_items(u, spec, _distinct_translates(spec)[0], gamma)
    modulus, keys = _fingerprints(lambda p: _filled(k, blocks(p)))
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
    modulus, keys = _fingerprints(
        lambda p: np.fromiter((fraction_mod(r, p) for r in rats), dtype=np.uint32, count=len(rats))
    )
    classes = _pair_classes(
        "zagier-scan", modulus, keys, 7, Fraction(3), rats.__getitem__, lambda i: format_rational(rats[i]),
    )
    return CollisionReport(len(rats) ** 2, classes, [], config)
