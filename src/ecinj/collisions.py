"""Exact collision detection: the P- and f-injectivity scans and the Zagier
probe.

All three scans run one engine.  It fingerprints each value by its
residue modulo N = p*q, for the first two suitable primes p, q below 2**31,
so every key fits a uint64 (N < 2**62).  Equal exact values always produce
equal keys at suitable primes, so no true collision can be missed.  Orbit
values grow quadratically in digit count and are far too large to store
exactly (measured: the |m| <= 2000 orbit would need hours and gigabytes),
while residues are constant-size.  The keys are sorted in place, and only
items whose key occurs more than once become candidates.  A run of equal
keys is a full two-prime fingerprint match, and each run is split by exact
re-evaluation before it may enter the report.

The orbit scans reduce the orbit mod each prime by block doubling
(`_walk`): each block of multiples of G is the block before it plus a
stride, in one vectorised chord addition with one batched inverse
(`_inverse`), and only an entry that doubles or meets the identity goes
through the scalar group law.  An orbit point that reduces to the
identity either is the identity exactly, which G's torsion order decides
without building m*G, or makes the prime unsuitable.  Labels follow from
the walk's positions (`_OrbitLabels`).

The f-scan and `zagier_probe`, whose items are the rationals of bounded
height, share its pair form (`_pair_classes`).  `collision_scan` holds
exact canonical values in one dict, so equality is exact with no hashing
false positives; it is the reference index the tests compare the
fingerprint engine against.

The memory ceiling is the only resource setting.  The fingerprint engine
generates keys in blocks of at most a quarter of the ceiling and keeps the
rest for one key-range partition at a time.  When the keys do not all fit
one partition, a single counting pass over 2**12 equal ranges of the key
space plans the partitions, so every partition's size is exact before it is
allocated; a range that alone overflows the room is refused.  Reports are
deterministic and do not depend on the ceiling: keys inside a class are in
stream order, and classes are sorted by value before emission.

numpy loads on first use: each function that needs it imports it, so
importing this module (and with it the CLI) costs no numpy start-up in the
commands that run no scan.
"""

import bisect
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Optional

from .curve import INFINITY, Point, add, scalar_mul
from .injection import UniquenessFunction, validate_params
from .modular import CurveModP, UnsuitablePrimeError, fraction_mod, primes_descending
from .pairing import zagier_eval
from .points import OrbitSpec, rationals_by_height, torsion_order
from .rational import format_rational
from .reporting import envelope

logger = logging.getLogger(__name__)

DEFAULT_MEMORY_CEILING = 4 * 2**30  # bytes

# Bytes the fingerprint engine holds per key of a partition: the uint64 key
# and one byte of the mask of repeated sorted keys.  The repeated keys
# themselves come on top; there are none unless fingerprints collide.
PARTITION_BYTES_PER_KEY = 9
# Bytes per key of one generated block at its largest, in the candidate
# pass: the keys (8), their searchsorted positions (8), the gathered run
# values (8) and the hit mask (1).
BLOCK_BYTES_PER_KEY = 25
# Keys generated per block, at most.
BLOCK_KEYS = 2**20
# The partition plan counts the keys in 2**KEY_RANGE_BITS equal ranges of
# the key space: 32 KB of int64 counters.
KEY_RANGE_BITS = 12

# Bounds up to which a scan's config reads "method": "exact"; see _scan_config.
EXACT_P_SCAN_BOUND = 300
EXACT_F_SCAN_BOUND = 60

# Both fingerprint primes lie below this, so N = p*q < 2**62.
PRIME_SEARCH_START = 2**31
# The orbit walk's blocks double up to this many points (see _walk).
WALK_BLOCK = 2**14


class MemoryCeilingError(RuntimeError):
    pass


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


def collision_scan(stream: Iterable[tuple], *, config: Optional[dict] = None) -> CollisionReport:
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
    return CollisionReport(total, classes, [], config or {})


def _fingerprint_classes(scan, n, row, modulus, key_block, resolve, *, memory_ceiling):
    """Collision classes among n stream items, found from their keys.

    `key_block(lo, hi)` returns the uint64 keys mod `modulus` of items
    lo..hi-1 in stream order; lo is a multiple of `row` and hi is one too, or
    n.  Partition s holds the keys in [edges[s], edges[s + 1]) of
    `_partition_plan`, built block by block and then sorted in place.  The
    items whose key occurs more than once in it are found again by a second
    block pass, grouped by key into buckets of indices in stream order, and
    handed to `resolve(buckets) -> classes`.  Equal values have equal keys,
    so a class never spans two partitions.
    """
    import numpy as np

    step, edges, sizes = _partition_plan(scan, n, row, modulus, key_block, memory_ceiling)
    classes = []
    for s, size in enumerate(sizes):
        part = _partition_keys(n, step, key_block, edges[s], edges[s + 1], size, modulus)
        part.sort()
        runs = np.unique(part[1:][part[1:] == part[:-1]])
        del part
        buckets = [[] for _ in range(len(runs))]
        if len(runs):
            for lo, keys in _blocks(n, step, key_block):
                at = np.searchsorted(runs, keys)
                np.minimum(at, len(runs) - 1, out=at)
                hits = np.flatnonzero(runs[at] == keys)
                for i, run in zip((lo + hits).tolist(), at[hits].tolist()):
                    buckets[run].append(i)
        found = resolve(buckets)
        logger.info(
            "%s partition %d/%d: %d keys, %d candidate runs, %d confirmed classes",
            scan, s + 1, len(sizes), size, len(runs), len(found),
        )
        classes.extend(found)
    classes.sort(key=lambda c: c.value)
    return classes


def _partition_keys(n, step, key_block, low, high, size, modulus):
    """The `size` keys of the n items that lie in [low, high), in stream
    order.  Every key lies in [0, modulus), so the one partition of an
    unsplit scan copies each block whole, with no range mask."""
    import numpy as np

    part = np.empty(size, dtype=np.uint64)
    filled = 0
    whole = low == 0 and high == modulus
    for _, keys in _blocks(n, step, key_block):
        if whole:
            taken = len(keys)
            part[filled:filled + taken] = keys
        else:
            mask = keys >= low
            mask &= keys < high
            taken = int(np.count_nonzero(mask))
            np.compress(mask, keys, out=part[filled:filled + taken])
        filled += taken
    return part


def _blocks(n, step, key_block):
    for lo in range(0, n, step):
        yield lo, key_block(lo, min(lo + step, n))


def _partition_plan(scan, n, row, modulus, key_block, memory_ceiling):
    """(step, edges, sizes): blocks of `step` keys, and partition s holding
    the sizes[s] keys in [edges[s], edges[s + 1]), each of which fits
    `memory_ceiling` together with one block.

    The block comes first: whole rows, at most BLOCK_KEYS and a quarter of
    the ceiling, at least one row.  The rest of the ceiling is the room for
    one partition.  When all n keys fit it, there is one partition and no
    pass.  Otherwise one pass counts the keys in 2**KEY_RANGE_BITS equal
    ranges of [0, modulus), and each partition is the longest run of
    consecutive ranges that fits the room.
    """
    import numpy as np

    most = BLOCK_KEYS
    if memory_ceiling is not None:
        most = min(most, memory_ceiling // (4 * BLOCK_BYTES_PER_KEY))
    step = row * max(1, min(most, n) // row)
    if n == 0 or memory_ceiling is None:
        return step, [0, modulus], [n]
    room = (memory_ceiling - BLOCK_BYTES_PER_KEY * step) // PARTITION_BYTES_PER_KEY
    if room < 1:
        raise MemoryCeilingError(
            f"{scan}: needs at least {BLOCK_BYTES_PER_KEY * step + PARTITION_BYTES_PER_KEY} "
            f"bytes for one block of {step} keys, over the memory ceiling of {memory_ceiling}"
        )
    if n <= room:
        return step, [0, modulus], [n]
    shift = max(0, (modulus - 1).bit_length() - KEY_RANGE_BITS)
    counts = np.zeros(((modulus - 1) >> shift) + 1, dtype=np.int64)
    for _, keys in _blocks(n, step, key_block):
        counts += np.bincount(keys >> shift, minlength=len(counts))
    crowded = int(np.argmax(counts))
    if counts[crowded] > room:
        lo, hi = crowded << shift, min((crowded + 1) << shift, modulus)
        raise MemoryCeilingError(
            f"{scan}: the key range [{lo}, {hi}) holds {counts[crowded]} keys, over the "
            f"{room} of one partition under the memory ceiling of {memory_ceiling}"
        )
    edges, sizes = [0], [0]
    for r, count in enumerate(counts.tolist()):
        if sizes[-1] + count > room:
            edges.append(r << shift)
            sizes.append(0)
        sizes[-1] += count
    return step, edges + [modulus], sizes


def _confirm_buckets(buckets, exact):
    """The classes of two keys or more among candidate buckets (keys in
    stream order), each bucket split by `exact` value."""
    classes = []
    for bucket in buckets:
        by_value = {}
        for key in bucket:
            by_value.setdefault(exact(key), []).append(key)
        classes.extend(CollisionClass(v, ks) for v, ks in by_value.items() if len(ks) >= 2)
    return classes


def _crt(p, q, rp, rq):
    """The uint64 keys mod p*q of residues `rp` mod p and `rq` mod q, for two
    distinct primes below 2**31, as rp + p*t (Garner's form), computed in
    place in the key array.  Every intermediate value stays below 2**62."""
    import numpy as np

    rp = np.asarray(rp, dtype=np.uint64)
    keys = rp % q
    np.subtract(q, keys, out=keys)
    keys += np.asarray(rq, dtype=np.uint64)
    keys %= q
    keys *= pow(p, -1, q)
    keys %= q
    keys *= p
    keys += rp
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
    """(x, y, identities): m*G mod p for m = 1..bound as uint64 arrays, and
    the sorted m at which m*G reduces to the identity (x and y read 0 there).

    Block doubling: position i holds (i + 1)*G, and the block
    [lo, lo + size) is the block [lo - size, lo) plus the stride size*G, in
    one vectorised chord addition.  `size` doubles from 1 up to WALK_BLOCK,
    one scalar `cm.add(t, t)` per doubling, and then stays fixed, so each
    block needs only the block before it.  An entry `_add_point` flags, or
    whose source is at the identity, goes through `CurveModP.add`; when the
    stride itself is the identity, the block is a copy of its source.
    """
    import numpy as np

    x = np.zeros(bound, dtype=np.uint64)
    y = np.zeros(bound, dtype=np.uint64)
    if bound:
        x[0], y[0] = g
    identities = []  # the positions at the identity, in increasing order
    lo, size, t = 1, 1, g
    while lo < bound:
        n = min(size, bound - lo)
        src = lo - size
        ids = identities[bisect.bisect_left(identities, src):bisect.bisect_left(identities, src + n)]
        if t is None:
            x[lo:lo + n], y[lo:lo + n] = x[src:src + n], y[src:src + n]
            identities.extend(i + size for i in ids)
        else:
            x[lo:lo + n], y[lo:lo + n], odd = _add_point(cm.p, x[src:src + n], y[src:src + n], t)
            at_identity = {i - src for i in ids}
            for j in sorted(at_identity.union(odd.tolist())):
                pt = cm.add(None if j in at_identity else (int(x[src + j]), int(y[src + j])), t)
                if pt is None:
                    identities.append(lo + j)
                x[lo + j], y[lo + j] = pt or (0, 0)
        lo += n
        if size < WALK_BLOCK and lo < bound:
            size, t = 2 * size, cm.add(t, t)
    return x, y, [i + 1 for i in identities]


@dataclass(frozen=True)
class _OrbitLabels(Sequence):
    """The orbit() labels of the walk's kept positions, by index arithmetic.

    Position ((m - 1)*2 + s)*width + k, with width = max(torsion, 1), holds
    m*G + T_k for s = 0 and -m*G + T_k for s = 1.  Its label is m or -m,
    paired with k when the spec has `torsion` points.  `skipped` lists the
    positions of exact identities in increasing order; they carry no label.
    """

    bound: int
    torsion: int
    skipped: tuple = ()

    def __len__(self):
        return 2 * self.bound * max(self.torsion, 1) - len(self.skipped)

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        pos = i + bisect.bisect_right(self._kept_below, i)
        m, k = divmod(pos, max(self.torsion, 1))
        m, s = divmod(m, 2)
        label = -(m + 1) if s else m + 1
        return (label, k) if self.torsion else label

    @cached_property
    def _kept_below(self):
        # kept positions below each skipped one, a non-decreasing list
        return [pos - j for j, pos in enumerate(self.skipped)]


class _OrbitResidues:
    """Orbit labels (an `_OrbitLabels`) and the P residues
    alpha*x + beta*y mod one prime (a uint64 array), mirroring orbit()
    emission; `ar` and `br` are alpha and beta mod p.

    Raises UnsuitablePrimeError when any emitted point reduces to the
    identity mod p (i.e. p divides its coordinate denominators), when the
    curve has bad reduction, or when an inverted denominator vanishes; the
    first such point in emission order names the error.  `is_identity(m, t)`
    tells an exact identity m*G + t (skipped, as orbit skips it) from an
    unsuitable prime.
    """

    def __init__(self, spec: OrbitSpec, p: int, ar: int, br: int, is_identity):
        import numpy as np

        cm = CurveModP(spec.generator.curve, p)
        g = cm.reduce_point(spec.generator)
        if g is None:
            raise UnsuitablePrimeError(f"generator reduces to the identity mod {p}")
        translates = spec.torsion or (INFINITY,)
        reduced = [cm.reduce_point(t) for t in translates]
        if any(r is None and not t.is_infinity for r, t in zip(reduced, translates)):
            raise UnsuitablePrimeError(f"torsion point reduces to the identity mod {p}")
        width = len(translates)
        x, y, identities = _walk(cm, g, spec.bound)
        residues = np.empty((spec.bound, 2, width), dtype=np.uint64)
        # (2 * position, position, exact m, exact translate, error) of every
        # point that reduces to the identity; m*G itself sorts first
        zeros = [
            (4 * (m - 1) * width, None, m, INFINITY, f"{m}*G reduces to the identity mod {p}")
            for m in identities
        ]
        base_is_identity = {m - 1 for m in identities}
        base_at_identity = np.array(sorted(base_is_identity), dtype=np.int64)
        for s, sign, ys in ((0, 1, y), (1, -1, (p - y) % p)):
            for k, (t, r) in enumerate(zip(translates, reduced)):
                if r is None:
                    px, py, odd = x, ys, base_at_identity
                else:
                    px, py, odd = _add_point(p, x, ys, r)
                    odd = np.union1d(odd, base_at_identity)
                for i in odd.tolist():
                    pos = (i * 2 + s) * width + k
                    base = None if i in base_is_identity else (int(x[i]), int(ys[i]))
                    pt = cm.add(base, r)
                    if pt is None:
                        label = (sign * (i + 1), k)
                        zeros.append((
                            2 * pos + 1, pos, label[0], t,
                            f"orbit point at label {label} reduces to the identity mod {p}",
                        ))
                    else:
                        px[i], py[i] = pt
                residues[:, s, k] = (ar * px + br * py) % p
        skipped = []
        for _, pos, m, t, error in sorted(zeros, key=lambda z: z[0]):
            if not is_identity(m, t):
                raise UnsuitablePrimeError(error)
            if pos is not None:
                skipped.append(pos)
        self.labels = _OrbitLabels(spec.bound, len(spec.torsion), tuple(skipped))
        self.residues = np.delete(residues.reshape(-1), skipped)


def _exact_orbit_point(spec: OrbitSpec, m: int, k: int = 0) -> Point:
    pt = scalar_mul(m, spec.generator)
    if spec.torsion:
        t = spec.torsion[k]
        if not t.is_infinity:
            pt = add(pt, t)
    return pt


def _choose_primes(build):
    """[(p, build(p)), (q, build(q))] at the first two primes below
    PRIME_SEARCH_START at which `build` raises no UnsuitablePrimeError."""
    chosen = []
    for p in primes_descending(PRIME_SEARCH_START):
        try:
            chosen.append((p, build(p)))
        except UnsuitablePrimeError as exc:
            logger.info("prime %d skipped: %s", p, exc)
            continue
        if len(chosen) == 2:
            logger.info("primes chosen: %d, %d", chosen[0][0], chosen[1][0])
            return chosen
    # only reachable when the search starts at a small prime
    raise RuntimeError("prime search exhausted")


def _orbit_p_keys(u: UniquenessFunction, spec: OrbitSpec, *also_invert):
    """(labels, N, keys): the orbit labels in emission order and the uint64
    keys mod N = p*q of their P values, at the primes `_choose_primes`
    picks.  The denominators of `also_invert` must not vanish mod p either.
    """
    @cache
    def order():
        return torsion_order(spec.generator)

    def is_identity(m, t):
        # only a torsion G of order d sums to the identity, and m*G = (m mod d)*G;
        # the order is found the first time a point reduces to the identity
        d = order()
        return d is not None and add(scalar_mul(m % d, spec.generator), t).is_infinity

    def build(p):
        ar, br = fraction_mod(u.params.alpha, p), fraction_mod(u.params.beta, p)
        for c in also_invert:
            fraction_mod(c, p)
        return _OrbitResidues(spec, p, ar, br, is_identity)

    (p, first), (q, second) = _choose_primes(build)
    if second.labels != first.labels:
        raise RuntimeError(f"orbit labels mod {q} differ from those mod {p}")
    return first.labels, p * q, _crt(p, q, first.residues, second.residues)


class _ExactLabelEvaluator:
    """Exact re-evaluation of orbit points and P values by label, cached."""

    def __init__(self, u: UniquenessFunction, spec: OrbitSpec):
        self.u = u
        self.spec = spec
        self._points = {}
        self._pvals = {}

    def point(self, label) -> Point:
        if label not in self._points:
            m, k = label if isinstance(label, tuple) else (label, 0)
            self._points[label] = _exact_orbit_point(self.spec, m, k)
        return self._points[label]

    def p_value(self, label) -> Fraction:
        if label not in self._pvals:
            self._pvals[label] = self.u.eval_P(self.point(label))
        return self._pvals[label]

    def f_value(self, l1, l2) -> Fraction:
        n, gamma = self.u.params.n, self.u.params.gamma
        return self.p_value(l1) ** n + gamma * self.p_value(l2) ** n


def _split_duplicate_points(labels, point):
    """(groups of labels carrying one exact point, the labels kept): only
    the first label of each group is kept.  `point(label)` is exact."""
    by_point = {}
    for label in labels:
        pt = point(label)
        by_point.setdefault((pt.x, pt.y), []).append(label)
    groups = [group for group in by_point.values() if len(group) >= 2]
    dropped = {label for group in groups for label in group[1:]}
    return groups, [label for label in labels if label not in dropped]


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


def _residue_p_findings(labels, modulus, keys, evaluator, memory_ceiling):
    """(classes, duplicate point groups) of P over the orbit `labels`, found
    from their P keys mod `modulus`.

    Equal points have equal P, so the runs of equal P keys hold every
    candidate for a duplicate point and for a value collision.  Of each
    duplicate group only the first label stays in the value scan.
    """
    duplicates = []

    def resolve(buckets):
        kept = []
        for bucket in buckets:
            groups, rest = _split_duplicate_points([labels[i] for i in bucket], evaluator.point)
            duplicates.extend(groups)
            kept.append(rest)
        return _confirm_buckets(kept, evaluator.p_value)

    classes = _fingerprint_classes(
        "P-scan", len(keys), 1, modulus, lambda lo, hi: keys[lo:hi], resolve,
        memory_ceiling=memory_ceiling,
    )
    duplicates.sort(key=lambda g: str(g[0]))
    return classes, duplicates


def p_injectivity_scan(
    u: UniquenessFunction,
    spec: OrbitSpec,
    *,
    memory_ceiling: Optional[int] = DEFAULT_MEMORY_CEILING,
) -> CollisionReport:
    """Scan eval_P over the orbit for exact value collisions.

    Labels whose points coincide (possible only with a wrong torsion list)
    are flagged as duplicate points, not value collisions, and only the
    first occurrence stays in the value scan.  The key-range partitions are
    as few as fit `memory_ceiling`.
    """
    _require_valid(u)
    spec.validate()
    config = _scan_config("p_injectivity_scan", u, spec, EXACT_P_SCAN_BOUND)
    labels, modulus, keys = _orbit_p_keys(u, spec)
    classes, duplicates = _residue_p_findings(
        labels, modulus, keys, _ExactLabelEvaluator(u, spec), memory_ceiling
    )
    # every label of a duplicate group but its first leaves the value scan
    total = len(labels) - sum(len(g) - 1 for g in duplicates)
    return CollisionReport(total, classes, duplicates, config)


P_NOT_INJECTIVE = "P not injective on scanned set; shrink or exclude collision points"


def f_injectivity_scan(
    u: UniquenessFunction,
    spec: OrbitSpec,
    *,
    memory_ceiling: Optional[int] = DEFAULT_MEMORY_CEILING,
) -> CollisionReport:
    """Scan eval_f over all ordered orbit-point pairs; keys are (m1, m2).

    Precondition: eval_P must be collision-free on the same orbit, so the
    scanned set plays the role of the injective open set.  It is checked on
    the scan's own residue systems, with exact confirmation.  The scan holds
    about PARTITION_BYTES_PER_KEY * k^2 bytes for k orbit points, plus one
    block, in as many key-range partitions as `memory_ceiling` needs.
    """
    _require_valid(u)
    spec.validate()
    config = _scan_config("f_injectivity_scan", u, spec, EXACT_F_SCAN_BOUND)
    config["strategy"] = "direct"  # hashed into config_digest; the only f-strategy
    n, gamma = u.params.n, u.params.gamma
    labels, modulus, keys = _orbit_p_keys(u, spec, gamma)
    evaluator = _ExactLabelEvaluator(u, spec)
    p_classes, duplicates = _residue_p_findings(labels, modulus, keys, evaluator, memory_ceiling)
    if p_classes or duplicates:
        raise ValueError(P_NOT_INJECTIVE)
    w = [pow(v, n, modulus) for v in keys.tolist()]

    def exact(i, j):
        return evaluator.f_value(labels[i], labels[j])

    classes = _pair_classes(
        "f-scan", labels, modulus, w, fraction_mod(gamma, modulus), exact, memory_ceiling
    )
    return CollisionReport(len(labels) ** 2, classes, [], config)


def _pair_classes(scan, labels, modulus, w, g, exact, memory_ceiling):
    """Collision classes of w_i + g*w_j over all ordered pairs (i, j) of
    the k items `labels`, keys (labels[i], labels[j]) in row-major order.

    `w` holds the k values and `g` the factor, both mod `modulus`;
    `exact(i, j)` is the pair's exact value.
    """
    import numpy as np

    k = len(labels)
    # The key of pair (i, j) is (left[i] + right[j]) mod N, at flat index
    # i*k + j.  Both terms are below N < 2**62, so their sum cannot overflow
    # uint64.
    left = np.asarray(w, dtype=np.uint64)
    right = np.array([g * v % modulus for v in left.tolist()], dtype=np.uint64)

    def key_block(lo, hi):
        keys = np.add(left[lo // k:hi // k, None], right).ravel()
        np.subtract(keys, modulus, out=keys, where=keys >= modulus)
        return keys

    def resolve(buckets):
        return _confirm_buckets(buckets, lambda x: exact(*divmod(x, k)))

    classes = _fingerprint_classes(
        scan, k * k, max(k, 1), modulus, key_block, resolve, memory_ceiling=memory_ceiling,
    )
    for c in classes:
        c.keys = [(labels[x // k], labels[x % k]) for x in c.keys]
    return classes


def zagier_probe(
    h_bound: int,
    *,
    memory_ceiling: Optional[int] = DEFAULT_MEMORY_CEILING,
) -> CollisionReport:
    """Exact collision scan of r1^7 + 3*r2^7 over all ordered pairs of
    rationals of height <= h_bound, keys (r1, r2) in text form.  A nonempty
    class would be a finding to surface, never to suppress."""
    rats = list(rationals_by_height(h_bound))
    config = {"op": "zagier_probe", "height_bound": h_bound, "n": 7, "gamma": "3"}

    (p, wp), (q, wq) = _choose_primes(lambda p: [pow(fraction_mod(r, p), 7, p) for r in rats])

    def exact(i, j):
        return zagier_eval(rats[i], rats[j], 7, 3)

    labels = [format_rational(r) for r in rats]
    classes = _pair_classes(
        "zagier-scan", labels, p * q, _crt(p, q, wp, wq), 3, exact, memory_ceiling
    )
    return CollisionReport(len(rats) ** 2, classes, [], config)
