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

The f-scan and `zagier_probe`, whose items are the rationals of bounded
height, share its pair form (`_pair_classes`).  `collision_scan` holds
exact canonical values in one dict, so equality is exact with no hashing
false positives; it is the reference index the tests compare the
fingerprint engine against.

The memory ceiling is the only resource setting.  The fingerprint engine
splits the key space into as few key-range partitions as fit the ceiling,
processed one after another, and counts every partition's size exactly
before it is allocated.  Reports are deterministic and do not depend on the
ceiling: keys inside a class are in stream order, and classes are sorted by
value before emission.
"""

import bisect
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .curve import Point, add, scalar_mul
from .injection import UniquenessFunction, validate_params
from .modular import CurveModP, UnsuitablePrimeError, fraction_mod, primes_descending
from .pairing import zagier_eval
from .points import OrbitSpec, rationals_by_height
from .rational import format_rational
from .reporting import canonical_json, envelope

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
# Partition counts the fingerprint engine tries, each sized exactly, from the
# first one at which an even split of the keys would fit the ceiling.
PARTITION_TRIES = 16

# Bounds up to which a scan's config reads "method": "exact"; see _scan_config.
EXACT_P_SCAN_BOUND = 300
EXACT_F_SCAN_BOUND = 60

# Both fingerprint primes lie below this, so N = p*q < 2**62.
PRIME_SEARCH_START = 2**31


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

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


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
    n.  Partition s of `count` holds the keys in [s*w, (s+1)*w) with
    w = ceil(modulus / count), built block by block and then sorted in
    place.  The items whose key occurs more than once in it are found again
    by a second block pass, grouped by key into buckets of indices in stream
    order, and handed to `resolve(buckets) -> classes`.  Equal values have
    equal keys, so a class never spans two partitions.

    `count` is the fewest partitions whose largest one fits `memory_ceiling`
    together with one block; sizes are counted exactly before anything is
    allocated.
    """
    count, sizes = _partition_sizes(scan, n, row, modulus, key_block, memory_ceiling)
    width = -(-modulus // count)

    def in_partition(keys, s):
        mask = keys >= s * width
        mask &= keys < (s + 1) * width
        return mask

    classes = []
    for s, size in enumerate(sizes):
        part = np.empty(size, dtype=np.uint64)
        filled = 0
        for _, keys in _blocks(n, row, count, key_block):
            mask = in_partition(keys, s)
            taken = int(np.count_nonzero(mask))
            np.compress(mask, keys, out=part[filled:filled + taken])
            filled += taken
        part.sort()
        runs = np.unique(part[1:][part[1:] == part[:-1]])
        del part
        buckets = [[] for _ in range(len(runs))]
        if len(runs):
            for lo, keys in _blocks(n, row, count, key_block):
                at = np.searchsorted(runs, keys)
                np.minimum(at, len(runs) - 1, out=at)
                hits = np.flatnonzero(runs[at] == keys)
                for i, run in zip((lo + hits).tolist(), at[hits].tolist()):
                    buckets[run].append(i)
        found = resolve(buckets)
        logger.info(
            "%s partition %d/%d: %d keys, %d candidate runs, %d confirmed classes",
            scan, s + 1, count, size, len(runs), len(found),
        )
        classes.extend(found)
    classes.sort(key=lambda c: c.value)
    return classes


def _block_step(n, row, count):
    """Keys per block when n keys are split into `count` partitions: whole
    rows, at most BLOCK_KEYS or an even partition share, at least one row."""
    return row * max(1, min(BLOCK_KEYS, -(-n // count)) // row)


def _blocks(n, row, count, key_block):
    step = _block_step(n, row, count)
    for lo in range(0, n, step):
        yield lo, key_block(lo, min(lo + step, n))


def _partition_sizes(scan, n, row, modulus, key_block, memory_ceiling):
    """(count, exact size of each partition) for the fewest key-range
    partitions whose largest one fits `memory_ceiling` with one block.

    One partition is taken without a pass when all n keys fit.  Otherwise
    the counts from the first whose even share would fit are tried in turn,
    PARTITION_TRIES at most, each counted exactly by one pass over the blocks.
    """

    def needed(count, largest):
        block = BLOCK_BYTES_PER_KEY * min(_block_step(n, row, count), n)
        return PARTITION_BYTES_PER_KEY * largest + block

    if n == 0 or memory_ceiling is None or needed(1, n) <= memory_ceiling:
        return 1, [n]
    least = needed(n, 1)  # one key and one block of one row
    if least > memory_ceiling:
        raise MemoryCeilingError(
            f"{scan}: needs at least {least} bytes for one block of {min(row, n)} keys, "
            f"over the memory ceiling of {memory_ceiling}"
        )
    # the largest partition holds at least an even share of the keys
    first = 1 + bisect.bisect_left(
        range(1, n + 1), True, key=lambda c: needed(c, -(-n // c)) <= memory_ceiling
    )
    tried = []
    for count in range(first, first + PARTITION_TRIES):
        width = -(-modulus // count)
        sizes = np.zeros(count, dtype=np.int64)
        for _, keys in _blocks(n, row, count, key_block):
            sizes += np.bincount(keys // width, minlength=count)
        tried.append((needed(count, int(sizes.max())), count))
        if tried[-1][0] <= memory_ceiling:
            return count, sizes.tolist()
    least, count = min(tried)
    raise MemoryCeilingError(
        f"{scan}: no count of {first} to {first + PARTITION_TRIES - 1} key-range partitions "
        f"fits the memory ceiling of {memory_ceiling}; {count} partitions need {least} bytes"
    )


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
    distinct primes below 2**31, as rp + p*t (Garner's form).  Every
    intermediate value stays below 2**62."""
    rp = np.asarray(rp, dtype=np.uint64)
    t = (np.asarray(rq, dtype=np.uint64) + (q - rp % q)) % q
    t = t * pow(p, -1, q) % q
    return rp + p * t


class _OrbitResidues:
    """Orbit labels and P residues alpha*x + beta*y mod one prime, mirroring
    orbit() emission; `ar` and `br` are alpha and beta mod p.

    Raises UnsuitablePrimeError when any emitted point reduces to the
    identity mod p (i.e. p divides its coordinate denominators), when the
    curve has bad reduction, or when an inverted denominator vanishes.
    `is_exact_infinity(m)` distinguishes a true identity m*G (skipped by
    orbit as translate base, emitted as bare T) from an unsuitable prime.
    """

    def __init__(self, spec: OrbitSpec, p: int, ar: int, br: int, is_exact_infinity):
        cm = CurveModP(spec.generator.curve, p)
        g = cm.reduce_point(spec.generator)
        if g is None:
            raise UnsuitablePrimeError(f"generator reduces to the identity mod {p}")
        translates = []
        for t in spec.torsion:
            if t.is_infinity:
                translates.append(None)
            else:
                r = cm.reduce_point(t)
                if r is None:
                    raise UnsuitablePrimeError(f"torsion point reduces to the identity mod {p}")
                translates.append(r)
        if not spec.torsion:
            translates = [None]
        self.labels, self.residues = [], []
        mg = g
        for m in range(1, spec.bound + 1):
            if m > 1:
                mg = cm.add(mg, g)
            if mg is None and not is_exact_infinity(m):
                raise UnsuitablePrimeError(f"{m}*G reduces to the identity mod {p}")
            for sign, base in ((m, mg), (-m, cm.negate(mg))):
                for k, t in enumerate(translates):
                    pt = cm.add(base, t)
                    if pt is None:
                        # exact point is the identity (orbit skips it) or p is unsuitable
                        if _exact_orbit_point(spec, sign, k).is_infinity:
                            continue
                        raise UnsuitablePrimeError(
                            f"orbit point at label {(sign, k)} reduces to the identity mod {p}"
                        )
                    self.labels.append(sign if not spec.torsion else (sign, k))
                    self.residues.append((ar * pt[0] + br * pt[1]) % p)


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
    infinity_cache = {}

    def is_exact_infinity(m):
        if m not in infinity_cache:
            infinity_cache[m] = scalar_mul(m, spec.generator).is_infinity
        return infinity_cache[m]

    def build(p):
        ar, br = fraction_mod(u.params.alpha, p), fraction_mod(u.params.beta, p)
        for c in also_invert:
            fraction_mod(c, p)
        return _OrbitResidues(spec, p, ar, br, is_exact_infinity)

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
