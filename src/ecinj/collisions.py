"""Exact collision detection over value streams, and the injectivity scans
built on it.

Two engines:

* `collision_scan` holds exact canonical values.  Dedup keys are the
  canonical (num, den) pairs, so equality is exact with no hashing false
  positives (dict buckets are confirmed by exact comparison).  The exact
  P/f scans and `zagier_probe` use it.

* The residue engine fingerprints each value by its residues modulo a few
  deterministic 61-bit primes.  Equal exact values always produce equal
  fingerprints at suitable primes, so no true collision can be missed.
  Orbit values grow quadratically in digit count and are far too large to
  store exactly (measured: the |m| <= 2000 orbit would need hours and
  gigabytes), while residues are constant-size.  The first prime's residues
  are uint64 numpy keys: they are sorted in place, and only items whose key
  occurs more than once become candidates.  Candidates are grouped by their
  residues at every prime, and each surviving bucket is split by exact
  re-evaluation before it may enter the report.

The residue engine splits the key space into `shards` key-range partitions
processed one after another, so the memory it holds is about 1/shards of
the whole and is checked exactly against the ceiling before it is
allocated.  Reports are deterministic and byte-identical for every shard
count: keys inside a class are in stream order, and classes are sorted by
value before emission.
"""

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .curve import Point, add, scalar_mul
from .injection import UniquenessFunction, validate_params
from .modular import CurveModP, UnsuitablePrimeError, fraction_mod, primes_descending
from .pairing import zagier_eval
from .points import OrbitSpec, orbit, pair_stream, rationals_by_height
from .rational import format_rational
from .reporting import VERSION, canonical_json, config_digest

logger = logging.getLogger(__name__)

PROGRESS_EVERY = 10**6
DEFAULT_MEMORY_CEILING = 4 * 2**30  # bytes

# Bytes the residue engine holds per key of a partition: the uint64
# first-prime key and one byte of the mask of repeated sorted keys.  The
# repeated keys themselves come on top; there are none unless first-prime
# residues collide.
PARTITION_BYTES_PER_KEY = 9
# Bytes per key of one generated block at its largest, in the candidate
# pass: the keys (8), their searchsorted positions (8), the gathered run
# values (8) and the hit mask (1).
BLOCK_BYTES_PER_KEY = 25
# Keys generated per block, at most.
BLOCK_KEYS = 2**20

# bounds below which the exact engine is used by the "auto" method
EXACT_P_SCAN_BOUND = 300
EXACT_F_SCAN_BOUND = 60

PRIME_SEARCH_START = 2**61


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
        return {
            "version": VERSION,
            "config_digest": config_digest(self.config),
            "total_scanned": self.total_scanned,
            "classes": [
                {"value": format_rational(c.value), "keys": list(c.keys)}
                for c in self.classes
            ],
            "duplicate_points": [list(g) for g in self.duplicate_points],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def _build_index(entries, *, shards, progress_every, memory_ceiling, size_of):
    """Index a stream of (bucket_key, key) into bucket -> [(index, key), ...]
    for the exact engine.

    The stream is dealt round-robin to `shards` independent maps which are
    then merged; entries are re-sorted by stream index, so the result is
    identical for every shard count.  Memory use is an estimate from
    `size_of`, checked against the ceiling as the index grows.
    """
    shard_maps = [{} for _ in range(max(1, shards))]
    used = 0
    total = 0
    for i, (bucket, key) in enumerate(entries):
        m = shard_maps[i % len(shard_maps)]
        slot = m.get(bucket)
        if slot is None:
            used += size_of(bucket) + 96
            m[bucket] = [(i, key)]
        else:
            used += 64
            slot.append((i, key))
        total += 1
        if memory_ceiling is not None and used > memory_ceiling:
            raise MemoryCeilingError(
                f"collision index estimate {used} bytes exceeds ceiling {memory_ceiling}"
            )
        if progress_every and total % progress_every == 0:
            logger.info("scanned %d items; index estimate %d bytes", total, used)
    merged = {}
    for m in shard_maps:
        for bucket, slot in m.items():
            merged.setdefault(bucket, []).extend(slot)
    for slot in merged.values():
        slot.sort(key=lambda e: e[0])
    return merged, total


def _exact_size(bucket) -> int:
    num, den = bucket
    return (num.bit_length() + den.bit_length()) // 8


def collision_scan(
    stream: Iterable[tuple],
    *,
    shards: int = 1,
    config: Optional[dict] = None,
    memory_ceiling: Optional[int] = DEFAULT_MEMORY_CEILING,
    progress_every: int = PROGRESS_EVERY,
) -> CollisionReport:
    """Group exactly equal values in a stream of (key, value) pairs.

    Memory is bounded by the number of distinct values.  Classes (>= 2 keys
    sharing one value) are sorted by value; key order inside a class is
    stream order regardless of shard count.
    """
    entries = (((v.numerator, v.denominator), k) for k, v in stream)
    index, total = _build_index(
        entries,
        shards=shards,
        progress_every=progress_every,
        memory_ceiling=memory_ceiling,
        size_of=_exact_size,
    )
    classes = [
        CollisionClass(Fraction(num, den), [k for _, k in slot])
        for (num, den), slot in index.items()
        if len(slot) >= 2
    ]
    classes.sort(key=lambda c: c.value)
    return CollisionReport(total, classes, [], config or {})


def _fingerprint_classes(scan, n, row, p, key_block, resolve, *, shards, memory_ceiling):
    """Collision classes among n stream items, found from first-prime keys.

    `key_block(lo, hi)` returns the uint64 residues mod `p` of items
    lo..hi-1 in stream order; lo is a multiple of `row` and hi is one too, or
    n.  Partition s of `shards` holds the keys in [s*w, (s+1)*w) with
    w = ceil(p / shards), built block by block and then sorted in place.
    The items whose key occurs more than once in it are found again, in
    stream order, by a second block pass and handed to
    `resolve(indices) -> (surviving_buckets, classes)`.  Equal values have
    equal keys, so a class never spans two partitions.

    Before anything is allocated, the bytes a partition needs (its keys and
    one block) are checked against `memory_ceiling`.
    """
    shards = max(1, shards)
    width = -(-p // shards)
    step = row * max(1, min(BLOCK_KEYS, -(-n // shards)) // row)
    block_bytes = BLOCK_BYTES_PER_KEY * min(step, n)

    def check_ceiling(keys):
        needed = PARTITION_BYTES_PER_KEY * keys + block_bytes
        if memory_ceiling is not None and needed > memory_ceiling:
            raise MemoryCeilingError(
                f"{scan}: a partition of {keys} keys needs {needed} bytes, "
                f"over the memory ceiling of {memory_ceiling}; use more shards"
            )

    def blocks():
        for lo in range(0, n, step):
            yield lo, key_block(lo, min(lo + step, n))

    def in_partition(keys, s):
        mask = keys >= s * width
        mask &= keys < (s + 1) * width
        return mask

    if shards == 1:
        sizes = [n]
    else:
        check_ceiling(-(-n // shards))  # the largest partition holds at least this many
        sizes = [0] * shards
        for _, keys in blocks():
            for s in range(shards):
                sizes[s] += int(np.count_nonzero(in_partition(keys, s)))
    check_ceiling(max(sizes))

    classes = []
    for s, size in enumerate(sizes):
        part = np.empty(size, dtype=np.uint64)
        filled = 0
        for _, keys in blocks():
            mask = in_partition(keys, s)
            count = int(np.count_nonzero(mask))
            np.compress(mask, keys, out=part[filled:filled + count])
            filled += count
        part.sort()
        runs = np.unique(part[1:][part[1:] == part[:-1]])
        del part
        candidates = []
        if len(runs):
            for lo, keys in blocks():
                at = np.searchsorted(runs, keys)
                np.minimum(at, len(runs) - 1, out=at)
                candidates.extend((lo + np.flatnonzero(runs[at] == keys)).tolist())
        surviving, found = resolve(candidates)
        logger.info(
            "%s partition %d/%d: %d keys, %d candidate runs, "
            "%d buckets survive every prime, %d confirmed classes",
            scan, s + 1, shards, size, len(runs), surviving, len(found),
        )
        classes.extend(found)
    classes.sort(key=lambda c: c.value)
    return classes


def _confirm_buckets(keys, fingerprint, exact):
    """Group candidate keys (in stream order) by `fingerprint`, their residues
    at every prime, and split each bucket of two or more by `exact` value.

    Returns (number of buckets of two or more, classes confirmed exactly).
    """
    buckets = {}
    for key in keys:
        buckets.setdefault(fingerprint(key), []).append(key)
    surviving = [bucket for bucket in buckets.values() if len(bucket) >= 2]
    classes = []
    for bucket in surviving:
        by_value = {}
        for key in bucket:
            by_value.setdefault(exact(key), []).append(key)
        classes.extend(CollisionClass(v, ks) for v, ks in by_value.items() if len(ks) >= 2)
    return len(surviving), classes


class _OrbitResidues:
    """Labeled orbit point residues mod one prime, mirroring orbit() emission.

    Raises UnsuitablePrimeError when any emitted point reduces to the
    identity mod p (i.e. p divides its coordinate denominators), when the
    curve has bad reduction, or when an inverted denominator vanishes.
    `is_exact_infinity(m)` distinguishes a true identity m*G (skipped by
    orbit as translate base, emitted as bare T) from an unsuitable prime.
    """

    def __init__(self, spec: OrbitSpec, p: int, is_exact_infinity):
        cm = CurveModP(spec.generator.curve, p)
        self.p = p
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
        labeled = []
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
                    label = sign if not spec.torsion else (sign, k)
                    labeled.append((label, pt))
        self.labeled = labeled


def _exact_orbit_point(spec: OrbitSpec, m: int, k: int = 0) -> Point:
    pt = scalar_mul(m, spec.generator)
    if spec.torsion:
        t = spec.torsion[k]
        if not t.is_infinity:
            pt = add(pt, t)
    return pt


def _choose_residue_systems(spec: OrbitSpec, num_primes: int, must_invert):
    """Deterministically pick the first suitable primes below PRIME_SEARCH_START.

    Returns (labels, systems).  Every system emits the orbit labels in the
    same order, so residues line up by position across primes.
    """
    infinity_cache = {}

    def is_exact_infinity(m):
        if m not in infinity_cache:
            infinity_cache[m] = scalar_mul(m, spec.generator).is_infinity
        return infinity_cache[m]

    systems = []
    for p in primes_descending(PRIME_SEARCH_START):
        try:
            for q in must_invert:
                fraction_mod(q, p)
            systems.append(_OrbitResidues(spec, p, is_exact_infinity))
        except UnsuitablePrimeError as exc:
            logger.info("prime %d skipped: %s", p, exc)
            continue
        if len(systems) == num_primes:
            break
    else:
        # only reachable when the search starts at a small prime
        raise RuntimeError("prime search exhausted")
    labels = [label for label, _ in systems[0].labeled]
    for sysm in systems[1:]:
        if [label for label, _ in sysm.labeled] != labels:
            raise RuntimeError(
                f"orbit labels mod {sysm.p} differ from those mod {systems[0].p}"
            )
    logger.info("primes chosen: %s", ", ".join(str(sysm.p) for sysm in systems))
    return labels, systems


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

    def f_value(self, pair) -> Fraction:
        l1, l2 = pair
        n, gamma = self.u.params.n, self.u.params.gamma
        return self.p_value(l1) ** n + gamma * self.p_value(l2) ** n


def _split_duplicate_points(labeled_keys, point_of, confirm_point):
    """Flag labels carrying an identical point; keep the first occurrence.

    `point_of(label)` gives a fingerprint; groups sharing one are confirmed
    through `confirm_point(label)` (exact coordinates) before flagging, so
    fingerprint coincidences cannot produce a false duplicate report.
    """
    buckets = {}
    for label in labeled_keys:
        buckets.setdefault(point_of(label), []).append(label)
    duplicates = []
    dropped = set()
    for labels in buckets.values():
        if len(labels) < 2:
            continue
        by_exact = {}
        for label in labels:
            pt = confirm_point(label)
            by_exact.setdefault((pt.x, pt.y), []).append(label)
        for group in by_exact.values():
            if len(group) >= 2:
                duplicates.append(group)
                dropped.update(group[1:])
    duplicates.sort(key=lambda g: str(g[0]))
    kept = [label for label in labeled_keys if label not in dropped]
    return duplicates, kept


def _scan_config(op: str, u: UniquenessFunction, spec: OrbitSpec, method: str) -> dict:
    return {
        "op": op,
        "curve": {"a": format_rational(u.curve.a), "b": format_rational(u.curve.b)},
        "params": u.params.to_json_dict(),
        "spec": spec.config_dict(),
        "method": method,
    }


def _require_valid(u: UniquenessFunction):
    violations = validate_params(u.params)
    if violations:
        raise ValueError("invalid injection parameters: " + "; ".join(violations))


def p_injectivity_scan(
    u: UniquenessFunction,
    spec: OrbitSpec,
    *,
    method: str = "auto",
    shards: int = 1,
    num_primes: int = 2,
    memory_ceiling: Optional[int] = DEFAULT_MEMORY_CEILING,
    progress_every: int = PROGRESS_EVERY,
) -> CollisionReport:
    """Scan eval_P over the orbit for exact value collisions.

    Labels whose points coincide (possible only with a wrong torsion list)
    are flagged as duplicate points, not value collisions, and only the
    first occurrence stays in the value scan.  With the residue method,
    `shards` key-range partitions are built one at a time, and the bytes
    one needs are checked against `memory_ceiling` before it is allocated.
    """
    _require_valid(u)
    spec.validate()
    if method == "auto":
        method = "exact" if spec.bound <= EXACT_P_SCAN_BOUND else "residue"
    config = _scan_config("p_injectivity_scan", u, spec, method)

    if method == "exact":
        labeled = list(orbit(spec))
        points = dict(labeled)
        duplicates, kept = _split_duplicate_points(
            [label for label, _ in labeled],
            point_of=lambda lb: (points[lb].x, points[lb].y),
            confirm_point=lambda lb: points[lb],
        )
        report = collision_scan(
            ((label, u.eval_P(points[label])) for label in kept),
            shards=shards,
            config=config,
            memory_ceiling=memory_ceiling,
            progress_every=progress_every,
        )
        report.duplicate_points = duplicates
        return report

    if method != "residue":
        raise ValueError(f"unknown method {method!r}")

    labels, systems = _choose_residue_systems(
        spec, num_primes, must_invert=[u.params.alpha, u.params.beta]
    )
    coefficients = [
        (sysm, fraction_mod(u.params.alpha, sysm.p), fraction_mod(u.params.beta, sysm.p))
        for sysm in systems
    ]
    position = {label: i for i, label in enumerate(labels)}

    def point_residues(label):
        return tuple(sysm.labeled[position[label]][1] for sysm in systems)

    def value_residues(label):
        residues = []
        for sysm, ar, br in coefficients:
            x, y = sysm.labeled[position[label]][1]
            residues.append((ar * x + br * y) % sysm.p)
        return tuple(residues)

    # Equal points have equal P, so the runs of equal first-prime P residues
    # hold every candidate for a duplicate point and for a value collision.
    first, ar, br = coefficients[0]
    keys = np.array([(ar * x + br * y) % first.p for _, (x, y) in first.labeled], dtype=np.uint64)
    evaluator = _ExactLabelEvaluator(u, spec)
    duplicates = []

    def resolve(indices):
        groups, kept = _split_duplicate_points(
            [labels[i] for i in indices], point_of=point_residues, confirm_point=evaluator.point
        )
        duplicates.extend(groups)
        return _confirm_buckets(kept, value_residues, evaluator.p_value)

    classes = _fingerprint_classes(
        "P-scan", len(keys), 1, first.p, lambda lo, hi: keys[lo:hi], resolve,
        shards=shards, memory_ceiling=memory_ceiling,
    )
    duplicates.sort(key=lambda g: str(g[0]))
    # every label of a duplicate group but its first leaves the value scan
    total = len(labels) - sum(len(g) - 1 for g in duplicates)
    return CollisionReport(total, classes, duplicates, config)


def f_injectivity_scan(
    u: UniquenessFunction,
    spec: OrbitSpec,
    *,
    method: str = "auto",
    strategy: str = "direct",
    shards: int = 1,
    num_primes: int = 2,
    memory_ceiling: Optional[int] = DEFAULT_MEMORY_CEILING,
    progress_every: int = PROGRESS_EVERY,
) -> CollisionReport:
    """Scan eval_f over all ordered orbit-point pairs; keys are (m1, m2).

    Precondition: eval_P must be collision-free on the same orbit, so the
    scanned set plays the role of the injective open set.  `strategy`
    selects the direct pair-value index (default) or the difference
    strategy, which indexes n-th-power differences in a second pass.  The
    direct residue scan holds about (PARTITION_BYTES_PER_KEY * k^2) / shards
    bytes for k orbit points, plus one block, and checks that figure against
    `memory_ceiling` before allocating it.
    """
    _require_valid(u)
    spec.validate()
    pre = p_injectivity_scan(
        u, spec, method=method, num_primes=num_primes,
        memory_ceiling=memory_ceiling, progress_every=progress_every,
    )
    if pre.classes or pre.duplicate_points:
        raise ValueError("P not injective on scanned set; shrink or exclude collision points")
    if method == "auto":
        method = "exact" if spec.bound <= EXACT_F_SCAN_BOUND else "residue"
    config = _scan_config("f_injectivity_scan", u, spec, method)
    config["strategy"] = strategy
    n, gamma = u.params.n, u.params.gamma

    if method == "exact":
        labeled = list(orbit(spec))
        powers = [(label, u.eval_P(pt) ** n) for label, pt in labeled]

        def pair_values():
            for (l1, a), (l2, b) in pair_stream(powers):
                yield ((l1, l2), a + gamma * b)

        return collision_scan(
            pair_values(),
            shards=shards,
            config=config,
            memory_ceiling=memory_ceiling,
            progress_every=progress_every,
        )

    if method != "residue":
        raise ValueError(f"unknown method {method!r}")

    labels, systems = _choose_residue_systems(
        spec, num_primes, must_invert=[u.params.alpha, u.params.beta, u.params.gamma]
    )
    per_prime = []
    for sysm in systems:
        p = sysm.p
        ar, br = fraction_mod(u.params.alpha, p), fraction_mod(u.params.beta, p)
        gr = fraction_mod(gamma, p)
        pw = [pow((ar * x + br * y) % p, n, p) for _, (x, y) in sysm.labeled]
        per_prime.append((p, gr, pw))
    evaluator = _ExactLabelEvaluator(u, spec)

    if strategy == "difference":
        pairs = _difference_candidates(labels, per_prime)
        return _confirmed_report_from_candidates(
            pairs, labels, evaluator, config, total=len(labels) ** 2
        )
    if strategy != "direct":
        raise ValueError(f"unknown strategy {strategy!r}")

    k = len(labels)
    position = {label: i for i, label in enumerate(labels)}

    def pair_residues(pair):
        i, j = position[pair[0]], position[pair[1]]
        return tuple((pw[i] + gr * pw[j]) % p for p, gr, pw in per_prime)

    # The key of pair (i, j) is (left[i] + right[j]) mod p at the first
    # prime, at flat index i*k + j.  Both terms are below p < 2**61, so
    # their sum cannot overflow uint64.
    p, gr, pw = per_prime[0]
    left = np.array(pw, dtype=np.uint64)
    right = np.array([gr * w % p for w in pw], dtype=np.uint64)

    def key_block(lo, hi):
        keys = np.add(left[lo // k:hi // k, None], right).ravel()
        np.subtract(keys, p, out=keys, where=keys >= p)
        return keys

    def resolve(indices):
        pairs = [(labels[x // k], labels[x % k]) for x in indices]
        return _confirm_buckets(pairs, pair_residues, evaluator.f_value)

    classes = _fingerprint_classes(
        "f-scan", k * k, max(k, 1), p, key_block, resolve,
        shards=shards, memory_ceiling=memory_ceiling,
    )
    return CollisionReport(k * k, classes, [], config)


def _difference_candidates(labels, per_prime):
    """Pairs of ordered pairs that satisfy a^n - c^n = gamma*(d^n - b^n) on
    every prime's residues: the difference form of f(A,B) = f(C,D).

    Pass 1 indexes the left side over (A, C); pass 2 probes with the right
    side over (D, B).  Identity matches (A, B) = (C, D) are skipped.
    """
    k = len(labels)
    index = {}
    for i in range(k):
        for j in range(k):
            acc = 0
            for p, _, pw in per_prime:
                acc = (acc << 64) | (pw[i] - pw[j]) % p
            index.setdefault(acc, []).append((i, j))
    candidates = set()
    for d in range(k):
        for b in range(k):
            acc = 0
            for p, gr, pw in per_prime:
                acc = (acc << 64) | gr * (pw[d] - pw[b]) % p
            for a, c in index.get(acc, ()):
                if (a, b) == (c, d):
                    continue
                first = (labels[a], labels[b])
                second = (labels[c], labels[d])
                candidates.add((min(first, second, key=str), max(first, second, key=str)))
    return candidates


def _confirmed_report_from_candidates(candidates, labels, evaluator, config, total):
    by_value = {}
    for first, second in sorted(candidates, key=str):
        for pair in (first, second):
            v = evaluator.f_value(pair)
            if pair not in by_value.setdefault(v, []):
                by_value[v].append(pair)
    order = {label: i for i, label in enumerate(labels)}
    classes = []
    for value, pairs in by_value.items():
        pairs = sorted(set(pairs), key=lambda pr: (order[pr[0]], order[pr[1]]))
        if len(pairs) >= 2:
            classes.append(CollisionClass(value, pairs))
    classes.sort(key=lambda c: c.value)
    return CollisionReport(total, classes, [], config)


def zagier_probe(
    h_bound: int,
    *,
    shards: int = 1,
    memory_ceiling: Optional[int] = DEFAULT_MEMORY_CEILING,
    progress_every: int = PROGRESS_EVERY,
) -> CollisionReport:
    """Exact collision scan of r1^7 + 3*r2^7 over all ordered pairs of
    rationals of height <= h_bound.  A nonempty class would be a finding
    to surface, never to suppress."""
    rats = list(rationals_by_height(h_bound))
    config = {"op": "zagier_probe", "height_bound": h_bound, "n": 7, "gamma": "3"}

    def entries():
        for r1 in rats:
            for r2 in rats:
                yield ((format_rational(r1), format_rational(r2)), zagier_eval(r1, r2, 7, 3))

    return collision_scan(
        entries(),
        shards=shards,
        config=config,
        memory_ceiling=memory_ceiling,
        progress_every=progress_every,
    )
