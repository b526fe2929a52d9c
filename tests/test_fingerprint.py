"""The residue engine at small primes, where its branches really fire, and
its exact memory bound.

At the default primes below 2**31 (keys mod N = p*q near 2**62) no
fingerprint coincidence ever happens, so these tests lower
`collisions.PRIME_SEARCH_START` (read at call time) and check each branch
through the per-partition log records, and every report's findings against
the tests' exact oracle (`exact_oracle`), which carries no scan config.
"""

import dataclasses
import logging
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ecinj import collisions
from ecinj.collisions import (
    BLOCK_BYTES_PER_KEY,
    DEFAULT_MEMORY_CEILING,
    PARTITION_BYTES_PER_KEY,
    MemoryCeilingError,
    collision_scan,
    f_injectivity_scan,
    p_injectivity_scan,
    zagier_probe,
)
from ecinj.curve import INFINITY, Curve
from ecinj.injection import InjectionParams, UniquenessFunction
from ecinj.pairing import zagier_eval
from ecinj.modular import CurveModP, fraction_mod
from ecinj.points import MAX_TORSION_ORDER, OrbitSpec, orbit, rationals_by_height
from ecinj.rational import format_rational
from ecinj.reporting import canonical_json
from exact_oracle import exact_f_scan, exact_p_scan

PARTITION = re.compile(
    r"(?P<scan>P|f|zagier)-scan partition \d+/\d+: (?P<keys>\d+) keys, (?P<runs>\d+) candidate runs, "
    r"(?P<classes>\d+) confirmed classes"
)


def partitions(caplog, scan):
    """The counts of every `scan` partition record, in order."""
    found = []
    for record in caplog.records:
        match = PARTITION.fullmatch(record.getMessage())
        if match and match["scan"] == scan:
            found.append({k: int(v) for k, v in match.groupdict().items() if k != "scan"})
    return found


def findings(report):
    d = report.to_json_dict()
    return d["total_scanned"], d["classes"], d["duplicate_points"]


@pytest.fixture
def small_primes(monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="ecinj.collisions")

    def use(start):
        monkeypatch.setattr(collisions, "PRIME_SEARCH_START", start)

    return use


def test_key_is_the_full_fingerprint(small_primes, caplog, ufunc248, gen248):
    # a run of equal keys mod N = p*q is a match at both primes: at 251 and
    # 241 the 144 f keys share 29 residue runs mod 251, none of them mod 241
    # as well; at 127 and 113, 21 buckets match at both primes
    spec = OrbitSpec(gen248, 6)
    oracle = findings(exact_f_scan(ufunc248, spec))
    for start, runs in ((2**8, 0), (2**7, 21)):
        caplog.clear()
        small_primes(start)
        residue = f_injectivity_scan(ufunc248, spec)
        [part] = partitions(caplog, "f")
        assert part == {"keys": 144, "runs": runs, "classes": 0}
        assert findings(residue) == oracle


def test_buckets_surviving_every_prime_split_exactly(small_primes, caplog, ufunc248, gen248):
    small_primes(2**7)  # primes 127 and 113
    spec = OrbitSpec(gen248, 6)
    residue = f_injectivity_scan(ufunc248, spec)
    [part] = partitions(caplog, "f")
    assert part["runs"] > 0 and part["classes"] == 0
    assert findings(residue) == findings(exact_f_scan(ufunc248, spec))


@pytest.mark.parametrize("p, q", [(61, 59), (2**31 - 1, 2**31 - 19)])
def test_crt_keys_come_back(p, q):
    n = p * q
    rng = random.Random(7)
    values = [0, 1, p - 1, q - 1, n - 1] + [rng.randrange(n) for _ in range(200)]
    keys = collisions._crt(p, q, [v % p for v in values], [v % q for v in values])
    assert keys.dtype == "uint64"
    assert keys.tolist() == values


@pytest.mark.parametrize("p", [13, 2**31 - 1])
@pytest.mark.parametrize("n", [*range(10), 1267])
def test_inverse_matches_pow(p, n):
    # odd lengths pad a level of the product tree; zeros stay 0
    rng = random.Random(n)
    a = [rng.randrange(1, p) for _ in range(n)]
    for i in {0, n - 1, *rng.sample(range(n), n // 5)} if n else ():
        a[i] = 0
    inv = collisions._inverse(np.array(a, dtype=np.uint64), p)
    assert inv.dtype == "uint64"
    assert inv.tolist() == [pow(v, -1, p) if v else 0 for v in a]


def test_point_reducing_to_identity_skips_prime(small_primes, caplog, ufunc248, gen248):
    small_primes(444)  # 443 divides the denominator of 7G
    spec = OrbitSpec(gen248, 7)
    residue = p_injectivity_scan(ufunc248, spec)
    messages = [r.getMessage() for r in caplog.records]
    assert "prime 443 skipped: 7*G reduces to the identity mod 443" in messages
    assert "primes chosen: 439, 433" in messages
    assert findings(residue) == findings(exact_p_scan(ufunc248, spec))


@pytest.mark.parametrize(
    "params, skipped_by",
    [
        ((Fraction(1, 251), 1, 2, 9), ["P", "f"]),
        ((1, Fraction(1, 251), 2, 9), ["P", "f"]),
        ((1, 1, Fraction(2, 251), 9), ["f"]),  # the P-scan never inverts gamma
    ],
)
def test_non_invertible_coefficient_skips_prime(small_primes, caplog, curve248, gen248, params, skipped_by):
    small_primes(2**8)
    u = UniquenessFunction(InjectionParams(*params), curve248)
    spec = OrbitSpec(gen248, 3)
    p_residue = p_injectivity_scan(u, spec)
    f_residue = f_injectivity_scan(u, spec)
    chosen = [r.getMessage() for r in caplog.records if r.getMessage().startswith("primes chosen")]
    # one prime choice for the P-scan, then one for the f-scan and its P precondition
    assert chosen == [
        "primes chosen: 241, 239" if scan in skipped_by else "primes chosen: 251, 241"
        for scan in ("P", "f")
    ]
    assert any("prime 251 skipped: denominator" in r.getMessage() for r in caplog.records)
    assert findings(p_residue) == findings(exact_p_scan(u, spec))
    assert findings(f_residue) == findings(exact_f_scan(u, spec))


@pytest.mark.parametrize(
    "curve, gen, bound, start",
    [
        # -G and 2G share x + y = 1/8 on the scaled model of the default curve
        ((Fraction(1, 16), Fraction(-1, 64)), (Fraction(1, 4), Fraction(1, 8)), 30, 2**10),
        # order-4 generator: a P-collision and the duplicate point 2G = -2G
        ((-2, 1), (0, 1), 2, 2**6),
    ],
)
def test_planted_findings_confirmed_at_small_primes(small_primes, caplog, curve, gen, bound, start):
    small_primes(start)
    c = Curve(*curve)
    u = UniquenessFunction(InjectionParams(1, 1, 2, 9), c)
    spec = OrbitSpec(c.point(*gen), bound)
    residue = p_injectivity_scan(u, spec)
    [part] = partitions(caplog, "P")
    assert part["runs"] == part["classes"] == 1
    assert residue.exit_code == 2
    assert findings(residue) == findings(exact_p_scan(u, spec))


def chosen_primes(caplog):
    [chosen] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("primes chosen")]
    return tuple(map(int, chosen.removeprefix("primes chosen: ").split(", ")))


# (curve a, b), generator, torsion points besides the identity, and bounds.
# Every bound stays in the walk's doubling phase, whose blocks end at
# 1, 2, 4, 8, ...: 0 walks nothing, 1 is G alone, 2 ends the first block
# and 3 cuts the second, 15 cuts [8, 16), 16 and 64 end a block, 17 and 65
# take one point of the next, and 151, 300 and 301 cut the blocks
# [128, 256) and [256, 512).  Each doubling block adds its stride to
# itself at its last source, so every walk past G takes the scalar branch.
ORBIT_WALKS = {
    "default curve": ((1, -1), (1, 1), (), (0, 1, 2, 3, 15, 16, 17, 64, 65, 151)),
    "2-torsion translate": ((-6, 40), (2, 6), ((-4, 0),), (3, 17, 65)),
    # 2G + 2G cancels, and from 4G = O on each stride is the identity, so
    # each block is a copy of the one before
    "order-4 generator": ((-2, 1), (0, 1), (), (3, 17, 300, 301)),
    # translating by the order-3 point 2G doubles at m = 2 mod 6 and
    # cancels at m = 4 mod 6
    "order-3 translate": ((0, 1), (2, 3), ((0, 1),), (17, 65)),
}


@pytest.mark.parametrize("start", [2**10, 2**31])
@pytest.mark.parametrize("walk", list(ORBIT_WALKS))
def test_lane_walk_matches_exact_orbit(small_primes, caplog, monkeypatch, params_default, walk, start):
    curve, gen, torsion, bounds = ORBIT_WALKS[walk]
    small_primes(start)
    c = Curve(*curve)
    u = UniquenessFunction(params_default, c)
    odd = []
    add_point = collisions._add_point

    def counted(*args):
        result = add_point(*args)
        odd.append(len(result[2]))
        return result

    monkeypatch.setattr(collisions, "_add_point", counted)
    for bound in bounds:
        caplog.clear()
        spec = OrbitSpec(c.point(*gen), bound, (INFINITY, *(c.point(*t) for t in torsion)) if torsion else ())
        labels, _, keys = collisions._orbit_p_keys(u, spec)
        p, q = chosen_primes(caplog)
        exact = list(orbit(spec))
        assert list(labels) == [label for label, _ in exact]
        assert len(keys) == len(exact)
        for key, (_, pt) in zip(keys.tolist(), exact):
            value = u.eval_P(pt)
            assert (key % p, key % q) == (fraction_mod(value, p), fraction_mod(value, q))
    assert sum(odd) > 0


# (curve a, b), generator and prime, with blocks of at most 4 points: the
# blocks [1, 2), [2, 4) and [4, 8) double the stride, and from 8 on each
# block adds the stride 4G to the one before.
BLOCK_WALKS = {
    # G has order 18 mod 13: 14G + 4G cancels at m = 18, and the block
    # after it adds 4G to a source at the identity
    "orbit wraps": ((1, -1), (1, 1), 13),
    # 4G = O: every stride from the third block on is the identity
    "stride at the identity": ((-2, 1), (0, 1), 101),
    # G has order 5 mod 11: the sources 9G, 14G and 19G of the blocks from
    # 12 on equal the stride 4G and double
    "doubling inside a block": ((1, -1), (1, 1), 11),
}


@pytest.mark.parametrize("walk", list(BLOCK_WALKS))
def test_block_walk_matches_scalar_walk(monkeypatch, walk):
    curve, gen, p = BLOCK_WALKS[walk]
    monkeypatch.setattr(collisions, "WALK_BLOCK", 4)
    c = Curve(*curve)
    cm = CurveModP(c, p)
    g = cm.reduce_point(c.point(*gen))
    multiples = [g]
    while len(multiples) < 5 * 4 + 3:
        multiples.append(cm.add(multiples[-1], g))
    for bound in (0, 1, 2, 3, 4, 5, 5 * 4 + 3):
        x, y, identities = collisions._walk(cm, g, bound)
        expected = multiples[:bound]
        assert identities == [m for m, pt in enumerate(expected, 1) if pt is None]
        assert list(zip(x.tolist(), y.tolist())) == [pt or (0, 0) for pt in expected]


def test_identity_skip_builds_no_large_multiple(small_primes, caplog, monkeypatch, ufunc248, gen248):
    # 543*G reduces to the identity mod 1033303.  G has infinite order, so
    # the prime is unsuitable, and its torsion order says so without 543*G.
    small_primes(1033304)
    scalar_mul = collisions.scalar_mul

    def small_only(m, pt):
        if abs(m) > MAX_TORSION_ORDER:
            raise AssertionError(f"exact {m}*G built to choose primes")
        return scalar_mul(m, pt)

    monkeypatch.setattr(collisions, "scalar_mul", small_only)
    labels, _, keys = collisions._orbit_p_keys(ufunc248, OrbitSpec(gen248, 550))
    messages = [r.getMessage() for r in caplog.records]
    assert "prime 1033303 skipped: 543*G reduces to the identity mod 1033303" in messages
    assert chosen_primes(caplog) < (1033303, 1033303)
    assert len(labels) == len(keys) == 1100


def test_torsion_identities_come_from_small_multiples(small_primes, caplog, monkeypatch, params_default):
    # the order-4 generator is the identity exactly at every fourth multiple
    small_primes(2**10)
    c = Curve(-2, 1)
    spec = OrbitSpec(c.point(0, 1), 500)
    multiples = []
    scalar_mul = collisions.scalar_mul

    def recorded(m, pt):
        multiples.append(m)
        return scalar_mul(m, pt)

    monkeypatch.setattr(collisions, "scalar_mul", recorded)
    labels, _, keys = collisions._orbit_p_keys(UniquenessFunction(params_default, c), spec)
    assert multiples and max(map(abs, multiples)) < 4
    assert len(labels) == len(keys) == 2 * 375
    assert [label for label in labels if label % 4 == 0] == []


def test_misaligned_labels_raise(monkeypatch, ufunc248, gen248):
    made = []

    class Misaligned(collisions._OrbitResidues):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
            if len(made) == 2:
                # the second prime drops the first label as if it were an identity
                self.labels = dataclasses.replace(self.labels, skipped=(0,))

    monkeypatch.setattr(collisions, "_OrbitResidues", Misaligned)
    with pytest.raises(RuntimeError, match="orbit labels mod"):
        p_injectivity_scan(ufunc248, OrbitSpec(gen248, 5))


def test_memory_ceiling_is_exact_per_partition(caplog, ufunc248, gen248):
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    spec = OrbitSpec(gen248, 20)
    pairs, row = 40 * 40, 40
    # 6,000 bytes take blocks of one row (1,000 bytes) and leave room for 555
    # keys, about a third of the pairs
    partitioned = f_injectivity_scan(ufunc248, spec, memory_ceiling=6000)
    counted = partitions(caplog, "f")
    assert len(counted) >= 3
    assert sum(part["keys"] for part in counted) == pairs
    unlimited = f_injectivity_scan(ufunc248, spec, memory_ceiling=None)
    assert canonical_json(partitioned.to_json_dict()) == canonical_json(unlimited.to_json_dict())

    caplog.clear()
    needed = BLOCK_BYTES_PER_KEY * row + PARTITION_BYTES_PER_KEY  # one row's block and one key
    with pytest.raises(MemoryCeilingError, match=f"needs at least {needed} bytes"):
        f_injectivity_scan(ufunc248, spec, memory_ceiling=needed - 1)
    assert partitions(caplog, "f") == []  # refused before any key was built


def test_pair_classes_match_exact_index():
    # w_i + w_j over w = 0..4: every sum but the extremes is taken by
    # several ordered pairs, and each class keeps its pairs in stream order
    labels = list("abcde")
    classes = collisions._pair_classes(
        "f-scan", labels, 61 * 59, list(range(5)), 1, lambda i, j: Fraction(i + j), memory_ceiling=None
    )
    stream = (((a, b), Fraction(i + j)) for i, a in enumerate(labels) for j, b in enumerate(labels))
    assert classes == collision_scan(stream).classes
    assert len(classes) == 7


def test_zagier_runs_confirmed_against_exact_index(small_primes, caplog):
    small_primes(2**6)  # primes 61 and 59: 82,369 pair keys on 61 values
    report = zagier_probe(15)
    assert "primes chosen: 61, 59" in [r.getMessage() for r in caplog.records]
    [part] = partitions(caplog, "zagier")
    assert part["runs"] > 0 and part["classes"] == 0
    rats = list(rationals_by_height(15))
    stream = (
        ((format_rational(r1), format_rational(r2)), zagier_eval(r1, r2, 7, 3))
        for r1 in rats
        for r2 in rats
    )
    exact = collision_scan(stream, config=report.config)
    assert canonical_json(report.to_json_dict()) == canonical_json(exact.to_json_dict())


def test_zagier_memory_ceiling_is_exact_per_partition(caplog):
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    row = len(list(rationals_by_height(10)))  # 127 rationals
    pairs = row * row
    # 100,000 bytes take blocks of seven rows (889 keys, 22,225 bytes) and
    # leave room for 8,641 keys, about half the pairs
    partitioned = zagier_probe(10, memory_ceiling=100_000)
    counted = partitions(caplog, "zagier")
    assert len(counted) >= 2
    assert sum(part["keys"] for part in counted) == pairs
    unlimited = zagier_probe(10, memory_ceiling=None)
    assert canonical_json(partitioned.to_json_dict()) == canonical_json(unlimited.to_json_dict())

    caplog.clear()
    needed = BLOCK_BYTES_PER_KEY * row + PARTITION_BYTES_PER_KEY  # one row's block and one key
    with pytest.raises(MemoryCeilingError, match=f"needs at least {needed} bytes"):
        zagier_probe(10, memory_ceiling=needed - 1)
    assert partitions(caplog, "zagier") == []


@pytest.mark.parametrize("scan", ["P", "f", "zagier"])
def test_empty_scan_is_one_empty_partition(caplog, ufunc248, gen248, scan):
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    if scan == "zagier":
        report = zagier_probe(0, memory_ceiling=-1)
    else:
        run = p_injectivity_scan if scan == "P" else f_injectivity_scan
        report = run(ufunc248, OrbitSpec(gen248, 0), memory_ceiling=-1)
    assert findings(report) == (0, [], [])
    assert partitions(caplog, scan) == [{"keys": 0, "runs": 0, "classes": 0}]


def test_crowded_key_range_is_refused(small_primes, caplog, ufunc248, gen248):
    small_primes(2**7)  # 144 f keys mod 127 * 113 = 14,351, counted in ranges of 4
    spec = OrbitSpec(gen248, 6)
    # blocks of one row (12 keys) leave room for two keys, and one range of
    # four key values holds more
    ceiling = 2 * PARTITION_BYTES_PER_KEY + BLOCK_BYTES_PER_KEY * 12
    message = (
        "f-scan: the key range [4292, 4296) holds 4 keys, over the 2 of one partition "
        "under the memory ceiling of 318"
    )
    with pytest.raises(MemoryCeilingError, match=re.escape(message)):
        f_injectivity_scan(ufunc248, spec, memory_ceiling=ceiling)
    assert partitions(caplog, "f") == []


def test_partition_plan_is_exact_and_greedy():
    modulus, n, row = 2**20 + 7, 5000, 50
    rng = np.random.default_rng(1)
    keys = rng.integers(0, modulus, n, dtype=np.uint64)
    keys[:300] = rng.integers(0, 2**8, 300)  # small values crowd the first range
    calls = []

    def key_block(lo, hi):
        calls.append((lo, hi))
        return keys[lo:hi]

    ceiling = 20_000
    step, edges, sizes = collisions._partition_plan("f-scan", n, row, modulus, key_block, ceiling)
    assert calls == [(lo, min(lo + step, n)) for lo in range(0, n, step)]  # one counting pass
    assert step % row == 0 and BLOCK_BYTES_PER_KEY * step <= ceiling // 4
    room = (ceiling - BLOCK_BYTES_PER_KEY * step) // PARTITION_BYTES_PER_KEY
    assert len(sizes) >= 3 and sum(sizes) == n and max(sizes) <= room
    assert edges[0] == 0 and edges[-1] == modulus and edges == sorted(set(edges))

    def held(lo, hi):
        return int(np.count_nonzero((keys >= lo) & (keys < hi)))

    assert sizes == [held(lo, hi) for lo, hi in zip(edges, edges[1:])]
    width = 2 ** ((modulus - 1).bit_length() - collisions.KEY_RANGE_BITS)
    for size, edge in zip(sizes, edges[1:-1]):
        # no partition but the last could take the next range too
        assert size + held(edge, edge + width) > room

    calls.clear()
    plan = collisions._partition_plan("f-scan", n, row, modulus, key_block, DEFAULT_MEMORY_CEILING)
    assert plan == (n, [0, modulus], [n]) and calls == []


def test_one_partition_fill_equals_the_split_fills():
    modulus, n, row = 2**20 + 7, 5000, 50
    keys = np.random.default_rng(2).integers(0, modulus, n, dtype=np.uint64)
    key_block = lambda lo, hi: keys[lo:hi]
    step, edges, sizes = collisions._partition_plan("f-scan", n, row, modulus, key_block, 20_000)
    assert len(sizes) >= 3
    split = [
        collisions._partition_keys(n, step, key_block, lo, hi, size, modulus)
        for lo, hi, size in zip(edges, edges[1:], sizes)
    ]
    whole = collisions._partition_keys(n, step, key_block, 0, modulus, n, modulus)
    assert np.array_equal(whole, keys)
    whole.sort()
    assert np.array_equal(np.sort(np.concatenate(split)), whole)


small_int = st.integers(-4, 4)
nonzero = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])


@settings(max_examples=200, deadline=None)
@given(
    a=small_int,
    x0=st.integers(-3, 3),
    y0=st.integers(-3, 3),
    with_torsion=st.booleans(),
    bound=st.integers(1, 4),
    alpha=nonzero,
    beta=nonzero,
    gamma=st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(3, 2)]),
    # 4000 and 1000 bytes split the f-scan's keys from k = 11 and k = 6 orbit points on
    ceiling=st.sampled_from([None, 4000, 1000]),
    start=st.integers(2**6, 2**16),
)
@example(a=-2, x0=0, y0=1, with_torsion=False, bound=2, alpha=Fraction(1), beta=Fraction(1),
         gamma=Fraction(2), ceiling=None, start=2**6)  # order-4 generator: planted findings
def test_residue_matches_exact(a, x0, y0, with_torsion, bound, alpha, beta, gamma, ceiling, start):
    b = y0 * y0 - x0**3 - a * x0  # puts (x0, y0) on the curve
    assume(4 * a**3 + 27 * b**2 != 0)
    c = Curve(a, b)
    torsion = ()
    if with_torsion:
        # a rational 2-torsion point (r, 0) with a small integer root r
        roots = [r for r in range(-6, 7) if r**3 + a * r + b == 0]
        assume(roots)
        torsion = (INFINITY, c.point(roots[0], 0))
    spec = OrbitSpec(c.point(x0, y0), bound, torsion)
    u = UniquenessFunction(InjectionParams(alpha, beta, gamma, 9), c)

    def outcome(scan, **kwargs):
        try:
            return findings(scan(u, spec, **kwargs))
        except ValueError as exc:
            return str(exc)

    with mock.patch.object(collisions, "PRIME_SEARCH_START", start):
        for scan, oracle in ((p_injectivity_scan, exact_p_scan), (f_injectivity_scan, exact_f_scan)):
            assert outcome(scan, memory_ceiling=ceiling) == outcome(oracle)
