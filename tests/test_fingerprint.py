"""The residue engine at small primes, where its branches really fire, and
its exact partition sizes.

At the default primes below 2**31 (keys mod N = p*q near 2**62) no
fingerprint coincidence ever happens, so these tests lower
`collisions.PRIME_SEARCH_START` (read at call time) and check each branch
through the per-partition log records, and every report's findings against
the tests' exact oracle (`exact_oracle`), which carries no scan config.
Where candidates occur, the tests also check that each scan hands them, in
stream order, to `collision_scan`, the one exact index.  A generator of
finite order never reaches the engine: its scans are checked against the
oracle with the prime search, the walk and `scalar_mul` made to raise.
"""

import json
import logging
import os
import random
import re
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ecinj import collisions
from ecinj.collisions import (
    PAIR_BYTES_PER_KEY,
    collision_scan,
    f_injectivity_scan,
    p_injectivity_scan,
    zagier_probe,
)
from ecinj.curve import INFINITY, Curve
from ecinj.injection import InjectionParams, UniquenessFunction
from ecinj.pairing import zagier_eval
from ecinj.modular import CurveModP, UnsuitablePrimeError, fraction_mod
from ecinj.points import MAX_TORSION_ORDER, OrbitSpec, orbit, rationals_by_height, torsion_cycle
from ecinj.rational import format_rational
from ecinj.reporting import canonical_json
from exact_oracle import exact_f_scan, exact_p_scan

PARTITION = re.compile(
    r"(?P<scan>P|f|zagier)-scan partition \d+/\d+: (?P<keys>\d+) keys, (?P<runs>\d+) candidate runs, "
    r"(?P<classes>\d+) confirmed classes, (?P<bytes>\d+) bytes"
)


def partitions(caplog, scan):
    """The counts of every `scan` partition record, in order.  Each record's
    bytes must be those its engine holds for its keys: in the P-scan 4 a
    key, the residues mod p sorted in place, and the mask of one chunk of
    the search for repeated residues, PAIR_BYTES_PER_KEY a key in the pair
    scans."""
    found = []
    for record in caplog.records:
        match = PARTITION.fullmatch(record.getMessage())
        if match and match["scan"] == scan:
            keys = int(match["keys"])
            held = 4 * keys + min(keys, collisions.CHUNK_KEYS) if scan == "P" else PAIR_BYTES_PER_KEY * keys
            assert int(match["bytes"]) == held
            found.append({k: int(match[k]) for k in ("keys", "runs", "classes")})
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


@pytest.fixture
def confirmed(monkeypatch):
    """The keys of every stream the scans hand to `collision_scan`, one
    list a call."""
    streams = []

    def counted(stream, **kwargs):
        items = list(stream)
        streams.append([key for key, _ in items])
        return collision_scan(items, **kwargs)

    monkeypatch.setattr(collisions, "collision_scan", counted)
    return streams


def stages(caplog):
    """(prime, candidates, runs) of every record of the P-scan's stages, in
    order: the walked prime's, then each further prime's, where the
    candidates left and their runs are those that share their residues at
    every prime so far."""
    stage = re.compile(r"P-scan mod (\d+): (\d+) candidates in (\d+) runs")
    return [tuple(map(int, m.groups())) for r in caplog.records if (m := stage.fullmatch(r.getMessage()))]


def residue_keys(u, spec, primes):
    """The P residues of the orbit's items at every one of `primes`, one
    tuple an item in item order, from their exact values; an item whose
    value has no residue at one of them gets a key of its own."""
    keys = []
    for i, (_, pt) in enumerate(orbit(spec)):
        value = u.eval_P(pt)
        try:
            keys.append(tuple(fraction_mod(value, r) for r in primes))
        except UnsuitablePrimeError:
            keys.append(("no residue", i))
    return keys


def orbit_keys(u, spec, kept=(), *also_invert):
    """(N, keys, label): the uint64 keys mod N = p*q of the orbit's items at
    the primes the scans choose, which the f-scan builds for its pairs and
    the P-scan never does, and the items' labels."""
    k, blocks, _, _, label = collisions._orbit_items(u, spec, kept, *also_invert)
    modulus, keys = collisions._fingerprints(lambda p: collisions._filled(k, blocks(p)))
    return modulus, keys, label


def repeated(keys):
    """The positions of the keys that occur more than once, in order."""
    count = Counter(keys)
    return [i for i, key in enumerate(keys) if count[key] >= 2]


def pair_keys(keys, n, gamma, modulus):
    """(P_i**n + gamma*P_j**n) mod N of every ordered pair, row-major, from
    the items' keys in plain integers."""
    w = [pow(key, n, modulus) for key in keys]
    g = fraction_mod(gamma, modulus)
    return [(a + g * b) % modulus for a in w for b in w]


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


def test_buckets_surviving_every_prime_split_exactly(small_primes, caplog, confirmed, ufunc248, gen248):
    small_primes(2**7)  # primes 127 and 113
    spec = OrbitSpec(gen248, 6)
    residue = f_injectivity_scan(ufunc248, spec)
    [part] = partitions(caplog, "f")
    assert part["runs"] > 0 and part["classes"] == 0
    # the P precondition's candidates, then every candidate pair's flat
    # index, each in stream order, go through the one exact index
    n, gamma = ufunc248.params.n, ufunc248.params.gamma
    modulus, keys, label = orbit_keys(ufunc248, spec, (), gamma)
    pairs = repeated(pair_keys(keys.tolist(), n, gamma, modulus))
    assert confirmed == [[label(i) for i in repeated(keys.tolist())], pairs]
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


# (curve a, b), generator, torsion points besides the identity, bound and
# prime start of a P-scan at primes so small that most of its orbit is a
# candidate mod p, its stages (`stages`: the walked prime p, then each
# further prime, with the candidates and runs left) and the runs that
# survive them all
CROWDED_P_SCANS = {
    "default curve": ((1, -1), (1, 1), (), 60, 2**7, [(127, 114, 48), (113, 0, 0)], 0),
    # every run mod N = 47*43 is a false match, and 23 splits them all;
    # each prime between holds a candidate at the identity
    "false matches mod N": ((-25, 0), (-4, 6), ((0, 0),), 20, 2**6, [(47, 72, 25), (43, 10, 5), (23, 0, 0)], 0),
    # one of the runs mod N = 127*109 is the planted class of G + T and -G,
    # and the only one left at 107 and 103
    "planted class": (
        (-6, 40), (2, 6), ((-4, 0),), 60, 2**7, [(127, 224, 69), (109, 9, 4), (107, 2, 1), (103, 2, 1)], 1,
    ),
}


@pytest.mark.parametrize("scan", list(CROWDED_P_SCANS))
def test_crowded_mod_p_stage_keeps_the_runs_mod_n(small_primes, caplog, monkeypatch, confirmed, params_default, scan):
    curve, gen, torsion, bound, start, counts, runs = CROWDED_P_SCANS[scan]
    small_primes(start)
    spec = orbit_spec(curve, gen, torsion, bound)
    u = UniquenessFunction(params_default, spec.generator.curve)
    report = p_injectivity_scan(u, spec)
    [part] = partitions(caplog, "P")
    assert (stages(caplog), part["runs"]) == (counts, runs)
    assert 2 * counts[0][1] > part["keys"]
    primes = chosen_primes(caplog)
    assert primes == tuple(prime for prime, _, _ in counts)
    # the labels handed to the one exact index are those whose residues
    # repeat at every chosen prime, in stream order, as if every item's
    # residues at them all were searched: the mod-p stage keeps every run
    # mod N = p*q, and each further prime keeps every run at the primes
    # before it whose residues there are equal
    label = collisions._orbit_label(collisions._distinct_translates(spec)[0])
    assert confirmed == [[label(i) for i in repeated(residue_keys(u, spec, primes))]]
    assert findings(report) == findings(exact_p_scan(u, spec))
    if scan == "false matches mod N":
        # the f-scan's precondition is this P-scan, so its false runs mod N
        # build no exact multiple there either: the pair scan asks for the
        # first one
        built, started = [], []
        scalar_mul, pair_classes = collisions.scalar_mul, collisions._pair_classes

        def recorded(m, pt):
            if not started:
                built.append(m)
            return scalar_mul(m, pt)

        def pair_scan(*args):
            started.append(True)
            return pair_classes(*args)

        monkeypatch.setattr(collisions, "scalar_mul", recorded)
        monkeypatch.setattr(collisions, "_pair_classes", pair_scan)
        assert f_injectivity_scan(u, spec).exit_code == 0
        assert started and built == []


def test_point_reducing_to_identity_skips_prime(small_primes, caplog, ufunc248, gen248):
    small_primes(444)  # 443 divides the denominator of 7G
    spec = OrbitSpec(gen248, 7)
    residue = p_injectivity_scan(ufunc248, spec)
    messages = [r.getMessage() for r in caplog.records]
    assert "prime 443 skipped: 7*G reduces to the identity mod 443" in messages
    # no residue repeats mod 439, so no further prime is chosen
    assert "primes chosen: 439" in messages
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
    # one prime choice for the P-scan, whose residues repeat nowhere, so it
    # chooses no further prime, then the same one for the f-scan's P
    # precondition, which is that P-scan, then one for the f-scan's keys
    p_chosen = "primes chosen: 241" if "P" in skipped_by else "primes chosen: 251"
    assert chosen == [
        p_chosen,
        p_chosen,
        "primes chosen: 241, 239" if "f" in skipped_by else "primes chosen: 251, 241",
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
def test_planted_findings_confirmed_at_small_primes(small_primes, caplog, confirmed, curve, gen, bound, start):
    small_primes(start)
    c = Curve(*curve)
    u = UniquenessFunction(InjectionParams(1, 1, 2, 9), c)
    spec = OrbitSpec(c.point(*gen), bound)
    residue = p_injectivity_scan(u, spec)
    assert residue.exit_code == 2
    assert findings(residue) == findings(exact_p_scan(u, spec))
    cycle = torsion_cycle(spec.generator)
    if cycle is None:
        [part] = partitions(caplog, "P")
        assert part["runs"] == part["classes"] == 1
        # the candidate labels, in stream order, go through the one exact index
        _, keys, label = orbit_keys(u, spec)
        assert confirmed == [[label(i) for i in repeated(keys.tolist())]]
    else:
        # a finite orbit chooses no prime and fills no partition: the first
        # label of each of its points goes through the one exact index
        messages = [r.getMessage() for r in caplog.records]
        assert partitions(caplog, "P") == []
        assert not any(m.startswith("primes chosen") for m in messages)
        _, kept = collisions._finite_orbit(u, spec, cycle)
        assert confirmed == [[label for label, _ in kept]]
        assert len(residue.classes) == len(residue.duplicate_points) == 1


def chosen_primes(caplog):
    """The primes of the one `primes chosen` record."""
    [chosen] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("primes chosen")]
    return tuple(map(int, chosen.removeprefix("primes chosen: ").split(", ")))


# (curve a, b), generator, torsion points besides the identity, bounds, and
# for a generator of finite order the distinct points of its orbit past the
# order.  A generator of infinite order is walked, and every bound stays in
# the walk's doubling phase, whose blocks end at 1, 2, 4, 8, ...: 0 walks
# nothing, 1 is G alone, 2 ends the first block and 3 cuts the second, 15
# cuts [8, 16), 16 and 64 end a block, 17 and 65 take one point of the
# next, and 151 cuts the block [128, 256).  Each doubling block adds its
# stride to itself at its last source, so every walk past G takes the
# scalar branch.  A generator of finite order is never walked, whatever the
# prime start: its orbit is read from its exact cycle (`_finite_orbit`).
ORBIT_WALKS = {
    "default curve": ((1, -1), (1, 1), (), (0, 1, 2, 3, 15, 16, 17, 64, 65, 151), None),
    "2-torsion translate": ((-6, 40), (2, 6), ((-4, 0),), (3, 17, 65), None),
    # 4G = O: every fourth label carries no point
    "order-4 generator": ((-2, 1), (0, 1), (), (3, 17, 300, 301), 3),
    # translating by the order-3 point 2G of the order-6 G gives the
    # identity at the labels (m, 1) with m = 4 mod 6 and (-m, 1) with
    # m = 2 mod 6, and each m*G + T is (m + 2)*G
    "order-3 translate": ((0, 1), (2, 3), ((0, 1),), (17, 65), 5),
}


@pytest.mark.parametrize("start", [2**10, 2**31])
@pytest.mark.parametrize("walk", list(ORBIT_WALKS))
def test_lane_walk_matches_exact_orbit(small_primes, caplog, monkeypatch, params_default, walk, start):
    curve, gen, torsion, bounds, distinct = ORBIT_WALKS[walk]
    small_primes(start)
    c = Curve(*curve)
    u = UniquenessFunction(params_default, c)
    if distinct is not None:
        block_engine(monkeypatch)
        for bound in bounds:
            check_finite_orbit(u, orbit_spec(curve, gen, torsion, bound), distinct)
        return
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
        kept, _ = collisions._distinct_translates(spec)
        _, keys, label = orbit_keys(u, spec, kept)
        p, q = chosen_primes(caplog)
        exact = list(orbit(spec))
        assert [label(i) for i in range(len(keys))] == [name for name, _ in exact]
        assert len(keys) == len(exact)
        for key, (_, pt) in zip(keys.tolist(), exact):
            value = u.eval_P(pt)
            assert (key % p, key % q) == (fraction_mod(value, p), fraction_mod(value, q))
    assert sum(odd) > 0


# (curve a, b), generator, prime and the least m with m*G = O mod p, with
# blocks of at most 4 points: the blocks [1, 2), [2, 4) and [4, 8) double
# the stride, and from 8 on each block adds the stride 4G to the one
# before.  The walk raises at that m and matches the scalar walk below it.
BLOCK_WALKS = {
    # G has order 18 mod 13: 14G + 4G cancels at m = 18, in a fixed-stride
    # block
    "orbit wraps": ((1, -1), (1, 1), 13, 18),
    # G has order 4: 2G + 2G cancels at m = 4, before the stride 4G, which
    # would be the identity, is formed
    "stride at the identity": ((-2, 1), (0, 1), 101, 4),
    # G has order 5 mod 11: the block [2, 4) doubles its stride 2G at its
    # last source, and 4G + G cancels at m = 5 in the block [4, 8)
    "doubling inside a block": ((1, -1), (1, 1), 11, 5),
}


@pytest.mark.parametrize("walk", list(BLOCK_WALKS))
def test_block_walk_matches_scalar_walk(monkeypatch, walk):
    curve, gen, p, order = BLOCK_WALKS[walk]
    monkeypatch.setattr(collisions, "WALK_BLOCK", 4)
    c = Curve(*curve)
    cm = CurveModP(c, p)
    g = cm.reduce_point(c.point(*gen))
    multiples = [g]
    while len(multiples) < order - 1:
        multiples.append(cm.add(multiples[-1], g))
    assert cm.add(multiples[-1], g) is None
    for bound in sorted({0, 1, 2, 3, 4, 5, order - 1, order, 5 * 4 + 3}):
        if bound >= order:
            with pytest.raises(UnsuitablePrimeError, match=f"^{order}\\*G reduces to the identity mod {p}$"):
                walked(cm, g, bound)
            continue
        assert walked(cm, g, bound) == multiples[:bound]


def walked(cm, g, bound):
    """The points of `_walk`'s blocks, joined in order."""
    return [pt for _, x, y in collisions._walk(cm, g, bound) for pt in zip(x.tolist(), y.tolist())]


def test_walk_blocks_tile_the_bound(monkeypatch, gen248):
    # with blocks of at most 4 points the source and the stride double from
    # G, so blocks start at 0, 1 and 2; from 4 on each block is the one
    # before it plus the stride 4G, and the last is cut at the bound
    monkeypatch.setattr(collisions, "WALK_BLOCK", 4)
    cm = CurveModP(gen248.curve, 2**31 - 1)
    g = cm.reduce_point(gen248)
    multiples = [g]
    while len(multiples) < 23:
        multiples.append(cm.add(multiples[-1], g))
    for bound in range(24):
        starts = [lo for lo in (0, 1, 2, *range(4, 24, 4)) if lo < bound]
        blocks = list(collisions._walk(cm, g, bound))
        assert [lo for lo, _, _ in blocks] == starts
        assert [len(x) for _, x, _ in blocks] == [b - a for a, b in zip(starts, starts[1:] + [bound])]
        assert all(len(x) == len(y) for _, x, y in blocks)
        assert walked(cm, g, bound) == multiples[:bound]
    # bound 3 cuts the doubling prefix; bound 23 runs past two blocks of
    # the fixed stride and cuts the third
    assert [(lo, len(x)) for lo, x, _ in collisions._walk(cm, g, 3)] == [(0, 1), (1, 1), (2, 1)]
    assert [(lo, len(x)) for lo, x, _ in collisions._walk(cm, g, 23)] == [
        (0, 1), (1, 1), (2, 2), (4, 4), (8, 4), (12, 4), (16, 4), (20, 3)
    ]


def test_walk_first_identity_ends_the_prime(monkeypatch):
    # mod 139, 36*G is the identity and 18*G the 2-torsion point T: the
    # translate 18*G + T cancels in the block [16, 20), before the walk
    # reaches 36*G, and that first identity ends the prime
    monkeypatch.setattr(collisions, "WALK_BLOCK", 4)
    c = Curve(-6, 40)
    translate = r"^orbit point at label \(18, 1\) reduces to the identity mod 139$"
    for bound in (40, 35):
        spec = OrbitSpec(c.point(2, 6), bound, (INFINITY, c.point(-4, 0)))
        with pytest.raises(UnsuitablePrimeError, match=translate):
            list(collisions._residue_blocks(spec, (0, 1), CurveModP(c, 139), 1, 1))
    # without the translate the walk meets its own identity at 36*G
    spec = OrbitSpec(c.point(2, 6), 40)
    with pytest.raises(UnsuitablePrimeError, match=r"^36\*G reduces to the identity mod 139$"):
        list(collisions._residue_blocks(spec, (), CurveModP(c, 139), 1, 1))


def test_orbit_keys_hold_16_bytes_a_point(ufunc248, gen248):
    # the f-scan's keys: each prime's P residues are 4 bytes a point,
    # streamed in from the walk one block at a time, and the keys 8: 16
    # bytes a point at their peak, plus the walk's blocks and the CRT's
    # chunks, whatever the bound
    spec = OrbitSpec(gen248, 2**17)
    orbit_keys(ufunc248, OrbitSpec(gen248, 3))  # imports and caches
    tracemalloc.start()
    try:
        _, keys, _ = orbit_keys(ufunc248, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    points = 2 * spec.bound
    assert len(keys) == points
    assert peak < 18 * points + 64 * collisions.WALK_BLOCK


def test_p_scan_holds_4_bytes_a_point(caplog, ufunc248, gen248):
    # the P-scan's residues mod p, sorted in place, are 4 bytes a point,
    # beside the walk's buffers and one chunk's mask; the table of the
    # candidate pass and its candidates come after they are freed, and the
    # further primes read only the candidates' residues.  The walk holds
    # about 50 bytes for each point of its largest block: its source (16),
    # its kernel's work buffers (25), which the residue stage also uses
    # between kernel calls, and the residue stage's block of uint32
    # residues (8)
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    spec = OrbitSpec(gen248, 2**17)
    p_injectivity_scan(ufunc248, OrbitSpec(gen248, 3))  # imports and caches
    caplog.clear()
    tracemalloc.start()
    try:
        report = p_injectivity_scan(ufunc248, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    points = 2 * spec.bound
    assert report.total_scanned == points
    (_, candidates, runs), *_ = stages(caplog)
    table = 2 * collisions.PREFILTER_ENTRIES_PER_RUN * runs
    assert peak < 4 * points + table + 32 * candidates + 75 * collisions._walk_block(spec.bound)


# (curve a, b), generator, torsion points besides the identity, bound and a
# prime at which the whole orbit is walked, so the ladder's residues at any
# positions can be read against the walk's
LADDER_WALKS = {
    "default curve": ((1, -1), (1, 1), (), 500, 2**31 - 1),
    "2-torsion translate": ((-6, 40), (2, 6), ((-4, 0),), 300, 2**31 - 1),
    "translates, O not first": ((-25, 0), (-4, 6), ((0, 0), (5, 0)), 200, 2**31 - 19),
    # G has order 36 mod 139 and 18G is the 2-torsion point, so M = 17 is
    # the largest walkable bound
    "tiny prime": ((-6, 40), (2, 6), ((-4, 0),), 17, 139),
}


@pytest.mark.parametrize("walk", list(LADDER_WALKS))
def test_ladder_residues_match_the_walk(params_default, walk):
    curve, gen, torsion, bound, p = LADDER_WALKS[walk]
    c = Curve(*curve)
    if torsion and walk == "translates, O not first":
        spec = OrbitSpec(c.point(*gen), bound, (*(c.point(*t) for t in torsion), INFINITY))
    else:
        spec = orbit_spec(curve, gen, torsion, bound)
    u = UniquenessFunction(params_default, c)
    kept, _ = collisions._distinct_translates(spec)
    k, blocks, residues, _, _ = collisions._orbit_items(u, spec, kept)
    walked = collisions._filled(k, blocks(p))
    rng = random.Random(bound)
    for size in (1, 2, 37, k):
        at = np.array(sorted({0, k - 1, *rng.sample(range(k), size)}), dtype=np.int64)
        ladder = residues(p, at)
        assert ladder.dtype == "uint32"
        assert ladder.tolist() == walked[at].tolist()


def repeated_addition(cm, spec, ar, br, m, k):
    """The P residue mod p of m*G + T_k by repeated addition mod p, or None
    at the identity."""
    g, pt = cm.reduce_point(spec.generator), None
    for _ in range(abs(m)):
        pt = cm.add(pt, g)
    if m < 0 and pt is not None:
        pt = (pt[0], -pt[1] % cm.p)
    if spec.torsion:
        pt = cm.add(pt, cm.reduce_point(spec.torsion[k]))
    return None if pt is None else (ar * pt[0] + br * pt[1]) % cm.p


# (curve a, b), generator, torsion points besides the identity, bound and a
# tiny prime past G's order d mod p, so the ladder meets the identity: at
# m = d and its multiples (or a translate cancels there), at a partial sum
# that cancels and is then added to again, and at doublings
LADDER_IDENTITIES = {
    # d = 18 mod 13: m = 46 = 14 + 32 doubles 14G = 32G at bit 5, m = 50
    # cancels 2G + 16G at bit 4 and then takes 32G alone, and 18, 36 and
    # 54 end at the identity
    "default curve": ((1, -1), (1, 1), (), 60, 13),
    # d = 36 mod 139 and 18G = T: +-18G + T cancel, +-36G is the identity
    # and +-36G + T is T itself
    "2-torsion translate": ((-6, 40), (2, 6), ((-4, 0),), 40, 139),
}


@pytest.mark.parametrize("case", list(LADDER_IDENTITIES))
def test_ladder_at_tiny_primes_matches_repeated_addition(monkeypatch, params_default, case):
    curve, gen, torsion, bound, p = LADDER_IDENTITIES[case]
    spec = orbit_spec(curve, gen, torsion, bound)
    u = UniquenessFunction(params_default, spec.generator.curve)
    kept, _ = collisions._distinct_translates(spec)
    k, _, residues, _, label = collisions._orbit_items(u, spec, kept)
    cm = CurveModP(spec.generator.curve, p)
    ar, br = fraction_mod(u.params.alpha, p), fraction_mod(u.params.beta, p)
    expected = [repeated_addition(cm, spec, ar, br, *(label(i) if torsion else (label(i), 0))) for i in range(k)]
    odd = []
    add_point = collisions._add_point

    def counted(*args):
        result = add_point(*args)
        odd.append(len(result[2]))
        return result

    monkeypatch.setattr(collisions, "_add_point", counted)
    # a candidate at the identity makes p unsuitable, and the first in
    # stream order is named
    at_identity = [i for i, r in enumerate(expected) if r is None]
    assert len(at_identity) >= 4
    message = f"^candidate at label {re.escape(str(label(at_identity[0])))} reduces to the identity mod {p}$"
    with pytest.raises(UnsuitablePrimeError, match=message):
        residues(p, np.arange(k))
    with pytest.raises(UnsuitablePrimeError, match=message):
        residues(p, np.array(at_identity[:1] + at_identity[-1:]))
    rest = [i for i, r in enumerate(expected) if r is not None]
    odd.clear()
    assert residues(p, np.array(rest)).tolist() == [expected[i] for i in rest]
    assert sum(odd) > 0


def test_refuted_run_builds_no_exact_point(small_primes, caplog, monkeypatch, params_default):
    # walked mod 5897, the 8,000 items of M = 2000 leave 5,968 candidates;
    # 5881 and 5879 each hold a candidate at the identity, and at 5869 two
    # runs are left, the planted class of G + T and -G and the false run
    # of (-538, 0) and (-1953, 0), which 5867 splits.  Only the labels of
    # the oracle's class (test_crowded_mod_p_stage_keeps_the_runs_mod_n,
    # "planted class") build exact points: the exact point at m = 1953
    # would take about a minute.  Unequal residues at a prime prove unequal
    # values, so the split runs hold no class, and the class is all there
    # is at M = 2000.
    small_primes(5899)
    c = Curve(-6, 40)
    spec = OrbitSpec(c.point(2, 6), 2000, (INFINITY, c.point(-4, 0)))
    u = UniquenessFunction(params_default, c)
    built = []
    scalar_mul = collisions.scalar_mul

    def oracle_labels_only(m, pt):
        built.append(m)
        if abs(m) != 1:
            raise AssertionError(f"exact {m}*G built for a refuted run")
        return scalar_mul(m, pt)

    monkeypatch.setattr(collisions, "scalar_mul", oracle_labels_only)
    report = p_injectivity_scan(u, spec)
    assert stages(caplog) == [
        (5897, 5968, 1965), (5869, 4, 2), (5867, 2, 1), (5861, 2, 1),
    ]
    messages = [r.getMessage() for r in caplog.records]
    assert "prime 5881 skipped: candidate at label (730, 1) reduces to the identity mod 5881" in messages
    assert built == [1, -1]
    oracle = exact_p_scan(u, OrbitSpec(spec.generator, 60, spec.torsion))
    assert [c.keys for c in report.classes] == [c.keys for c in oracle.classes] == [[(1, 1), (-1, 0)]]
    assert [c.value for c in report.classes] == [c.value for c in oracle.classes]


def test_identity_skip_builds_no_large_multiple(small_primes, caplog, monkeypatch, ufunc248, gen248):
    # 543*G reduces to the identity mod 1033303.  G has infinite order, so
    # the prime is unsuitable, and no exact multiple is built to say so.
    small_primes(1033304)
    scalar_mul = collisions.scalar_mul

    def small_only(m, pt):
        if abs(m) > MAX_TORSION_ORDER:
            raise AssertionError(f"exact {m}*G built to choose primes")
        return scalar_mul(m, pt)

    monkeypatch.setattr(collisions, "scalar_mul", small_only)
    _, keys, _ = orbit_keys(ufunc248, OrbitSpec(gen248, 550))
    messages = [r.getMessage() for r in caplog.records]
    assert "prime 1033303 skipped: 543*G reduces to the identity mod 1033303" in messages
    assert chosen_primes(caplog) < (1033303, 1033303)
    assert len(keys) == 1100


# (curve a, b), generator of finite order, torsion points besides the
# identity.  Each order comes alone and with translates, among them one
# inside G's cycle, whose table entries r*G + T and (r + j)*G are one point.
FINITE_SPECS = {
    "order 2": ((-1, 0), (0, 0), ()),
    "order 2, G and the other 2-torsion": ((-1, 0), (0, 0), ((0, 0), (1, 0))),
    "order 3": ((0, 1), (0, 1), ()),
    # (-1, 0) is outside G's cycle, (0, -1) = 2G inside it
    "order 3, translates": ((0, 1), (0, 1), ((-1, 0), (0, -1))),
    "order 4": ((-2, 1), (0, 1), ()),
    "order 4, 2G": ((-2, 1), (0, 1), ((1, 0),)),
    # y^2 = (x - 15)(x - 6)(x + 21): 2G = (15, 0), and (6, 0) is outside G's cycle
    "order 4, translates": ((-351, 1890), (33, 162), ((15, 0), (6, 0))),
    "order 6": ((0, 1), (2, 3), ()),
    # 2G = (0, 1) and 3G = (-1, 0)
    "order 6, translates": ((0, 1), (2, 3), ((0, 1), (-1, 0))),
}


def orbit_spec(curve, gen, torsion, bound):
    """The orbit spec of (curve a, b), a generator and the torsion points
    besides the identity."""
    c = Curve(*curve)
    return OrbitSpec(c.point(*gen), bound, (INFINITY, *(c.point(*t) for t in torsion)) if torsion else ())


def block_engine(monkeypatch):
    """Makes any prime search, walk mod p or exact scalar multiple raise."""

    def unused(*args):
        raise AssertionError("a finite-order generator reached the fingerprint engine")

    for name in ("_fingerprints", "_walk", "scalar_mul"):
        monkeypatch.setattr(collisions, name, unused)


@pytest.fixture
def no_engine(monkeypatch):
    block_engine(monkeypatch)


def test_torsion_identities_come_from_small_multiples(no_engine, params_default):
    # a generator of finite order d is scanned exactly from its d*width
    # points: both scans equal the exact oracle below, at and past d, and no
    # prime is chosen, no orbit walked and no exact multiple built
    orders = set()
    for name, (curve, gen, torsion) in FINITE_SPECS.items():
        c = Curve(*curve)
        d = len(torsion_cycle(c.point(*gen)))
        orders.add(d)
        u = UniquenessFunction(params_default, c)
        for bound in sorted({0, 1, 2, d - 1, d, 3 * d + 1, 300}):
            spec = orbit_spec(curve, gen, torsion, bound)
            for scan, oracle in ((p_injectivity_scan, exact_p_scan), (f_injectivity_scan, exact_f_scan)):
                assert outcome(scan, u, spec) == outcome(oracle, u, spec), (name, bound, scan.__name__)
    assert orders == {2, 3, 4, 6}


def outcome(scan, u, spec):
    """A scan's findings, or the message of the ValueError it raises."""
    try:
        return findings(scan(u, spec))
    except ValueError as exc:
        return str(exc)


def check_finite_orbit(u, spec, distinct):
    """`_finite_orbit` groups the labels of the exact orbit() of a G of
    finite order by point, `distinct` points in all, and keeps the first
    label of each with its P value, in stream order."""
    groups, kept = collisions._finite_orbit(u, spec, torsion_cycle(spec.generator))
    by_point = {}
    for label, pt in orbit(spec):
        by_point.setdefault((pt.x, pt.y), (pt, []))[1].append(label)
    assert len(by_point) == distinct
    assert kept == [(labels[0], u.eval_P(pt)) for pt, labels in by_point.values()]
    expected = [labels for _, labels in by_point.values() if len(labels) >= 2]
    assert groups == sorted(expected, key=lambda g: str(g[0]))


def test_finite_orbit_logs_one_line(no_engine, caplog, params_default):
    # in place of the primes, orbit and partition lines: the order, the
    # labels and the distinct points.  At M = 50 the order-4 generator's
    # 100 labels lose the 24 with m = 0 mod 4, and keep G, 2G and 3G.
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    spec = orbit_spec(*FINITE_SPECS["order 4"], 50)
    p_injectivity_scan(UniquenessFunction(params_default, spec.generator.curve), spec)
    assert [r.getMessage() for r in caplog.records] == ["finite orbit: G of order 4, 76 labels on 3 points"]


def test_repeated_torsion_point_splits_by_point(confirmed, params_default):
    # G has infinite order and the torsion list names T twice: the labels
    # (m, 1) and (m, 2) carry one point, and no other two labels do, so the
    # duplicate groups come from the torsion list.  Only the translate at
    # index 1 is walked, and the one exact index sees just the planted
    # P-collision of G + T and -G
    c = Curve(-6, 40)
    t = c.point(-4, 0)
    spec = OrbitSpec(c.point(2, 6), 10, (INFINITY, t, t))
    u = UniquenessFunction(params_default, c)
    report = p_injectivity_scan(u, spec)
    signs = [s for m in range(1, 11) for s in (m, -m)]
    assert report.duplicate_points == sorted(([(s, 1), (s, 2)] for s in signs), key=lambda g: str(g[0]))
    assert confirmed == [[(1, 1), (-1, 0)]]
    assert [c.keys for c in report.classes] == [[(1, 1), (-1, 0)]]
    assert findings(report) == findings(exact_p_scan(u, spec))
    with pytest.raises(ValueError, match=re.escape(collisions.P_NOT_INJECTIVE)):
        f_injectivity_scan(u, spec)
    # at M = 0 there is no label, so no duplicate point, and the f-scan passes
    empty = OrbitSpec(spec.generator, 0, spec.torsion)
    for scan, oracle in ((p_injectivity_scan, exact_p_scan), (f_injectivity_scan, exact_f_scan)):
        assert findings(scan(u, empty)) == findings(oracle(u, empty)) == (0, [], [])


def test_repeated_torsion_builds_only_candidate_points(monkeypatch, params_default):
    # at M = 200 the 400 duplicate groups cost no exact point: the only
    # exact multiples built are those of the planted class's two labels,
    # and the f-scan refuses the repeated translate on its P-scan, before
    # it chooses the primes of its keys
    c = Curve(-6, 40)
    t = c.point(-4, 0)
    spec = OrbitSpec(c.point(2, 6), 200, (INFINITY, t, t))
    u = UniquenessFunction(params_default, c)
    built = []
    scalar_mul = collisions.scalar_mul

    def planted_only(m, pt):
        built.append(m)
        if abs(m) != 1:
            raise AssertionError(f"exact {m}*G built outside the planted class")
        return scalar_mul(m, pt)

    monkeypatch.setattr(collisions, "scalar_mul", planted_only)
    report = p_injectivity_scan(u, spec)
    signs = [s for m in range(1, 201) for s in (m, -m)]
    assert report.duplicate_points == sorted(([(s, 1), (s, 2)] for s in signs), key=lambda g: str(g[0]))
    assert [c.keys for c in report.classes] == [[(1, 1), (-1, 0)]]
    assert report.total_scanned == 800
    assert built == [1, -1]

    def unused(build):
        raise AssertionError("keys were built for a torsion list that names a point twice")

    monkeypatch.setattr(collisions, "_fingerprints", unused)
    with pytest.raises(ValueError, match=re.escape(collisions.P_NOT_INJECTIVE)):
        f_injectivity_scan(u, spec)


def test_translate_at_identity_skips_prime(small_primes, caplog):
    # 7G = T mod 113 for the 2-torsion point T, so 7G + T and -7G + T reduce
    # to the identity there; G has infinite order, so neither is the
    # identity exactly
    c = Curve(-6, 40)
    u = UniquenessFunction(InjectionParams(1, 1, 2, 9), c)
    spec = OrbitSpec(c.point(2, 6), 10, (INFINITY, c.point(-4, 0)))
    # walked, 113 meets 7G + T first
    small_primes(114)
    residue = p_injectivity_scan(u, spec)
    messages = [r.getMessage() for r in caplog.records]
    assert "prime 113 skipped: orbit point at label (7, 1) reduces to the identity mod 113" in messages
    assert chosen_primes(caplog)[0] == 109
    assert findings(residue) == findings(exact_p_scan(u, spec))
    # as a further prime, 113 is unsuitable only where a candidate reduces
    # to the identity: at M = 10 neither label is a candidate mod 127
    caplog.clear()
    small_primes(2**7)
    residue = p_injectivity_scan(u, spec)
    assert chosen_primes(caplog)[:2] == (127, 113)
    assert findings(residue) == findings(exact_p_scan(u, spec))
    # at M = 60 the label (-7, 1) is one, and the skip line names it
    caplog.clear()
    spec = OrbitSpec(spec.generator, 60, spec.torsion)
    residue = p_injectivity_scan(u, spec)
    messages = [r.getMessage() for r in caplog.records]
    assert "prime 113 skipped: candidate at label (-7, 1) reduces to the identity mod 113" in messages
    assert chosen_primes(caplog)[:2] == (127, 109)
    assert findings(residue) == findings(exact_p_scan(u, spec))


def split_partitions(monkeypatch, target):
    """Make every pair partition target `target` keys, whatever k is."""
    monkeypatch.setattr(collisions, "PAIR_PARTITION_KEYS", target)
    monkeypatch.setattr(collisions, "PAIR_KEYS_PER_ITEM", 0)


def test_f_scan_is_exact_per_partition(caplog, monkeypatch, ufunc248, gen248):
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    spec = OrbitSpec(gen248, 20)
    pairs = 40 * 40
    whole = f_injectivity_scan(ufunc248, spec)
    caplog.clear()
    # a target of 250 keys, under a sixth of the pairs
    split_partitions(monkeypatch, 250)
    partitioned = f_injectivity_scan(ufunc248, spec)
    counted = partitions(caplog, "f")
    assert len(counted) >= 7
    assert all(part["keys"] <= 250 for part in counted)
    assert sum(part["keys"] for part in counted) == pairs
    assert canonical_json(partitioned.to_json_dict()) == canonical_json(whole.to_json_dict())


def test_pair_classes_match_exact_index():
    # w_i + w_j over w = 0..4: every sum but the extremes is taken by
    # several ordered pairs, and each class keeps its pairs in stream order
    labels = list("abcde")
    classes = collisions._pair_classes(
        "f-scan", 61 * 59, np.arange(5, dtype=np.uint64), 1, Fraction(1), Fraction, labels.__getitem__,
    )
    stream = (((a, b), Fraction(i + j)) for i, a in enumerate(labels) for j, b in enumerate(labels))
    assert classes == collision_scan(stream).classes
    assert len(classes) == 7


def test_traced_p_scan_counts_collision_scan():
    # the planted P-collision of the scaled model is a candidate at the
    # default primes, so the layer tracer sees its exact confirmation
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["check-p", "--curve", "1/16,-1/64", "--gen", "1/4,1/8", "--M", "20"]
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), *argv],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True,
    )
    assert done.returncode == 2
    marker = "perfbench-trace: "
    [trace] = [line for line in done.stderr.splitlines() if line.startswith(marker)]
    spans = json.loads(trace.removeprefix(marker))["spans"]
    assert spans["collisions.collision_scan"][0] >= 1
    # P is evaluated exactly on the planted pair, and no evaluated point is
    # checked against the curve again: the two on_curve calls are the
    # generator's, when it is parsed and when the orbit spec is validated
    assert spans["injection.UniquenessFunction.eval_P"][0] >= 2
    assert spans["curve.on_curve"][0] == 2


def test_zagier_runs_confirmed_against_exact_index(small_primes, caplog, confirmed):
    small_primes(2**6)  # primes 61 and 59: 82,369 pair keys on 3,599 values
    report = zagier_probe(15)
    assert "primes chosen: 61, 59" in [r.getMessage() for r in caplog.records]
    # 287 rationals: partitions of about 2**14 keys
    counted = partitions(caplog, "zagier")
    assert len(counted) >= 5 and all(part["runs"] > 0 and part["classes"] == 0 for part in counted)
    rats = list(rationals_by_height(15))
    modulus = 61 * 59
    keys = pair_keys([fraction_mod(r, modulus) for r in rats], 7, 3, modulus)
    # one stream a partition, each in stream order, over increasing key
    # ranges; joined, they are every candidate pair's flat index
    assert len(confirmed) == len(counted)
    assert all(stream == sorted(stream) for stream in confirmed)
    spans = [(min(keys[x] for x in stream), max(keys[x] for x in stream)) for stream in confirmed]
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    assert sorted(sum(confirmed, [])) == repeated(keys)
    stream = (
        ((format_rational(r1), format_rational(r2)), zagier_eval(r1, r2, 7, 3))
        for r1 in rats
        for r2 in rats
    )
    exact = collision_scan(stream)
    exact.config = report.config
    assert canonical_json(report.to_json_dict()) == canonical_json(exact.to_json_dict())


def test_zagier_probe_is_exact_per_partition(caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    row = len(list(rationals_by_height(10)))  # 127 rationals
    pairs = row * row
    whole = zagier_probe(10)
    caplog.clear()
    # a target of 4,166 keys, about a quarter of the pairs
    split_partitions(monkeypatch, 4166)
    partitioned = zagier_probe(10)
    counted = partitions(caplog, "zagier")
    assert len(counted) >= 4
    assert all(part["keys"] <= 4166 for part in counted)
    assert sum(part["keys"] for part in counted) == pairs
    assert canonical_json(partitioned.to_json_dict()) == canonical_json(whole.to_json_dict())


@pytest.mark.parametrize("scan", ["P", "f", "zagier"])
def test_empty_scan_is_one_empty_partition(caplog, ufunc248, gen248, scan):
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    if scan == "zagier":
        report = zagier_probe(0)
    elif scan == "f":
        report = f_injectivity_scan(ufunc248, OrbitSpec(gen248, 0))
    else:
        report = p_injectivity_scan(ufunc248, OrbitSpec(gen248, 0))
    assert findings(report) == (0, [], [])
    assert partitions(caplog, scan) == [{"keys": 0, "runs": 0, "classes": 0}]


def random_items(k, modulus, zeros):
    """k random uint64 item keys mod `modulus`, the first `zeros` of them 0,
    and the k*k keys a + b mod `modulus` of their ordered pairs in plain
    integers, row-major: the pair keys of n = 1 and gamma = 1."""
    items = np.random.default_rng(k).integers(0, modulus, k, dtype=np.uint64)
    items[:zeros] = 0
    keys = [(a + b) % modulus for a in items.tolist() for b in items.tolist()]
    return items, keys


# (modulus, items, zeros, and the partition target's floor and keys per
# item)
PAIR_PLANS = {
    # a target of 700 keys; 400 pairs share the key 0
    "target of 700": (2**20 + 7, 100, 20, (700, 0)),
    # a target of 16*k = 1,600 keys; the 2,025 pairs of the key 0 lie in
    # the first range, over the target
    "crowded key value": (2**20 + 7, 100, 45, (1, 16)),
    # 40,000 keys on 3,599 values and a target of 16 keys: each range is
    # one key value, and the values held by more pairs stay whole
    "tiny modulus": (61 * 59, 200, 0, (16, 0)),
}


def test_one_partition_fill_equals_the_split_fills(monkeypatch):
    # each equal-range fill of the pair scan holds exactly the keys of its
    # range, also where a range outgrows the buffers; together they are the
    # one fill of [0, N), which is every pair key
    for name, (modulus, k, zeros, rule) in PAIR_PLANS.items():
        items, keys = random_items(k, modulus, zeros)
        edges, fills = [], []
        below, gather = collisions._PairKeys.below, collisions._PairKeys.gather

        def counted(self, e):
            edges.append(e)
            return below(self, e)

        def copied(self, *args):
            part = gather(self, *args)
            fills.append(part.copy())
            return part

        monkeypatch.setattr(collisions._PairKeys, "below", counted)
        monkeypatch.setattr(collisions._PairKeys, "gather", copied)
        monkeypatch.setattr(collisions, "PAIR_PARTITION_KEYS", rule[0])
        monkeypatch.setattr(collisions, "PAIR_KEYS_PER_ITEM", rule[1])
        classes = collisions._pair_classes(
            "f-scan", modulus, items, 1, Fraction(1), lambda i: Fraction(int(items[i])), int,
        )
        target = max(rule[0], rule[1] * k)
        ranges = len(fills)
        assert ranges >= 3 and edges == [r * modulus // ranges for r in range(ranges + 1)], name
        ordered = sorted(keys)
        for fill, lo, hi in zip(fills, edges, edges[1:]):
            assert fill.dtype == np.uint64, name
            assert sorted(fill.tolist()) == ordered[bisect_left(ordered, lo):bisect_left(ordered, hi)], name
        # in each plan some range outgrows the target, and so the buffers
        assert max(len(fill) for fill in fills) > target, name
        monkeypatch.undo()
        pairs = collisions._PairKeys(items, items, modulus)
        lower = pairs.below(0)
        whole = pairs.gather(lower, pairs.below(modulus) - lower, np.empty(k * k, dtype=np.uint64), np.arange(k * k))
        assert sorted(whole.tolist()) == ordered, name
        assert np.array_equal(np.sort(np.concatenate(fills)), np.sort(whole)), name
        exact = (((a, b), Fraction(int(items[a]) + int(items[b]))) for a in range(k) for b in range(k))
        assert classes == collision_scan(exact).classes, name


def test_each_partition_edge_is_searched_once(caplog, monkeypatch, ufunc248, gen248):
    # ranges + 1 searches per pair scan: each inner edge's row counts close
    # the range below it and open the one above
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    calls = []
    below = collisions._PairKeys.below

    def counted(self, e):
        calls.append(e)
        return below(self, e)

    monkeypatch.setattr(collisions._PairKeys, "below", counted)
    split_partitions(monkeypatch, 250)
    for scan, run in (
        ("f", lambda: f_injectivity_scan(ufunc248, OrbitSpec(gen248, 20))),
        ("zagier", lambda: zagier_probe(6)),
    ):
        calls.clear()
        caplog.clear()
        run()
        ranges = len(partitions(caplog, scan))
        assert ranges >= 3 and len(calls) == ranges + 1, scan


def test_crowded_key_values_over_a_one_key_target(small_primes, caplog, monkeypatch, confirmed, ufunc248, gen248):
    # a partition target of one key: at 127 * 113 the 144 f pairs are cut
    # into 144 equal key ranges, some holding the pairs of a key value held
    # by two or more pairs, and the findings are the oracle's
    small_primes(2**7)
    monkeypatch.setattr(collisions, "PAIR_PARTITION_KEYS", 1)
    monkeypatch.setattr(collisions, "PAIR_KEYS_PER_ITEM", 0)
    spec = OrbitSpec(gen248, 6)
    report = f_injectivity_scan(ufunc248, spec)
    assert findings(report) == findings(exact_f_scan(ufunc248, spec))
    n, gamma = ufunc248.params.n, ufunc248.params.gamma
    modulus, keys, _ = orbit_keys(ufunc248, spec, (), gamma)
    keys = pair_keys(keys.tolist(), n, gamma, modulus)
    counted = partitions(caplog, "f")
    assert len(counted) == 144 and sum(part["keys"] for part in counted) == 144
    assert sum(part["runs"] for part in counted) == 21
    # after the P precondition's stream, one a partition, in stream order:
    # the pairs of its crowded key values, which joined are every pair of
    # a crowded key value
    streams = confirmed[1:]
    assert len(streams) == len(counted)
    assert all(stream == sorted(stream) for stream in streams)
    assert all(bool(stream) == bool(part["runs"]) for stream, part in zip(streams, counted))
    assert sorted(sum(streams, [])) == repeated(keys)


def test_pair_classes_crowded_value_over_the_target(caplog):
    # 130 items with the key 0: their 16,900 pairs share one key value,
    # more than the partition target of 2**14, and are one partition;
    # each class keeps its pairs in stream order
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    k = 130
    labels = list(range(k))
    classes = collisions._pair_classes(
        "f-scan", 61 * 59, np.zeros(k, dtype=np.uint64), 1, Fraction(1), Fraction, labels.__getitem__,
    )
    stream = (((a, b), Fraction(a + b)) for a in labels for b in labels)
    assert classes == collision_scan(stream).classes
    assert partitions(caplog, "f")[0] == {"keys": k * k, "runs": 1, "classes": 2 * k - 3}
    assert k * k > max(collisions.PAIR_PARTITION_KEYS, collisions.PAIR_KEYS_PER_ITEM * k)


def test_repeated_keys_match_unique(monkeypatch):
    # chunks of four neighbour comparisons: [1, 5), [5, 9), ...
    monkeypatch.setattr(collisions, "CHUNK_KEYS", 4)
    cases = [
        [],
        [7],  # n < 2
        list(range(12)),  # no runs
        [0, 1, 2, 3, 5, 5, 6, 7, 8],  # a pair across the first chunk edge
        [0, 1, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 9],  # one run over three chunks
        [3, 3, 3, 5, 6, 6, 8, 8, 8, 8],  # runs of 3 and 4 at both ends
        [2] * 9,
    ]
    rng = np.random.default_rng(3)
    cases += [np.sort(rng.integers(0, 12, n)) for n in range(2, 40)]
    # the P-scan's residues mod p are uint32, and their runs stay uint32
    for dtype in (np.uint64, np.uint32):
        for case in cases:
            part = np.asarray(case, dtype=dtype)
            runs = collisions._repeated_keys(part)
            assert runs.dtype == dtype
            assert np.array_equal(runs, np.unique(part[1:][part[1:] == part[:-1]]))


def test_candidates_cross_block_edges(monkeypatch):
    # the candidate pass reads blocks of four keys: [0, 4), [4, 8), ...
    monkeypatch.setattr(collisions, "CHUNK_KEYS", 4)
    cases = [
        [],
        [5],
        list(range(10)),  # no runs
        [0, 1, 2, 7, 7, 3, 4, 5],  # a pair across the first block edge
        [9, 1, 2, 3, 4, 5, 6, 7, 8, 9],  # a pair two blocks apart
        [6, 6, 6, 6, 6, 1, 6, 2, 6],  # one run over three blocks
        [2] * 9,
    ]
    rng = np.random.default_rng(4)
    cases += [rng.integers(0, 12, n).tolist() for n in range(2, 40)]
    # keys that share a run's top bits, and so its entry in the table over
    # [0, 2**31) of 2 * 16 entries, 2**26 keys wide, without being a run:
    # hi + 5 is the run, and hi + 9, hi + 2**26 - 1 and hi are not
    hi = 20 * 2**26
    shared = [hi + 5, hi + 9, hi + 5, hi + 2**26 - 1, hi, 3, 2**31 - 2, 3]
    assert len({key >> 26 for key in shared[:5]}) == 1
    cases.append(shared)
    # the default table, then a table of one entry a run, where most keys
    # share an entry with a run; the residues mod p are uint32, and uint64
    # keys, scaled here to span [0, 2**62), read the same way
    for table in ("default", "one entry a run"):
        if table != "default":
            monkeypatch.setattr(collisions, "PREFILTER_ENTRIES_PER_RUN", 1)
        for dtype, scale in ((np.uint32, 1), (np.uint64, 2**31)):
            for case in cases:
                keys = np.asarray([key * scale for key in case], dtype=dtype)
                runs = collisions._repeated_keys(np.sort(keys))
                marked = collisions._run_table(runs, 2**31 * scale)
                # every repeated key's stream positions, in stream order
                assert collisions._candidates(keys, runs, marked).tolist() == repeated(case), (table, dtype, case)


def test_candidates_per_block_read_one_table(monkeypatch):
    # the P-scan's second walk reads each block of residues against one
    # table sized from the prime: here the runs are 3 and 12, the block
    # [3, 6) holds neither, and the block [6, 9) holds 3 with its largest
    # key below 12.  A table sized from a block's largest key would leave
    # the run 12 outside it.  Chunks of two keys cross every block.
    monkeypatch.setattr(collisions, "CHUNK_KEYS", 2)
    blocks = [[3, 12, 5], [0, 1, 2], [4, 3, 6], [12, 11]]
    # one table entry a key value mod 13; 2**26 values an entry mod 2**31 - 1
    for modulus, scale in ((13, 1), (2**31 - 1, 10**8)):
        flat = [key * scale for block in blocks for key in block]
        keys = np.asarray(flat, dtype=np.uint32)
        runs = collisions._repeated_keys(np.sort(keys))
        assert runs.tolist() == [3 * scale, 12 * scale]
        table = collisions._run_table(runs, modulus)
        starts = [0, 3, 6, 9]
        assert collisions._candidates(keys[3:6], runs, table).tolist() == []
        assert collisions._candidates(keys[6:9], runs, table).tolist() == [1]
        at, rp = collisions._mod_p_candidates(modulus, runs, [(lo, keys[lo:lo + 3]) for lo in starts])
        assert at.tolist() == repeated(flat) == [0, 1, 7, 9]
        assert rp.tolist() == [flat[i] for i in at]


small_int = st.integers(-4, 4)
nonzero = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])


@settings(max_examples=200, deadline=None)
@given(
    a=small_int,
    x0=st.integers(-3, 3),
    y0=st.integers(-3, 3),
    with_torsion=st.booleans(),
    # (copies of (r, 0), index of O): the torsion list names (r, 0) once,
    # twice or three times, with O at any position
    layout=st.sampled_from([(copies, at) for copies in (1, 2, 3) for at in range(copies + 1)]),
    bound=st.integers(1, 4),
    alpha=nonzero,
    beta=nonzero,
    gamma=st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(3, 2)]),
    # f-scan partitions of the default target, or of 40 or 10 keys, which
    # split its k*k keys from k = 8 and k = 4 orbit points on
    target=st.sampled_from([None, 40, 10]),
    start=st.integers(2**6, 2**16),
)
@example(a=-2, x0=0, y0=1, with_torsion=False, layout=(1, 0), bound=2, alpha=Fraction(1), beta=Fraction(1),
         gamma=Fraction(2), target=None, start=2**6)  # order-4 generator: planted findings
def test_residue_matches_exact(a, x0, y0, with_torsion, layout, bound, alpha, beta, gamma, target, start):
    b = y0 * y0 - x0**3 - a * x0  # puts (x0, y0) on the curve
    assume(4 * a**3 + 27 * b**2 != 0)
    c = Curve(a, b)
    torsion = ()
    if with_torsion:
        # a rational 2-torsion point (r, 0) with a small integer root r, named
        # `copies` times, and O inserted at index `at`
        roots = [r for r in range(-6, 7) if r**3 + a * r + b == 0]
        assume(roots)
        copies, at = layout
        torsion = [c.point(roots[0], 0)] * copies
        torsion.insert(at, INFINITY)
    spec = OrbitSpec(c.point(x0, y0), bound, torsion)
    u = UniquenessFunction(InjectionParams(alpha, beta, gamma, 9), c)

    def outcome(scan):
        try:
            return findings(scan(u, spec))
        except ValueError as exc:
            return str(exc)

    split = {"PAIR_PARTITION_KEYS": target, "PAIR_KEYS_PER_ITEM": 0} if target else {}
    with mock.patch.multiple(collisions, PRIME_SEARCH_START=start, **split):
        assert outcome(p_injectivity_scan) == outcome(exact_p_scan)
        assert outcome(f_injectivity_scan) == outcome(exact_f_scan)
