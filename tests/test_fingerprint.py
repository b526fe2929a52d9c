"""The residue engine at small primes, where its branches really fire, and
its exact memory bound.

At the default 61-bit primes no fingerprint coincidence ever happens, so
these tests lower `collisions.PRIME_SEARCH_START` (read at call time) and
check each branch through the per-partition log records, and every report
against the exact engine.  `config_digest` differs by method, so reports are
compared without it.
"""

import logging
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ecinj import collisions
from ecinj.collisions import (
    BLOCK_BYTES_PER_KEY,
    PARTITION_BYTES_PER_KEY,
    MemoryCeilingError,
    f_injectivity_scan,
    p_injectivity_scan,
)
from ecinj.curve import INFINITY, Curve
from ecinj.injection import InjectionParams, UniquenessFunction
from ecinj.points import OrbitSpec

PARTITION = re.compile(
    r"(?P<scan>[Pf])-scan partition \d+/\d+: (?P<keys>\d+) keys, (?P<runs>\d+) candidate runs, "
    r"(?P<surviving>\d+) buckets survive every prime, (?P<classes>\d+) confirmed classes"
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


def test_first_prime_runs_split_by_second_prime(small_primes, caplog, ufunc248, gen248):
    small_primes(2**8)  # primes 251 and 241
    spec = OrbitSpec(gen248, 6)
    residue = f_injectivity_scan(ufunc248, spec, method="residue")
    [part] = partitions(caplog, "f")
    assert part["keys"] == 144 and part["runs"] > 0
    assert part["surviving"] == 0 and part["classes"] == 0
    assert findings(residue) == findings(f_injectivity_scan(ufunc248, spec, method="exact"))


def test_buckets_surviving_every_prime_split_exactly(small_primes, caplog, ufunc248, gen248):
    small_primes(2**7)  # primes 127 and 113
    spec = OrbitSpec(gen248, 6)
    residue = f_injectivity_scan(ufunc248, spec, method="residue")
    [part] = partitions(caplog, "f")
    assert part["surviving"] > 0 and part["classes"] == 0
    assert findings(residue) == findings(f_injectivity_scan(ufunc248, spec, method="exact"))


def test_point_reducing_to_identity_skips_prime(small_primes, caplog, ufunc248, gen248):
    small_primes(444)  # 443 divides the denominator of 7G
    spec = OrbitSpec(gen248, 7)
    residue = p_injectivity_scan(ufunc248, spec, method="residue")
    messages = [r.getMessage() for r in caplog.records]
    assert "prime 443 skipped: 7*G reduces to the identity mod 443" in messages
    assert "primes chosen: 439, 433" in messages
    assert findings(residue) == findings(p_injectivity_scan(ufunc248, spec, method="exact"))


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
    residue = f_injectivity_scan(u, spec, method="residue")
    chosen = [r.getMessage() for r in caplog.records if r.getMessage().startswith("primes chosen")]
    # one prime choice for the P pre-scan, then one for the f-scan
    assert chosen == [
        "primes chosen: 241, 239" if scan in skipped_by else "primes chosen: 251, 241"
        for scan in ("P", "f")
    ]
    assert any("prime 251 skipped: denominator" in r.getMessage() for r in caplog.records)
    assert findings(residue) == findings(f_injectivity_scan(u, spec, method="exact"))


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
    residue = p_injectivity_scan(u, spec, method="residue")
    [part] = partitions(caplog, "P")
    assert part["surviving"] == part["classes"] == 1
    assert residue.exit_code == 2
    assert findings(residue) == findings(p_injectivity_scan(u, spec, method="exact"))


def test_misaligned_labels_raise(monkeypatch, ufunc248, gen248):
    made = []

    class Misaligned(collisions._OrbitResidues):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
            if len(made) == 2:
                self.labeled.reverse()

    monkeypatch.setattr(collisions, "_OrbitResidues", Misaligned)
    with pytest.raises(RuntimeError, match="orbit labels mod"):
        p_injectivity_scan(ufunc248, OrbitSpec(gen248, 5), method="residue")


def test_memory_ceiling_is_exact_per_partition(caplog, ufunc248, gen248):
    caplog.set_level(logging.INFO, logger="ecinj.collisions")
    spec = OrbitSpec(gen248, 20)
    pairs = 40 * 40
    ceiling = 12 * pairs  # between 16 bytes a pair over 4 partitions and 16 bytes a pair
    # one partition holds every key, and one block covers every pair
    needed = (PARTITION_BYTES_PER_KEY + BLOCK_BYTES_PER_KEY) * pairs
    with pytest.raises(MemoryCeilingError, match=f"needs {needed} bytes"):
        f_injectivity_scan(ufunc248, spec, method="residue", shards=1, memory_ceiling=ceiling)
    assert partitions(caplog, "f") == []  # refused before any key was built
    sharded = f_injectivity_scan(ufunc248, spec, method="residue", shards=4, memory_ceiling=ceiling)
    assert len(partitions(caplog, "f")) == 4
    assert sum(part["keys"] for part in partitions(caplog, "f")) == pairs
    unlimited = f_injectivity_scan(ufunc248, spec, method="residue", shards=1, memory_ceiling=None)
    assert sharded.to_json() == unlimited.to_json()


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
    shards=st.integers(1, 3),
    start=st.integers(2**6, 2**16),
)
@example(a=-2, x0=0, y0=1, with_torsion=False, bound=2, alpha=Fraction(1), beta=Fraction(1),
         gamma=Fraction(2), shards=1, start=2**6)  # order-4 generator: planted findings
def test_residue_matches_exact(a, x0, y0, with_torsion, bound, alpha, beta, gamma, shards, start):
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

    def outcome(scan, method):
        try:
            return findings(scan(u, spec, method=method, shards=shards))
        except ValueError as exc:
            return str(exc)

    with mock.patch.object(collisions, "PRIME_SEARCH_START", start):
        for scan in (p_injectivity_scan, f_injectivity_scan):
            assert outcome(scan, "residue") == outcome(scan, "exact")
