import csv
import hashlib
import io
import json
import logging

import pytest

from ecinj.cli import main
from ecinj.rational import parse_rational


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_f_headline(capsys):
    code, out, _ = run(capsys, "check-f", "--M", "10")
    assert code == 0
    report = json.loads(out)
    assert report["total_scanned"] == 400
    assert report["classes"] == []
    assert report["version"] and report["config_digest"]


# (exit code, sha256 of stdout): reports are byte-identical however the scan is run
GOLDEN_SHA256 = {
    ("check-p", "--M", "50"): (0, "8ee4c61110345bb9b3599eeeb23318a234434e1db9c71c8452f01d87de963a2d"),
    ("check-p", "--M", "400"): (0, "e28bbdf6173d83f4b449a675e33071506a3e046a04640045a191be725279d6c4"),
    ("check-f", "--M", "10"): (0, "db809208c354bd2da9cfac0fb9ef9ea0b5b098fb38234bd03d5d65dc5163275e"),
    ("check-f", "--M", "80"): (0, "0d3fe964d2ce2d4ac705b6d30c205ce4af4b1f7bcdd27a3ff57526b505d2a793"),
    ("zagier-probe",): (0, "af142a4642e989ffb53d04eaf253b6007ff861f789ee40d0deacf760b9dd2808"),
    # the config's "method" label switches after M = 300 (check-p) and M = 60 (check-f)
    ("check-p",): (0, "47f8d19b574b1c8ab4d514c3a75170dba9cf9a93418714b39cb26a68165662f3"),
    ("check-p", "--M", "200"): (0, "91310da92cf38e1ff2848033272f68cde56892483dd8d1486bc4bb3652572136"),
    ("check-p", "--M", "300"): (0, "d4867d2b2d7e8d65dd8ee641db8eb3bebae694354e5ea7cf06611a4e9813d5d7"),
    ("check-p", "--M", "301"): (0, "0a24090f3d5a534b23efe90cdbfe7827120420ced007b726e68423874fc73575"),
    ("check-f",): (0, "e8d2c3bc3aef61c4395475059b613826b1c21c446d2a7efe109093786c5401a8"),
    ("check-f", "--M", "61"): (0, "61eb585c452829ccec9ac4bce4286edad2efae4a1e15cee430a24e48a759dbc3"),
    ("zagier-probe", "--H", "15"): (0, "fb4ad419cd54b50e66e987ba547b7dfd8426e18d5f23bff1c7136b4550f1489c"),
    ("zagier-probe", "--H", "25"): (0, "f341a2b47793739ecf7855dbe885b0b623ca9c40dafbd450ac2767d1d7b0faa4"),
    # every other subcommand at its defaults
    ("curve-info",): (0, "3ce6983a676db0248680be766beb938a9420fc5f83cf9b616a8bbf32ca8131a1"),
    ("enumerate",): (0, "8259bc502ed95ba271fe1d567baa69f6288168e3a5b37bab7e785d9274030abf"),
    # the orbit at its largest desk size, a model that needs scaling to an
    # integral one, and a generator of order 4
    ("enumerate", "--M", "250"): (0, "3a1747a069e89a2bca92a0a888a7a527e0fa1b95ce5fb98eebcd3d113d2cb487"),
    ("enumerate", "--curve", "1/16,-1/64", "--gen", "1/4,1/8", "--M", "60"): (
        0, "f614bbbe64915f46e90ecd26b6d063c1abbcbdccfe4c718c967704c3605b9c28"
    ),
    ("enumerate", "--curve=-2,1", "--gen", "0,1", "--M", "9"): (
        0, "c1107d0e8cdff19410e3d50fd5743137a20caa160daecf7a38892e74bba110a3"
    ),
    # torsion labels (m, k) are quoted CSV fields
    ("enumerate", "--curve=-25,0", "--gen=-4,6", "--torsion", "O;0,0", "--M", "2"): (
        0, "d084ea652d35046d3f686d033281d5687b573265eb0111b9d4d619b0c82bd6fc"
    ),
    ("slope-bound",): (0, "929c32bd00bcf343d0f8fd4b1393d3d5663d8a75e0905042efdc4b1b1f17e06a"),
    ("density",): (0, "75ed5bfd5b46a7c2ea9c0819d15a00ee0f721ab8c3ee73608272f72915ee4212"),
    ("weierstrass-verify",): (0, "d59f8b05b36cd856acfc16f0761014352b1432a928c755b2dbf9363ccf67368b"),
    ("cantor",): (0, "210c4a12530865d56a987216e4e94c0d8f07e64e844e2a453e6af5ddb3adc24e"),
    # a planted P-collision and duplicate point: findings exit 2
    ("check-p", "--curve=-2,1", "--gen", "0,1", "--M", "2"): (
        2, "520a61233add9385eab2b15a6cccbe79dcfae5748546d50cc7a80d62a25a9341"
    ),
    # the order-4 generator's 76 labels carry three points, each a
    # duplicate group of 25 or 26 labels
    ("check-p", "--curve=-2,1", "--gen", "0,1", "--M", "50"): (
        2, "1132255a0bc7d7875e93d7d159b9b5b0cd6e2fb8b25e5e3c459ff122ffb11177"
    ),
    # walks past the doubling blocks into the fixed stride; the 2-torsion
    # translate adds it to 20,000 points at once
    ("check-p", "--M", "40000"): (0, "737d0c146cf38179fd8c73e5c38606773e2bcd367393fd4d47483049f76ee584"),
    # 463 runs of equal residues mod p, none of them a run mod N = p*q
    ("check-p", "--M", "1000000"): (0, "e34832576d341f5d49656ca5a0f51b52c40bc78c7e665cd6b461f788cdadfe8b"),
    ("check-p", "--curve=-25,0", "--gen=-4,6", "--torsion", "O;0,0", "--M", "20000"): (
        0, "b3d1cb82083458fe57d888090946be5723afb4c038fc92e9a8cb2d6fa001f91b"
    ),
    # a torsion list that names a point twice, on a generator of infinite
    # order: its 20 duplicate groups follow from the list, and only the
    # first of the two translates is walked
    ("check-p", "--curve=-6,40", "--gen", "2,6", "--torsion", "O;-4,0;-4,0", "--M", "10"): (
        2, "c02758fb3440104f33878d30e0990a6aac6a94736a1fe132a01994f9b322e990"
    ),
    # O away from index 0 and a point named three times: 74 groups of three
    ("check-p", "--curve=-6,40", "--gen", "2,6", "--torsion=-4,0;O;-4,0;-4,0", "--M", "37"): (
        2, "cc051b139bdbf6b6ed7fc39ad18323af946516000f46d69910300518ae8b4d23"
    ),
    # an f-scan whose pair keys are torsion labels (m, k): 57,600 pairs
    ("check-f", "--curve=-25,0", "--gen=-4,6", "--torsion", "O;0,0", "--M", "60"): (
        0, "eda6c058207632d4bc2cf20dd491221694f9052870f01892a866891d78a37cbc"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=" ".join)
def test_report_bytes_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_SHA256[argv]


@pytest.mark.parametrize("command", ["check-p", "check-f"])
def test_gamma_violation_exits_one(capsys, command):
    code, _, err = run(capsys, command, "--params", "1,1,1,9", "--M", "5")
    assert code == 1
    assert "gamma" in err


@pytest.mark.parametrize("flag, value", [("--params", "1/0,1,2,9"), ("--curve", "1/0,1"), ("--gen", "1,1/0")])
def test_zero_denominator_exits_one(capsys, flag, value):
    code, _, err = run(capsys, "check-p", flag, value)
    assert code == 1
    assert err.startswith("error: zero denominator")


@pytest.mark.parametrize("command, n", [("check-p", "x"), ("check-f", "9.5")])
def test_non_integer_n_exits_one(capsys, command, n):
    code, out, err = run(capsys, command, "--params", f"1,1,2,{n}")
    assert (code, out) == (1, "")
    assert err == f"error: n in --params must be an integer, got {n!r}\n"


@pytest.mark.parametrize(
    "flag, value, expected",
    [
        ("--curve", "1", "expected a,b for --curve, got '1'"),
        ("--gen", "1", "expected x,y for a point, got '1'"),
        ("--params", "1,1,2", "expected alpha,beta,gamma,n for --params, got '1,1,2'"),
    ],
)
def test_wrong_number_of_fields_exits_one(capsys, flag, value, expected):
    assert run(capsys, "check-p", flag, value) == (1, "", f"error: {expected}\n")


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "check-p", "--bogus")
    assert code == 1
    assert "bogus" in err


def test_method_flag_is_gone(capsys):
    code, _, err = run(capsys, "check-p", "--method", "exact")
    assert code == 1
    assert "--method" in err


def test_singular_curve_exits_one(capsys):
    code, _, err = run(capsys, "curve-info", "--curve", "0,0")
    assert code == 1
    assert "singular" in err


def test_findings_exit_two(capsys):
    # order-4 generator on y^2 = x^3 - 2x + 1 plants a P-collision
    code, out, _ = run(capsys, "check-p", "--curve=-2,1", "--gen", "0,1", "--M", "2")
    assert code == 2
    report = json.loads(out)
    assert report["classes"] == [{"value": "1", "keys": [1, 2]}]
    assert report["duplicate_points"] == [[2, -2]]


def test_slope_bound_report(capsys):
    code, out, _ = run(capsys, "slope-bound")
    assert code == 0
    report = json.loads(out)
    assert report["excludes_minus_one"] is True
    assert report["reference_bound_decimal"] == 2.708
    assert report["critical_quartic"] == [-1, -12, 6, 0, 3]
    lo = report["min_abs_slope"]["lo_decimal"]
    assert 1.91 < lo < 1.92


def test_enumerate_orbit_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--M", "2")
    assert code == 0
    assert out.splitlines() == [
        "label,x,y",
        "1,1,1",
        "-1,1,-1",
        "2,2,-3",
        "-2,2,3",
    ]


def test_enumerate_coordinates_past_the_digit_limit(capsys):
    # the y-coordinate of 162*G has over 4300 digits, which str(int) refuses
    code, out, _ = run(capsys, "enumerate", "--M", "170")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 341
    label, x, y = rows[-1].split(",")
    assert label == "-170" and len(y) > 4300
    x, y = parse_rational(x), parse_rational(y)
    assert y * y == x**3 + x - 1


def test_enumerate_torsion_labels_are_one_csv_field(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--curve=-25,0", "--gen=-4,6", "--torsion", "O;0,0", "--M", "2"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [3] * 9
    assert [row[0] for row in rows] == [
        "label", "(1, 0)", "(1, 1)", "(-1, 0)", "(-1, 1)", "(2, 0)", "(2, 1)", "(-2, 0)", "(-2, 1)"
    ]
    assert rows[2] == ["(1, 1)", "25/4", "75/8"]


def test_enumerate_search_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--search-height", "2")
    assert code == 0
    rows = out.splitlines()[1:]
    assert sorted(rows) == sorted(
        ["search,1,1", "search,1,-1", "search,2,3", "search,2,-3"]
    )


def test_check_p_with_torsion(capsys):
    code, out, _ = run(
        capsys, "check-p", "--curve=-25,0", "--gen=-4,6", "--torsion", "O;0,0", "--M", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["total_scanned"] == 16
    assert report["classes"] == []


def test_check_p_scaled_curve_finding(capsys):
    code, out, _ = run(capsys, "check-p", "--curve", "1/16,-1/64", "--gen", "1/4,1/8", "--M", "30")
    assert code == 2
    report = json.loads(out)
    assert report["classes"] == [{"value": "1/8", "keys": [-1, 2]}]


def test_curve_info(capsys):
    code, out, _ = run(capsys, "curve-info")
    report = json.loads(out)
    assert code == 0
    assert report["discriminant_term"] == "31"
    assert report["real_components"] == 1


def test_cantor_check(capsys):
    code, out, _ = run(capsys, "cantor", "--check", "40")
    assert code == 0
    assert json.loads(out)["bijection"] is True


def test_cantor_pair_unpair(capsys):
    code, out, _ = run(capsys, "cantor", "--pair", "1", "2")
    assert json.loads(out)["value"] == 8
    code, out, _ = run(capsys, "cantor", "--unpair", "8")
    assert (json.loads(out)["x"], json.loads(out)["y"]) == (1, 2)


def test_zagier_probe_cli(capsys):
    code, out, _ = run(capsys, "zagier-probe", "--H", "2")
    assert code == 0
    assert json.loads(out)["classes"] == []


def test_density_cli(capsys):
    code, out, _ = run(capsys, "density", "--M", "20", "--bins", "5")
    report = json.loads(out)
    assert code == 0
    assert sum(report["bins"]) == 40
    assert report["certified"] is False


def test_density_digest_follows_the_orbit_not_its_spelling(capsys):
    def digest(*argv):
        code, out, _ = run(capsys, "density", "--M", "5", *argv)
        assert code == 0
        return json.loads(out)["config_digest"]

    # the same generator spelled two ways gives one digest, the default's
    assert digest("--gen", "1/1,1") == digest("--gen", "1,1") == digest()
    # a torsion list doubles the points, so it must move the digest
    plain = ("--curve", "0,1", "--gen", "2,3")
    assert digest(*plain, "--torsion", "O;-1,0") != digest(*plain)


def test_weierstrass_verify_cli(capsys):
    code, out, _ = run(capsys, "weierstrass-verify", "--samples", "25")
    report = json.loads(out)
    assert code == 0
    assert report["ode_residual_max"] < 1e-9
    assert report["lambda_match_rejected"] == [1000, 1000]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check-p", "--M", "5", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["total_scanned"] == 10


# a small run of every subcommand, and one with findings
EVERY_COMMAND = [
    ("curve-info",),
    ("enumerate", "--M", "3"),
    ("check-p", "--M", "5"),
    ("check-f", "--M", "5"),
    ("slope-bound", "--depth", "8"),
    ("density", "--M", "10"),
    ("weierstrass-verify", "--samples", "5"),
    ("cantor", "--check", "10"),
    ("zagier-probe", "--H", "2"),
    ("check-p", "--curve=-2,1", "--gen", "0,1", "--M", "2"),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_out_file_holds_stdout(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    path = tmp_path / "report"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
    assert path.read_bytes() == out.encode()


NEGATIVE_SIZES = {
    ("check-p", "--M", "-1"): "bound must be >= 0",
    ("check-f", "--M", "-1"): "bound must be >= 0",
    ("density", "--M", "-1"): "bound must be >= 0",
    ("enumerate", "--M", "-1"): "bound must be >= 0",
    ("zagier-probe", "--H", "-2"): "height bound must be >= 0, got -2",
    ("enumerate", "--search-height", "-1"): "height bound must be >= 0, got -1",
    ("cantor", "--check", "-1"): "triangle must be >= 0, got -1",
    ("slope-bound", "--depth", "-1"): "depth must be >= 0, got -1",
}


@pytest.mark.parametrize("argv", list(NEGATIVE_SIZES), ids=" ".join)
def test_negative_size_exits_one(capsys, argv):
    assert run(capsys, *argv) == (1, "", f"error: {NEGATIVE_SIZES[argv]}\n")


EMPTY_SCANS = [("check-p", "--M", "0"), ("check-f", "--M", "0"), ("zagier-probe", "--H", "0")]


@pytest.mark.parametrize("argv", EMPTY_SCANS, ids=" ".join)
def test_memory_ceiling_is_an_unknown_argument(capsys, argv):
    # no scan takes a resource setting: the pair scans size their
    # partitions from the number of items alone, so a ceiling of any value
    # is refused as an unknown argument
    for value in ("-1", "1000"):
        expected = f"error: unrecognized arguments: --memory-ceiling {value}\n"
        assert run(capsys, *argv, "--memory-ceiling", value) == (1, "", expected)


def test_orbit_too_large_for_memory_exits_one(capsys, monkeypatch):
    # a scan whose arrays cannot be allocated gets one error line, not a
    # traceback; the scan is replaced, so nothing is allocated for real
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr("ecinj.cli.p_injectivity_scan", refuse)
    code, out, err = run(capsys, "check-p", "--M", "100000000000")
    assert (code, out, err) == (1, "", "error: Unable to allocate 745. GiB for an array\n")


def test_weierstrass_verify_needs_a_sample(capsys):
    code, out, err = run(capsys, "weierstrass-verify", "--samples", "0")
    assert (code, out, err) == (1, "", "error: samples must be >= 1\n")


def test_verbose_logs_the_primes_and_leaves_stdout_alone(capsys):
    log = logging.getLogger("ecinj")
    handlers, level = list(log.handlers), log.level
    code, out, err = run(capsys, "check-p", "-v")
    assert (code, out) == run(capsys, "check-p")[:2]
    # the P-scan builds no keys mod N: its residues mod p repeat nowhere, so
    # it chooses no second prime, and its partition holds 120 keys, the
    # residues mod p sorted in place at 4 bytes a key, plus one bool a key
    # of the chunked search for repeated residues
    assert "ecinj.collisions: P-scan mod 2147483647: 0 candidates in 0 runs\n" in err
    assert "ecinj.collisions: primes chosen: 2147483647\n" in err
    assert "fingerprints of" not in err
    assert "P-scan partition 1/1: 120 keys, 0 candidate runs, 0 confirmed classes, 600 bytes\n" in err
    # 463 runs of equal residues mod p, which the candidates' residues at
    # the second prime all split
    code, out, err = run(capsys, "check-p", "--M", "1000000", "-v")
    argv = ("check-p", "--M", "1000000")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_SHA256[argv]
    assert "ecinj.collisions: P-scan mod 2147483647: 1146 candidates in 463 runs\n" in err
    assert "ecinj.collisions: P-scan mod 2147483629: 0 candidates in 0 runs\n" in err
    assert "ecinj.collisions: primes chosen: 2147483647, 2147483629\n" in err
    assert "P-scan partition 1/1: 2000000 keys, 0 candidate runs, 0 confirmed classes, 8065536 bytes\n" in err
    # the P-scan sorts all its residues mod p in one partition at every size
    code, out, err = run(capsys, "check-p", "--M", "400", "-v")
    assert (code, out) == run(capsys, "check-p", "--M", "400")[:2]
    assert err.count("P-scan partition") == 1 and "P-scan partition 1/1: 800 keys," in err
    code, out, err = run(capsys, "check-f", "-v")
    assert (code, out) == run(capsys, "check-f")[:2]
    # the f-scan keys its 120 points mod N for their pairs: the bytes of the
    # two primes' uint32 residues and the uint64 keys
    assert "ecinj.collisions: fingerprints of 120 items: residues 480 + 480 bytes, keys 960 bytes\n" in err
    # a pair partition: 24 bytes a key while it is gathered
    assert "f-scan partition 1/1: 14400 keys, 0 candidate runs, 0 confirmed classes, 345600 bytes\n" in err
    # the Zagier probe logs the same bytes line for its 39 rationals
    code, out, err = run(capsys, "zagier-probe", "-v")
    assert (code, out) == run(capsys, "zagier-probe")[:2]
    assert "ecinj.collisions: fingerprints of 39 items: residues 156 + 156 bytes, keys 312 bytes\n" in err
    # the stderr handler is gone again, so in-process runs do not stack them
    assert (log.handlers, log.level) == (handlers, level)
    assert run(capsys, "check-p")[2] == ""
