"""The pinned ecinj CLI invocations of each workload and the checks on
their outputs.

Invocations pass only semantic inputs, never an engine, strategy, shard or
memory-ceiling knob, so that deleting those knobs leaves the benchmark
valid.  Every JSON report must hash to the sha256 the seed commit printed;
every `enumerate` CSV is also checked by structure.
"""

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# The default curve y^2 = x^3 + x - 1 and generator (1, 1) of the CLI.
CURVE_A, CURVE_B = Fraction(1), Fraction(-1)
GENERATOR = (Fraction(1), Fraction(1))

# `str(int)` refuses more than 4300 digits (ROADMAP item 3), so the CLI fails
# with this message on the |m| <= 250 orbit.  That failure stays in the desk
# workload and counts as failed until the program is fixed.
DIGIT_LIMIT_ERROR = "Exceeds the limit (4300 digits)"


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    exit_code: int = 0
    csv_rows: Optional[int] = None  # `enumerate`: expected CSV rows (2M)
    known_defect: Optional[str] = None  # stderr text of the seed's known failure

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    @property
    def sha256(self) -> Optional[str]:
        return SEED_SHA256.get(self.name)


WORKLOADS = {
    # What users type: all nine subcommands at their defaults plus a few
    # larger sizes; start-up and the exact layer carry most of the time.
    "desk": (
        Invocation(("curve-info",)),
        Invocation(("enumerate",), csv_rows=20),
        Invocation(("check-p",)),
        Invocation(("check-f",)),
        Invocation(("slope-bound",)),
        Invocation(("density",)),
        Invocation(("weierstrass-verify",)),
        Invocation(("cantor",)),
        Invocation(("zagier-probe",)),
        Invocation(("check-p", "--M", "200")),
        Invocation(("enumerate", "--M", "150"), csv_rows=300),
        Invocation(("enumerate", "--M", "250"), csv_rows=500, known_defect=DIGIT_LIMIT_ERROR),
        Invocation(("zagier-probe", "--H", "15")),
    ),
    # One million ordered pairs through the f-scan's pair loop and index.
    "fscan": (Invocation(("check-f", "--M", "500")),),
    # The mod-p orbit walk over 200,000 points, and the planted P-collision
    # on y^2 = x^3 + x/16 - 1/64, which must reach an exit-2 report.
    "pscan": (
        Invocation(("check-p", "--M", "100000")),
        Invocation(("check-p", "--curve", "1/16,-1/64", "--gen", "1/4,1/8", "--M", "20000"), exit_code=2),
    ),
}

# sha256 of each invocation's stdout at the seed commit.
SEED_SHA256 = {
    "curve-info": "3ce6983a676db0248680be766beb938a9420fc5f83cf9b616a8bbf32ca8131a1",
    "enumerate": "8259bc502ed95ba271fe1d567baa69f6288168e3a5b37bab7e785d9274030abf",
    "check-p": "47f8d19b574b1c8ab4d514c3a75170dba9cf9a93418714b39cb26a68165662f3",
    "check-f": "e8d2c3bc3aef61c4395475059b613826b1c21c446d2a7efe109093786c5401a8",
    "slope-bound": "929c32bd00bcf343d0f8fd4b1393d3d5663d8a75e0905042efdc4b1b1f17e06a",
    "density": "75ed5bfd5b46a7c2ea9c0819d15a00ee0f721ab8c3ee73608272f72915ee4212",
    "weierstrass-verify": "d59f8b05b36cd856acfc16f0761014352b1432a928c755b2dbf9363ccf67368b",
    "cantor": "210c4a12530865d56a987216e4e94c0d8f07e64e844e2a453e6af5ddb3adc24e",
    "zagier-probe": "af142a4642e989ffb53d04eaf253b6007ff861f789ee40d0deacf760b9dd2808",
    "check-p --M 200": "91310da92cf38e1ff2848033272f68cde56892483dd8d1486bc4bb3652572136",
    "enumerate --M 150": "6364cbffd078265cc0176415ca0ad5c4e32bdeb580442ef17dbbd39cfb0dc14f",
    "zagier-probe --H 15": "fb4ad419cd54b50e66e987ba547b7dfd8426e18d5f23bff1c7136b4550f1489c",
    "check-f --M 500": "42402980223da0a2d4ca50eaf3731996c8b7721c3d335a1960f4d92c7df6cf51",
    "check-p --M 100000": "6f5408a5d712cf8cfbbb35c4c53c91005a50a9c39e5158df7c0a80e1c49477dd",
    "check-p --curve 1/16,-1/64 --gen 1/4,1/8 --M 20000": "4ead3f9eb221f18de1bce7c23c458045b7153a6747035f3a7a32e40f3efa7ffa",
}


def check(inv: Invocation, code: int, out: bytes) -> list:
    """Every way the output of `inv` differs from what it must be; empty if none."""
    problems = []
    if code != inv.exit_code:
        problems.append(f"exit code {code}, expected {inv.exit_code}")
    if inv.sha256 is not None:
        digest = hashlib.sha256(out).hexdigest()
        if digest != inv.sha256:
            problems.append(f"stdout sha256 {digest}, expected {inv.sha256}")
    if inv.csv_rows is not None:
        problems.extend(_check_orbit_csv(out, inv.csv_rows))
    return problems


def is_known_defect(inv: Invocation, code: int, err: bytes) -> bool:
    """True when the failure is exactly the seed's recorded one."""
    return inv.known_defect is not None and code == 1 and inv.known_defect.encode() in err


def report_counts(out: bytes) -> tuple:
    """(total_scanned, number of classes) of a collision report; (0, 0) for any other output."""
    try:
        report = json.loads(out)
    except ValueError:
        return 0, 0
    if not isinstance(report, dict):
        return 0, 0
    return report.get("total_scanned", 0), len(report.get("classes", ()))


def _check_orbit_csv(out: bytes, rows: int) -> list:
    """The orbit CSV has its header, 2M rows labelled 1, -1, 2, -2, ...,
    every point exactly on the curve, -m*G the negation of m*G, and G first."""
    lines = out.decode(errors="replace").splitlines()
    if not lines or lines[0] != "label,x,y":
        return ["CSV header is not 'label,x,y'"]
    if len(lines) - 1 != rows:
        return [f"CSV has {len(lines) - 1} rows, expected {rows}"]
    points = []
    for i, line in enumerate(lines[1:]):
        m = i // 2 + 1
        try:
            label, x, y = line.split(",")
            label, x, y = int(label), Fraction(x), Fraction(y)
        except (ValueError, ZeroDivisionError):
            return [f"CSV row {i + 1} is not label,x,y with an integer and two rationals"]
        if label != (m if i % 2 == 0 else -m):
            return [f"CSV row {i + 1} has label {label}"]
        if y * y != x**3 + CURVE_A * x + CURVE_B:
            return [f"CSV row {i + 1} is not on the curve"]
        points.append((x, y))
    if points[0] != GENERATOR:
        return ["CSV row 1 is not the generator"]
    for i in range(0, rows, 2):
        if points[i + 1] != (points[i][0], -points[i][1]):
            return [f"CSV row {i + 2} is not the negation of row {i + 1}"]
    return []
