"""Start-up contract: numpy and mpmath load only in the commands that use
them, while `import ecinj.cli` still loads every ecinj module.  No command
loads `numpy.ma`, which numpy imports lazily for `np.unique` and which
costs 10-13 ms.

No command loads `hashlib` either, or maps OpenSSL's libcrypto: the config
digest comes from the interpreter's built-in SHA-256, and libcrypto would
add about 3.6 MiB to every command's peak RSS.  On Linux each probe reads
`/proc/self/maps` for it.  The contract names modules and mappings, not an
RSS threshold, because interpreters preload different stdlib modules in
`site`, so a threshold would not carry from one to another.

Each probe runs in a fresh interpreter, because this one already holds
numpy.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, os, sys
import ecinj.cli

ecinj.cli.build_parser()
state = {"ecinj": sorted(n for n in sys.modules if n.startswith("ecinj.")), "codes": []}
for argv in json.loads(sys.argv[1]):
    state["codes"].append(ecinj.cli.main(argv + ["--out", os.devnull]))
state["loaded"] = sorted(
    n for n in ("numpy", "numpy.ma", "mpmath", "hashlib", "_hashlib") if n in sys.modules
)
state["libcrypto"] = None
if sys.platform == "linux":
    with open("/proc/self/maps") as maps:
        state["libcrypto"] = any("libcrypto" in line for line in maps)
print(json.dumps(state))
"""

LIGHT_COMMANDS = [["curve-info"], ["enumerate"], ["slope-bound"], ["cantor"]]
ALL_COMMANDS = LIGHT_COMMANDS + [
    ["density"], ["check-p"], ["check-f"], ["zagier-probe"], ["weierstrass-verify"],
]


def probe(*commands):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(list(commands))],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"ecinj.{mod}" for mod, _ in tracer.TARGETS}


def test_importing_the_cli_loads_neither_library():
    state = probe()
    assert state["loaded"] == []
    assert not state["libcrypto"]
    # the layer tracer looks every one of these up right after `import ecinj.cli`
    assert tracer_targets() <= set(state["ecinj"])


def test_light_commands_load_neither_library():
    state = probe(*LIGHT_COMMANDS)
    assert state["codes"] == [0] * len(LIGHT_COMMANDS)
    assert state["loaded"] == []


def test_density_loads_mpmath_only():
    # its elliptic logarithms and periods come from mpmath
    state = probe(["density"])
    assert state["codes"] == [0]
    assert state["loaded"] == ["mpmath"]


def test_check_p_loads_numpy_only():
    state = probe(["check-p"])
    assert state["codes"] == [0]
    assert state["loaded"] == ["numpy"]


def test_pair_scans_load_numpy_only():
    state = probe(["check-f"], ["zagier-probe"])
    assert state["codes"] == [0, 0]
    assert state["loaded"] == ["numpy"]


def test_finite_order_scans_load_neither_library():
    # a generator of finite order is scanned exactly, without the engine
    state = probe(
        ["check-p", "--curve=-2,1", "--gen", "0,1", "--M", "50"],
        ["check-f", "--curve=-2,1", "--gen", "0,1", "--M", "1"],
    )
    assert state["codes"] == [2, 0]
    assert state["loaded"] == []


def test_weierstrass_verify_loads_both_libraries():
    # mpmath for the periods, numpy for the Laurent fit
    state = probe(["weierstrass-verify"])
    assert state["codes"] == [0]
    assert state["loaded"] == ["mpmath", "numpy"]


def test_no_command_loads_openssl():
    state = probe(*ALL_COMMANDS)
    assert state["codes"] == [0] * len(ALL_COMMANDS)
    assert not {"hashlib", "_hashlib"} & set(state["loaded"])
    assert not state["libcrypto"]
