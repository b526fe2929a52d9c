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

No command loads `logging` either, which brings `traceback` and `string`,
about 0.5 MiB of every process: `-v` writes the scans' progress lines
through a plain hook.  `cmath` loads only with mpmath, and in
`weierstrass-verify`.  Interpreters differ in what their `site` imports,
so these stdlib modules are compared with a bare interpreter that imports
the same libraries as the commands.

The scans freeze the heap once, when numpy loads (`collisions._numpy`),
so the exit collection does not walk numpy's module cycles; no other
command freezes, and a second scan in one process does not freeze again.

Each probe runs in a fresh interpreter, because this one already holds
numpy and its heap is frozen once its first scan has run.
"""

import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecinj.cli

ROOT = Path(__file__).resolve().parents[1]

# stdlib modules that no command may add to a bare interpreter's
STDLIB = ("logging", "traceback", "cmath")

PROBE = """
import gc, json, os, sys
import ecinj.cli

STDLIB = %r

ecinj.cli.build_parser()
state = {"ecinj": sorted(n for n in sys.modules if n.startswith("ecinj.")), "codes": []}
for argv in json.loads(sys.argv[1]):
    state["codes"].append(ecinj.cli.main(argv + ["--out", os.devnull]))
state["loaded"] = sorted(
    n for n in ("numpy", "numpy.ma", "mpmath", "hashlib", "_hashlib") if n in sys.modules
)
state["stdlib"] = sorted(n for n in STDLIB if n in sys.modules)
state["frozen"] = gc.get_freeze_count()
state["libcrypto"] = None
if sys.platform == "linux":
    with open("/proc/self/maps") as maps:
        state["libcrypto"] = any("libcrypto" in line for line in maps)
print(json.dumps(state))
""" % (STDLIB,)

BARE = """
import json, sys
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps(sorted(n for n in %r if n in sys.modules)))
""" % (STDLIB,)

LIGHT_COMMANDS = [["curve-info"], ["enumerate"], ["slope-bound"], ["cantor"]]
ALL_COMMANDS = LIGHT_COMMANDS + [
    ["density"], ["check-p"], ["check-f"], ["zagier-probe"], ["weierstrass-verify"],
]


def python(*args):
    """The JSON that a fresh interpreter prints, run with ecinj importable."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def probe(*commands):
    return python("-c", PROBE, json.dumps(list(commands)))


def added_stdlib(state):
    """The STDLIB modules that the probe holds and a bare interpreter that
    imports the same libraries does not."""
    return set(state["stdlib"]) - set(python("-c", BARE, *state["loaded"]))


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
    assert added_stdlib(state) == set()
    assert state["frozen"] == 0


def test_density_loads_mpmath_only():
    # its elliptic logarithms and periods come from mpmath
    state = probe(["density"])
    assert state["codes"] == [0]
    assert state["loaded"] == ["mpmath"]
    assert state["frozen"] == 0


def test_check_p_loads_numpy_only():
    state = probe(["check-p"])
    assert state["codes"] == [0]
    assert state["loaded"] == ["numpy"]
    assert added_stdlib(state) == set()


def test_pair_scans_load_numpy_only():
    state = probe(["check-f"], ["zagier-probe"])
    assert state["codes"] == [0, 0]
    assert state["loaded"] == ["numpy"]
    assert added_stdlib(state) == set()


def test_finite_order_scans_load_neither_library():
    # a generator of finite order is scanned exactly, without the engine
    state = probe(
        ["check-p", "--curve=-2,1", "--gen", "0,1", "--M", "50"],
        ["check-f", "--curve=-2,1", "--gen", "0,1", "--M", "1"],
    )
    assert state["codes"] == [2, 0]
    assert state["loaded"] == []
    assert added_stdlib(state) == set()
    assert state["frozen"] == 0


def test_weierstrass_verify_loads_both_libraries():
    # mpmath for the periods, numpy for the Laurent fit
    state = probe(["weierstrass-verify"])
    assert state["codes"] == [0]
    assert state["loaded"] == ["mpmath", "numpy"]
    # its numpy import is its own, outside the scans' freeze
    assert state["frozen"] == 0


@pytest.mark.parametrize("argv", [["check-p"], ["check-f"], ["zagier-probe"]])
def test_each_scan_freezes_the_heap(argv):
    state = probe(argv)
    assert state["codes"] == [0]
    assert state["frozen"] > 0


def test_the_heap_is_frozen_once_per_process():
    argv = ["check-p", "--M", "400", "--out", os.devnull]
    assert ecinj.cli.main(argv) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    # tracked objects made after the first freeze, which a second one would add
    kept = [[] for _ in range(1000)]
    assert ecinj.cli.main(argv) == 0
    assert gc.get_freeze_count() == frozen
    del kept


def test_no_command_loads_openssl():
    state = probe(*ALL_COMMANDS)
    assert state["codes"] == [0] * len(ALL_COMMANDS)
    assert not {"hashlib", "_hashlib"} & set(state["loaded"])
    assert not state["libcrypto"]


def test_no_command_loads_logging():
    # -v hands each progress line to a plain hook; mpmath brings cmath
    # to the commands that load it
    commands = [argv + flag for argv in ALL_COMMANDS for flag in ([], ["-v"])]
    state = probe(*commands)
    assert state["codes"] == [0] * len(commands)
    assert state["loaded"] == ["mpmath", "numpy"]
    assert added_stdlib(state) == set()
