"""Own peak RSS of scan processes: the P-scan's keys, and the residues they
are built from, are the only memory that grows with the scan, and a pair
scan holds one partition of its keys at a time.

A small launcher interpreter starts each scan with `posix_spawn` and reads
its `ru_maxrss` from `os.wait4`.  The test process itself does not spawn
them: a child's `ru_maxrss` counts the pages it shares with its parent
until `exec`, so this process's size (pytest with numpy) would floor theirs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LAUNCHER = """
import json, os, sys
cli = "import sys; from ecinj.cli import main; sys.exit(main(sys.argv[1:]))"
peaks = []
for argv in json.loads(sys.argv[1]):
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", cli, *argv, "--out", os.devnull], os.environ)
    _, status, usage = os.wait4(pid, 0)
    peaks.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss])
print(json.dumps(peaks))
"""


def own_peaks_kib(*commands):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, json.dumps(list(commands))],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_f_scan_peak_is_its_keys():
    # check-f --M 1000 (4 * 10**6 pairs, 30.5 MiB of uint64 keys) and
    # zagier-probe --H 60 (1.9 * 10**7 pairs) hold their items, their row
    # arrays and one partition at a time, 24 bytes a key while it is
    # gathered; a default check-p, which loads numpy for a small scan, is
    # the baseline.  Measured over it (2-vCPU host, 4 runs): the f-scan
    # 1.3-1.4 MiB, and the probe 3.0-3.1 MiB, of which tracemalloc sees
    # 0.35 MiB of items (the rationals and their keys) and 2.1 MiB in the
    # pair scan, 1.7 MiB of it the largest partition (76,181 keys); the
    # rest of the allowance, about 0.9 MiB, is the allocator's slack
    (base_code, base), *scans = own_peaks_kib(
        ["check-p"], ["check-f", "--M", "1000"], ["zagier-probe", "--H", "60"],
    )
    assert (base_code, *(code for code, _ in scans)) == (0, 0, 0)
    assert all(peak - base <= 4 * 1024 for _, peak in scans)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_p_scan_peak_is_its_keys():
    # check-p --M 100000 keys 200,000 orbit points: two primes' uint32
    # residues and the uint64 keys (3.1 MiB), then the keys and their sorted
    # copy; the walk streams its blocks into the residues
    (base_code, base), (code, peak) = own_peaks_kib(["check-p"], ["check-p", "--M", "100000"])
    assert (base_code, code) == (0, 0)
    assert peak - base <= 5 * 1024
