"""Own peak RSS of scan processes: the P-scan's residues mod p, sorted in
place, are the only memory that grows with the scan, and a pair scan holds
one partition of its keys at a time.

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
    # check-p --M 100000 walks 200,000 orbit points mod p twice: first into
    # the uint32 residues mod p (0.76 MiB), sorted in place and freed, then
    # for the candidates alone against the table of their runs; the walks
    # stream their blocks through buffers allocated once, and no key mod N
    # is built.  Measured over the default check-p (2-vCPU host, 10 runs):
    # 0.7-1.1 MiB, against 1.6-1.8 MiB when the scan sorted a copy of its
    # residues and walked a second prime in full
    (base_code, base), (code, peak) = own_peaks_kib(["check-p"], ["check-p", "--M", "100000"])
    assert (base_code, code) == (0, 0)
    assert peak - base <= 2 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_p_scan_peak_is_4_bytes_a_point():
    # check-p --M 1000000: 2 * 10**6 orbit points at 4 bytes a point, the
    # residues mod p sorted in place (7.6 MiB), and 1,146 candidates mod p,
    # whose residues mod the next prime split every run.  Measured over the
    # default check-p (2-vCPU host): 8.0-8.2 MiB, against 15.3-15.4 MiB when
    # the scan sorted a copy of its residues; the allowance is 4 bytes a
    # point and 1 MiB for the walk's buffers of 2**14 points and the
    # allocator
    (base_code, base), (code, peak) = own_peaks_kib(["check-p"], ["check-p", "--M", "1000000"])
    assert (base_code, code) == (0, 0)
    assert peak - base <= 4 * 2 * 10**6 // 1024 + 1024
