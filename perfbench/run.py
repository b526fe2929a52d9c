"""ecinj benchmark: pinned CLI invocations, each in a fresh child process.

    python3 perfbench/run.py --workload desk|fscan|pscan|all --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  A pass runs every invocation of the workload once, serially, in
an order drawn from --seed; passes repeat until the next one would end after
--seconds.  Every output is checked after it is produced (see workloads.py);
checking is not timed.

--trace 0 prints the end-to-end metrics: the median pass wall time, scan
throughput and largest child peak RSS, the median start-up time of a fresh
interpreter that imports the CLI, and the share of invocations that passed
their checks.  Times are adjusted to the baseline host's median speed
(hostspeed.py): each child's wall time is divided by how slow a fixed
reference computation ran just before and just after it; the times as
measured are printed beside them.  --trace 1 alternates untraced passes with passes run through
tracer.py and prints the per-layer metrics named in BENCHMARK.json.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import Clock
from tracer import MARKER, TARGETS
from workloads import WORKLOADS, check, is_known_defect, report_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# What the `ecinj` console script runs.
CLI = "import sys; from ecinj.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = "import ecinj.cli; ecinj.cli.build_parser()"
SETUP_PER_PASS = 3
SCAN_COMMANDS = {"check-p", "check-f", "zagier-probe"}
# A hung child is killed and fails its check; the run still ends within three minutes.
CHILD_TIMEOUT_S = 60
# Span whose call count is reported under another name.
CALLS_METRIC = {"modular.CurveModP.__init__": "modular.primes_tried"}
# What a traced child that crashed before writing its totals counts as.
NO_TRACE = {"spans": {}, "cli.import_s": 0.0}


@dataclass
class Child:
    wall: float  # spawn to reap, as measured
    adjusted: float  # `wall` at the baseline host's median speed (hostspeed.py)
    rss_mb: float
    code: int
    out: bytes
    err: bytes


def child_env() -> dict:
    # No inherited PYTHON* setting (such as PYTHONDONTWRITEBYTECODE, which
    # would recompile ecinj in every child) changes how the children run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("ECINJ_MEMORY_CEILING", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, env, clock: Clock) -> Child:
    """Run `python args...`; wall time from spawn to reap, peak RSS of this child alone."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the
        # maximum over every child reaped so far.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(wall, clock.adjusted(wall), usage.ru_maxrss / 1024, proc.returncode, out, err[0])


def split_trace(err: bytes):
    """(tracer totals, ecinj.weierstrass import seconds, the CLI's own stderr)."""
    trace, weierstrass_s, rest = None, 0.0, []
    for line in err.decode(errors="replace").splitlines():
        if line.startswith(MARKER):
            trace = json.loads(line[len(MARKER):])
        elif line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if fields[-1].strip() == "ecinj.weierstrass":
                weierstrass_s += int(fields[1]) / 1e6
        else:
            rest.append(line)
    return trace, weierstrass_s, "\n".join(rest).encode()


class Workload:
    def __init__(self, name, seed, env):
        self.name = name
        self.invocations = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.env = env
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.metrics = {}

    def run_pass(self, traced=False) -> list:
        """[(invocation, Child, tracer totals or None)] in this pass's order."""
        order = list(self.invocations)
        self.rng.shuffle(order)
        runs = []
        for inv in order:
            trace, problems = None, []
            if traced:
                child = run_child(["-X", "importtime", str(HERE / "tracer.py"), *inv.argv], self.env, self.clock)
                trace, weierstrass_s, child.err = split_trace(child.err)
                if trace is None:
                    problems.append("tracer wrote no totals")
                    trace = NO_TRACE
                trace = {**trace, "weierstrass.import_s": weierstrass_s}
            else:
                child = run_child(["-c", CLI, *inv.argv], self.env, self.clock)
            # Checked after the child is reaped, so outside its timed span.
            problems += check(inv, child.code, child.out)
            self.attempted += 1
            if problems:
                self.failed += 1
                known = is_known_defect(inv, child.code, child.err)
                self.correct &= known
                note = " (known defect, counted as failed)" if known else ""
                print(f"{self.name}: {inv.name}: {'; '.join(problems)}{note}", file=sys.stderr)
            runs.append((inv, child, trace))
        return runs


def repeat(seconds, one_pass) -> list:
    """Run passes until the next one, if as long as the last, would end after `seconds`."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def pass_wall(runs, as_measured=False) -> float:
    return sum(child.wall if as_measured else child.adjusted for _, child, _ in runs)


def end_to_end(wl: Workload, seconds: float) -> dict:
    run_child(["-c", SETUP], wl.env, wl.clock)  # warm the bytecode and file caches
    setup = []

    def one_pass():
        # Start-up is sampled before every pass, not in one burst, because
        # CPU speed on a shared host drifts over seconds.
        setup.extend(run_child(["-c", SETUP], wl.env, wl.clock) for _ in range(SETUP_PER_PASS))
        return wl.run_pass()

    passes = repeat(seconds, one_pass)
    throughput = []
    for runs in passes:
        scans = [(inv, child) for inv, child, _ in runs if inv.argv[0] in SCAN_COMMANDS]
        throughput.append(sum(report_counts(c.out)[0] for _, c in scans) / sum(c.adjusted for _, c in scans))
    return {
        "wall_s": [pass_wall(r) for r in passes],
        "scanned_per_s": throughput,
        "peak_rss_mb": [max(c.rss_mb for _, c, _ in r) for r in passes],
        "setup_s": [c.adjusted for c in setup],
        "pass_rate": [(wl.attempted - wl.failed) / wl.attempted],
        # Printed beside the metrics, not reported: the same times before adjusting.
        "wall_s as measured": [pass_wall(r, as_measured=True) for r in passes],
        "setup_s as measured": [c.wall for c in setup],
    }


def layer_sums(runs) -> dict:
    """Per-layer metrics summed over one traced pass; 0 for a layer never called."""
    sums = {}

    def add(metric, value):
        sums[metric] = sums.get(metric, 0) + value

    for mod, path in TARGETS:
        add(CALLS_METRIC.get(f"{mod}.{path}", f"{mod}.{path}.calls"), 0)
        add(f"{mod}.{path}.self_s", 0.0)
    for _, child, trace in runs:
        for name, (calls, self_s) in trace["spans"].items():
            add(CALLS_METRIC.get(name, f"{name}.calls"), calls)
            add(f"{name}.self_s", self_s)
        add("cli.import_s", trace["cli.import_s"])
        add("weierstrass.import_s", trace["weierstrass.import_s"])
        scanned, classes = report_counts(child.out)
        add("collisions.scanned", scanned)
        add("collisions.classes", classes)
    return sums


def per_layer(wl: Workload, seconds: float) -> dict:
    pairs = repeat(seconds, lambda: (wl.run_pass(), wl.run_pass(traced=True)))
    sums = [layer_sums(traced) for _, traced in pairs]
    samples = {metric: [s[metric] for s in sums] for metric in sums[0]}
    samples["tracing.overhead_s"] = [
        statistics.median(pass_wall(t) for _, t in pairs) - statistics.median(pass_wall(u) for u, _ in pairs)
    ]
    return samples


def summary_line(workload, name, value, values, unit) -> str:
    if len(values) < 2:
        return f"{workload} {name} = {value:.6g} {unit} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{workload} {name} = {value:.6g} {unit} (median of n={len(values)}; quartiles {q1:.6g} .. {q3:.6g})"


def run_workload(name, seed, seconds, trace, wanted, env) -> Workload:
    """Run one workload; `wanted` is BENCHMARK.json's [{"name", "unit", ...}] to report."""
    wl = Workload(name, seed, env)
    samples = per_layer(wl, seconds) if trace else end_to_end(wl, seconds)
    for metric in wanted:
        values, unit = samples[metric["name"]], metric["unit"]
        # A count is reported as one of its samples, so it stays a whole number.
        value = statistics.median_low(values) if unit == "count" else statistics.median(values)
        print(summary_line(name, metric["name"], value, values, unit))
        wl.metrics[metric["name"]] = {"value": value, "unit": unit}
    if not trace:
        for metric in ("wall_s as measured", "setup_s as measured"):
            values = samples[metric]
            print(summary_line(name, metric, statistics.median(values), values, "s"))
        print(f"{name} error_rate = {wl.failed}/{wl.attempted} = {wl.failed / wl.attempted:.4f} ratio")
    return wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM so that run_child stops its child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    expected = SRC / "ecinj" / "__init__.py"
    probe = subprocess.run(
        [sys.executable, "-c", "import ecinj; print(ecinj.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if probe.returncode != 0 or not expected.exists() or Path(probe.stdout.strip()).resolve() != expected.resolve():
        print(f"cannot import ecinj from {SRC}: {probe.stderr.strip()}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the CSV checks parse orbit coordinates of any size

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    done = [run_workload(n, args.seed, seconds, args.trace, wanted, env) for n in names]
    metrics = {
        (m if len(done) == 1 else f"{wl.name}.{m}"): v for wl in done for m, v in wl.metrics.items()
    }
    print(json.dumps({
        "correct": all(wl.correct for wl in done),
        "attempted": sum(wl.attempted for wl in done),
        "failed": sum(wl.failed for wl in done),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
