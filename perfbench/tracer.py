"""Run one ecinj CLI invocation in-process with its layer calls timed.

    python -X importtime perfbench/tracer.py <ecinj arguments...>

The public functions of each ecinj module are wrapped from outside the
program (every module binding of a function is replaced, so from-imports
are covered, and methods are replaced on their class), then
`ecinj.cli.main(argv)` runs as the console script would run it.  The CLI's
stdout and exit code pass through unchanged.

Each call is a span.  Spans close into per-name totals kept in memory (call
count and self time, which is the span's duration minus the duration of the
wrapped calls inside it); the hot mod-p layer closes hundreds of thousands
of spans per invocation, so single spans are not kept.  The totals, the
time of `import ecinj.cli` and the `-X importtime` cumulative time of
`ecinj.weierstrass` are written as the last stderr line, after MARKER.
"""

import inspect
import json
import sys
import time

MARKER = "perfbench-trace: "

# (module, attribute path) of every wrapped layer function.
TARGETS = (
    ("curve", "add"),
    ("curve", "scalar_mul"),
    ("curve", "on_curve"),
    ("injection", "UniquenessFunction.eval_P"),
    ("points", "orbit"),
    ("rational", "format_rational"),
    ("modular", "CurveModP.__init__"),
    ("modular", "CurveModP.add"),
    ("modular", "fraction_mod"),
    ("collisions", "f_injectivity_scan"),
    ("collisions", "p_injectivity_scan"),
    ("collisions", "collision_scan"),
    ("pairing", "zagier_eval"),
    ("real_locus", "slope_bound"),
    ("real_locus", "density_report"),
    ("polyroots", "isolate_real_roots"),
    ("polyroots", "refine_root"),
    ("weierstrass", "periods"),
    ("weierstrass", "Lattice.wp"),
    ("weierstrass", "laurent_fit"),
    ("reporting", "canonical_json"),
)


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, self seconds]
        self._child = [0.0]  # per open span: time covered by its wrapped children

    def _enter(self):
        self._child.append(0.0)
        return time.perf_counter()

    def _leave(self, name, t0, count):
        dur = time.perf_counter() - t0
        child = self._child.pop()
        self._child[-1] += dur
        st = self.stats.setdefault(name, [0, 0.0])
        st[0] += count
        st[1] += dur - child

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # The work happens in next(), so each next() is a span.
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                self.stats.setdefault(name, [0, 0.0])[0] += 1
                while True:
                    t0 = self._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, t0, 0)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, t0, 1)

        return traced

    def install(self, targets):
        """Replace each target in its class, or in every ecinj module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ecinj" or n.startswith("ecinj.")]
        for mod_name, path in targets:
            owner = sys.modules[f"ecinj.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(f"{mod_name}.{path}", original)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def main(argv):
    t0 = time.perf_counter()
    import ecinj.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        code = ecinj.cli.main(argv)
    finally:
        sys.stdout.flush()
        print(MARKER + json.dumps({"cli.import_s": import_s, "spans": tracer.stats}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
