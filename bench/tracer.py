"""Per-layer accounting for the traced run.

The tracer rebinds public names of pwscontract where its callers look them
up: every pwscontract module attribute that is the same object as the
function being traced is replaced by a timing wrapper, and restored by
``uninstall``. No source file of the program is touched. When a later
version stops looking a name up in some module, that binding is simply not
found and its counter reads 0.

Times are inclusive (a call into ``pairwise_contraction_test`` also counts
the ``integrate`` calls it makes). Each metric is summed over one round of
the workload and reported as the median over the rounds of the run, except
``model.load_ms``, the median time of one config load.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from importlib import import_module

MODULES = ("pwscontract", "pwscontract.cli", "pwscontract.model",
           "pwscontract.measure", "pwscontract.filippov",
           "pwscontract.regularize", "pwscontract.certify",
           "pwscontract.qsearch")

# per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.simulate_main_ms": "ms",
    "cli.certify_main_ms": "ms",
    "cli.regularize_main_ms": "ms",
    "model.load_ms": "ms",
    "filippov.integrate_ms": "ms",
    "filippov.integrate_calls": "count",
    "filippov.samples": "count",
    "filippov.slide_segments": "count",
    "filippov.cross_segments": "count",
    "filippov.csv_ms": "ms",
    "filippov.csv_bytes": "bytes",
    "regularize.study_ms": "ms",
    "regularize.integrate_ms": "ms",
    "regularize.samples": "count",
    "certify.vertex_ms": "ms",
    "certify.grid_ms": "ms",
    "certify.regularized_ms": "ms",
    "certify.pairwise_ms": "ms",
    "measure.calls": "count",
    "measure.ms": "ms",
    "qsearch.probes": "count",
    "qsearch.nm_runs": "count",
    "qsearch.margin_evals": "count",
    "qsearch.cond_q_ex1": "ratio",
}
PER_CALL = {"model.load_ms"}


class Tracer:
    def __init__(self):
        self.current = defaultdict(float)
        self.rounds: list = []
        self.calls = defaultdict(list)
        self.fixed: dict = {}
        self.active = True  # the runner pauses recording while it checks outputs
        self._undo: list = []

    def add(self, key: str, value: float) -> None:
        if key in PER_CALL:
            self.calls[key].append(value)
        else:
            self.current[key] += value

    def set(self, key: str, value: float) -> None:
        self.current[key] = value

    def end_round(self) -> None:
        self.rounds.append(dict(self.current))
        self.current.clear()

    def metrics(self) -> dict:
        out = {}
        for name, unit in LAYER_METRICS.items():
            if name in self.fixed:
                value = self.fixed[name]
            elif name in PER_CALL:
                value = statistics.median(self.calls[name]) if self.calls[name] else 0.0
            else:
                value = statistics.median(r.get(name, 0.0) for r in self.rounds) \
                    if self.rounds else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def wrap(self, home: str, attr: str, on_call) -> None:
        """Time every call of ``home.attr`` made through a pwscontract module;
        ``on_call(ms, result, args, kwargs)`` records it."""
        orig = getattr(import_module(home), attr, None)
        if orig is None:
            return

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = orig(*args, **kwargs)
            if self.active:
                on_call((time.perf_counter() - t0) * 1e3, result, args, kwargs)
            return result

        for name in MODULES:
            mod = import_module(name)
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)
                self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def install(self) -> None:
        add = self.add

        def timed(key):
            return lambda ms, res, args, kw: add(key, ms)

        def on_measure(ms, res, args, kw):
            add("measure.ms", ms)
            add("measure.calls", 1)

        def on_minimize(ms, res, args, kw):
            add("qsearch.nm_runs", 1)
            add("qsearch.margin_evals", int(getattr(res, "nfev", 0)))

        def on_integrate(ms, traj, args, kw):
            add("filippov.integrate_ms", ms)
            add("filippov.integrate_calls", 1)
            add("filippov.samples", len(traj.times))
            add("filippov.slide_segments", sum(s.kind == "slide" for s in traj.segments))
            add("filippov.cross_segments", sum(s.kind == "cross" for s in traj.segments))

        def on_csv(ms, res, args, kw):
            add("filippov.csv_ms", ms)
            add("filippov.csv_bytes", args[1].tell())  # the file is opened fresh

        def on_check(ms, res, args, kw):
            strategy = kw.get("strategy", args[3] if len(args) > 3 else "vertex")
            add(f"certify.{strategy}_ms", ms)

        def on_reg_integrate(ms, traj, args, kw):
            add("regularize.integrate_ms", ms)
            add("regularize.samples", len(traj.times))

        self.wrap("pwscontract.measure", "matrix_measure", on_measure)
        self.wrap("pwscontract.qsearch", "minimize", on_minimize)
        self.wrap("pwscontract.qsearch", "search_certificate",
                  lambda ms, res, a, kw: add("qsearch.probes", len(res.trace)))
        self.wrap("pwscontract.model", "load_system_file", timed("model.load_ms"))
        self.wrap("pwscontract.filippov", "integrate", on_integrate)
        self.wrap("pwscontract.filippov", "write_trajectory_csv", on_csv)
        self.wrap("pwscontract.regularize", "convergence_study",
                  timed("regularize.study_ms"))
        self.wrap("pwscontract.regularize", "integrate_regularized", on_reg_integrate)
        for name in ("check_chain_certificate", "check_cross_certificate"):
            self.wrap("pwscontract.certify", name, on_check)
        for name in ("check_regularized_chain", "check_regularized_cross"):
            self.wrap("pwscontract.certify", name, timed("certify.regularized_ms"))
        self.wrap("pwscontract.certify", "pairwise_contraction_test",
                  timed("certify.pairwise_ms"))


def parse_importtime(stderr: str) -> tuple:
    """(ms importing pwscontract, ms importing scipy) from ``python -X
    importtime`` output. scipy counts each outermost scipy import once."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, field = line.split("|")
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        rows.append((depth, field.strip(), int(cum_us)))
    pws = sum(cum for depth, name, cum in rows
              if depth == 0 and name.split(".")[0] == "pwscontract")
    scipy = 0
    stack: list = []
    for depth, name, cum in reversed(rows):  # parents precede children
        del stack[depth:]
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in stack):
            scipy += cum
        stack.append(name)
    return pws / 1e3, scipy / 1e3
