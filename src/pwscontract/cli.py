"""Command-line front end: simulation, certificate checks, convergence
sweeps, metric search, pairwise decay tests, and golden reproduction of the
two shipped example systems.

Exit codes: 0 success/pass, 1 analytic fail, 2 escaping-region halt,
3 numerical refusal, 64 usage error. All floating-point output uses 17
significant digits so that identical command lines produce identical files.
Each output gets a ``*.manifest.json`` with the options, the import time
``import_s`` and the wall time ``wall_time_s``; the ``simulate`` and
``reproduce`` manifests record under ``results`` the first sample of a
trajectory outside the box (``box_exit``, ``box_exits`` per golden start),
which changes no exit code and no data output. A run from the shell counts
both from the first statement of the package import: ``import_s`` ends where
this module's own imports end (numpy, ``measure`` and ``model``), and
``wall_time_s`` when the manifest is written. The modules that only some
commands use (``filippov``, ``regularize``, ``certify``, ``qsearch``) are
imported inside those commands, so their import counts in the wall time
only; ``certify`` and ``search-q`` never load the Filippov solver.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import _IMPORT_T0, __version__
from .measure import Metric, matrix_measure
from .model import (
    ConfigError,
    EscapingRegionError,
    IntersectionAssumptionError,
    NonFiniteStateError,
    PwsSystem,
    StepUnderflowError,
    StiffStepError,
    TopologyError,
    builtin_config_path,
    load_system_file,
)

# a run from the shell counts the package import from its stamp to here; the
# modules of the commands (filippov, regularize, certify, qsearch) load in
# the command
_IMPORT_S = time.perf_counter() - _IMPORT_T0

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ESCAPING = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

# the program refused to compute (or to return) a result it cannot trust
_NUMERICAL_REFUSALS = (StiffStepError, NonFiniteStateError, StepUnderflowError,
                       TopologyError, IntersectionAssumptionError)


class UsageError(ValueError):
    pass


# golden values for the reproduce command
_GOLDEN = {
    1: {
        "mu": [-0.50, -0.80, -0.88],
        "c": 0.5,
        "equilibrium": [0.5, 0.0],
        "pairwise_t_final": 10.0,
    },
    2: {
        "mu": [-3.76, -1.88, -1.87, -7.88],
        "c": 1.87,
        "equilibrium": [1.1, 0.45],
        "pairwise_t_final": 5.0,
    },
}
_GOLDEN_STARTS = [(-5.0, -5.0), (-5.0, 5.0), (5.0, -5.0), (5.0, 5.0),
                  (-3.0, -4.0), (-0.3, 2.0), (4.0, -3.0), (2.0, 4.0)]
_MU_TOL = 0.01
_EQ_TOL = 1e-4


def _bounded(cast, low, strict: bool, what: str):
    """argparse type: a finite number at least ``low`` (above it if strict);
    anything else is a usage error."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number {text!r}")
        if not math.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value

    return parse


_POSITIVE = _bounded(float, 0.0, True, "must be a finite positive number")
_T_FINAL = _bounded(float, 0.0, False, "final time must be a finite number >= 0")
_PAIRS = _bounded(int, 1, False, "pair count must be a positive integer")
_TOL_DECAY = _bounded(float, 0.0, False, "decay tolerance must be a finite number >= 0")


def _load_config(name_or_path: str) -> tuple:
    path = Path(name_or_path)
    if path.is_file():
        return load_system_file(path), str(path)
    try:
        ref = builtin_config_path(name_or_path)
    except ConfigError:
        raise UsageError(
            f"config {name_or_path!r} is neither a file nor a builtin name "
            "(builtins: example1, example2)")
    return load_system_file(ref), f"builtin:{name_or_path}"


def _parse_vector(text: str, n: int) -> np.ndarray:
    try:
        v = np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"cannot parse vector {text!r}")
    if v.shape != (n,):
        raise UsageError(f"vector {text!r} must have {n} components")
    return v


def _parse_start(system: PwsSystem, text: str, t_final: float) -> np.ndarray:
    """x0 of a run; a usage error unless ``_check_start`` accepts it."""
    from .filippov import _check_start

    x0 = _parse_vector(text, system.dimension)
    try:
        return _check_start(system, x0, t_final)[0]
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_metric(system: PwsSystem, q_arg: str, c_value) -> Metric:
    n = system.dimension
    if q_arg == "identity":
        Q = np.eye(n)
    elif q_arg == "config":
        if system.metric is None:
            raise UsageError("config embeds no metric; pass --Q identity or diag:...")
        Q = system.metric.Q
    elif q_arg.startswith("diag:"):
        Q = np.diag(_parse_vector(q_arg[5:], n))
    else:
        raise UsageError(f"--Q must be identity, config, or diag:v1,...,vn")
    if c_value is None:
        if system.metric is None:
            raise UsageError("no rate given: pass --c or embed a metric in the config")
        c_value = system.metric.c
    try:
        return Metric(Q, float(c_value))
    except ValueError as exc:
        raise UsageError(str(exc))


def _write_manifest(out_path: Path, args, command: str, config: str,
                    options: dict, outputs: list, results: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "import_s": args.import_s,
        "options": options,
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - args.t0,
    }
    if results is not None:
        manifest["results"] = results
    _write_json(out_path.with_suffix(out_path.suffix + ".manifest.json"), manifest)


def _write_json(path: Path, doc: dict) -> None:
    """Write a data output or a manifest; a non-finite number is refused, not
    written as the invalid JSON tokens NaN or Infinity."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


def _check_certificate(system: PwsSystem, metric: Metric, strategy: str):
    from .certify import check_chain_certificate, check_cross_certificate

    if system.topology == "chain":
        return check_chain_certificate(system, metric, strategy=strategy)
    return check_cross_certificate(system, metric, strategy=strategy)


def _box_exit(traj) -> dict | None:
    """A trajectory's first sample outside the box, for a manifest."""
    if traj.box_exit is None:
        return None
    t, x = traj.box_exit
    return {"t": t, "state": x.tolist()}


def cmd_simulate(args) -> int:
    from .filippov import SolverOptions, integrate, write_trajectory_csv

    system, config = _load_config(args.config)
    x0 = _parse_start(system, args.x0, args.t_final)
    opts = SolverOptions(step=args.step)
    out = Path(args.out)
    traj = integrate(system, x0, args.t_final, opts)
    with open(out, "w", encoding="utf-8") as fh:
        write_trajectory_csv(traj, fh)
    _write_manifest(out, args, "simulate", config,
                    {"x0": list(x0), "t_final": args.t_final, "step": args.step},
                    [out], {"box_exit": _box_exit(traj)})
    print(f"wrote {out} ({len(traj.times)} samples, "
          f"{sum(1 for s in traj.segments if s.kind == 'slide')} sliding segments)")
    return EXIT_OK


def cmd_certify(args) -> int:
    from .certify import CertificateError

    system, config = _load_config(args.config)
    metric = _parse_metric(system, args.Q, args.c)
    try:
        report = _check_certificate(system, metric, args.strategy)
    except CertificateError as exc:
        print(f"certificate check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    out = Path(args.out)
    _write_json(out, report.to_dict())
    _write_manifest(out, args, "certify", config,
                    {"Q": args.Q, "c": metric.c, "strategy": args.strategy},
                    [out])
    for cond in report.conditions:
        print(f"{cond.cond_id:<18} worst={cond.worst: .12g} "
              f"margin={cond.margin: .12g} {cond.status}".rstrip())
    print(f"verdict: {'pass' if report.passed else 'fail'} "
          f"(rate c={metric.c:.17g})")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_regularize(args) -> int:
    from .filippov import SolverOptions
    from .regularize import _regularizations, convergence_study, write_convergence_csv

    system, config = _load_config(args.config)
    x0 = _parse_start(system, args.x0, args.t_final)
    try:
        regs = _regularizations(system, args.eps.split(","))
    except ValueError as exc:
        raise UsageError(f"bad eps list {args.eps!r}: {exc}")
    eps_list = [reg.eps for reg in regs]
    opts = SolverOptions(step=args.step)
    table = convergence_study(system, x0, args.t_final, eps_list, opts)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        write_convergence_csv(table, fh)
    _write_manifest(out, args, "regularize", config,
                    {"x0": list(x0), "t_final": args.t_final, "eps": eps_list,
                     "step": args.step},
                    [out], {"monotone_decreasing": table.is_monotone_decreasing()})
    for eps, gap, _ in table.rows:
        print(f"eps={eps:.6g}  sup_gap={gap:.6g}")
    print(f"fitted log-log slope: {table.fitted_slope:.4f}")
    return EXIT_OK


def cmd_search_q(args) -> int:
    from .qsearch import SearchOptions, search_certificate

    system, config = _load_config(args.config)
    try:
        opts = SearchOptions(c_lo=args.c_lo, c_hi=args.c_hi)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = search_certificate(system, opts=opts)
    out = Path(args.out)
    doc = {"found": result.found, "reason": result.reason,
           "trace": [{"c": c, "margin": m if math.isfinite(m) else None}
                     for c, m in result.trace]}
    if result.found:
        doc["metric"] = {"Q": result.metric.Q.tolist(), "c": result.metric.c}
        doc["report"] = result.report.to_dict()
    _write_json(out, doc)
    _write_manifest(out, args, "search-q", config,
                    {"c_lo": args.c_lo, "c_hi": args.c_hi},
                    [out], result.stats)
    if result.found:
        print(f"found certificate with c={result.metric.c:.6g}")
        return EXIT_OK
    print(f"no certificate found: {result.reason}")
    return EXIT_FAIL


def cmd_pairwise(args) -> int:
    from .certify import pairwise_contraction_test
    from .filippov import SolverOptions

    system, config = _load_config(args.config)
    metric = _parse_metric(system, args.Q, args.c)
    rng = np.random.default_rng(args.seed)
    lo, hi = system.box.lower, system.box.upper
    pairs = [(rng.uniform(lo, hi), rng.uniform(lo, hi))
             for _ in range(args.pairs)]
    opts = SolverOptions(step=args.step)
    report = pairwise_contraction_test(system, metric, pairs, args.t_final,
                                       opts, tol_decay=args.tol_decay)
    out = Path(args.out)
    _write_json(out, report.to_dict())
    _write_manifest(out, args, "pairwise", config,
                    {"Q": args.Q, "c": metric.c, "pairs": args.pairs,
                     "seed": args.seed, "t_final": args.t_final,
                     "tol_decay": args.tol_decay},
                    [out])
    n_pass = sum(1 for e in report.entries if e["passed"])
    print(f"{n_pass}/{len(report.entries)} pairs satisfy the decay bound "
          f"at rate c={metric.c:.17g}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_reproduce(args) -> int:
    from .certify import pairwise_contraction_test
    from .filippov import SolverOptions, integrate

    example_id = args.example
    golden = _GOLDEN[example_id]
    system, config = _load_config(f"example{example_id}")
    metric = Metric.identity(system.dimension, golden["c"])
    diffs = []
    checks = []

    def record(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        line = "PASS" if ok else "FAIL"
        print(f"{line} {name}: {detail}")
        if not ok:
            diffs.append(f"{name}: {detail}")

    # matrix-measure goldens
    for i, target in enumerate(golden["mu"], start=1):
        mu = matrix_measure(metric.Q, system.modes[i - 1].affine.A)
        record(f"mu[{i}]", abs(mu - target) <= _MU_TOL,
               f"mu={mu:.6f}, golden {target:+.2f} (tol {_MU_TOL})")

    # certificate at the golden rate
    report = _check_certificate(system, metric, "vertex")
    record("certificate", report.passed,
           f"c={golden['c']} min margin {report.min_margin:.3g}")

    # equilibrium attraction from the fixed spread of initial states
    eq = np.array(golden["equilibrium"])
    opts = SolverOptions()
    worst = 0.0
    n_slide = 0
    box_exits = []
    for x0 in _GOLDEN_STARTS:
        traj = integrate(system, np.array(x0), 20.0, opts)
        worst = max(worst, float(np.linalg.norm(traj.final_state - eq)))
        n_slide += bool(traj.has_sliding())
        if traj.box_exit is not None:
            box_exits.append({"x0": list(x0), **_box_exit(traj)})
    record("equilibrium", worst <= _EQ_TOL,
           f"worst final distance {worst:.3g} to {eq.tolist()} (tol {_EQ_TOL})")
    record("sliding", n_slide >= 1,
           f"{n_slide}/{len(_GOLDEN_STARTS)} trajectories slide")

    # pairwise decay at the certified rate
    rng = np.random.default_rng(12345)
    lo, hi = system.box.lower, system.box.upper
    pairs = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(10)]
    pw = pairwise_contraction_test(system, metric, pairs,
                                   golden["pairwise_t_final"], opts)
    record("pairwise", pw.passed,
           f"{sum(e['passed'] for e in pw.entries)}/10 pairs decay at c={golden['c']}")

    out = Path(args.out)
    _write_json(out, {"example": example_id,
                      "verdict": "pass" if not diffs else "fail",
                      "checks": checks})
    _write_manifest(out, args, "reproduce", config, {"example": example_id},
                    [out], {"box_exits": box_exits})
    if diffs:
        print("golden mismatches:")
        for d in diffs:
            print(f"  {d}")
        return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwscontract",
        description="Filippov solutions and matrix-measure contraction "
                    "certificates for piecewise-smooth systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a Filippov trajectory")
    p.add_argument("--config", required=True,
                   help="config file path or builtin name (example1, example2)")
    p.add_argument("--x0", required=True, help="initial state, e.g. -3,-4")
    p.add_argument("--t-final", type=_T_FINAL, required=True, dest="t_final")
    p.add_argument("--step", type=_POSITIVE, default=1e-3)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certify", help="check a contraction certificate")
    p.add_argument("--config", required=True)
    p.add_argument("--Q", default="identity",
                   help="identity | config | diag:v1,...,vn")
    p.add_argument("--c", type=float, default=None, help="contraction rate")
    p.add_argument("--strategy", choices=["vertex", "grid"], default="vertex")
    p.add_argument("--out", default="certificate.json")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("regularize", help="band-width convergence study")
    p.add_argument("--config", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--t-final", type=_POSITIVE, required=True, dest="t_final")
    p.add_argument("--eps", default="1e-1,3e-2,1e-2,3e-3,1e-3",
                   help="strictly decreasing band half-widths")
    p.add_argument("--step", type=_POSITIVE, default=1e-3)
    p.add_argument("--out", default="convergence.csv")
    p.set_defaults(func=cmd_regularize)

    p = sub.add_parser("search-q", help="search for a certificate metric")
    p.add_argument("--config", required=True)
    p.add_argument("--c-lo", type=float, default=0.0, dest="c_lo")
    p.add_argument("--c-hi", type=float, default=10.0, dest="c_hi")
    p.add_argument("--out", default="search.json")
    p.set_defaults(func=cmd_search_q)

    p = sub.add_parser("pairwise", help="empirical pairwise decay test")
    p.add_argument("--config", required=True)
    p.add_argument("--Q", default="identity")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--pairs", type=_PAIRS, default=10)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--t-final", type=_POSITIVE, default=10.0, dest="t_final")
    p.add_argument("--tol-decay", type=_TOL_DECAY, default=1e-2, dest="tol_decay")
    p.add_argument("--step", type=_POSITIVE, default=1e-3)
    p.add_argument("--out", default="pairwise.json")
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser("reproduce",
                       help="rerun a shipped example against its golden values")
    p.add_argument("example", type=int, choices=[1, 2])
    p.add_argument("--out", default="reproduce.json")
    p.set_defaults(func=cmd_reproduce)
    return parser


_VECTOR_FLAGS = {"--x0"}


def _merge_vector_flags(argv: list) -> list:
    """Turn ['--x0', '-3,-4'] into ['--x0=-3,-4'] so argparse does not read a
    leading negative component as an option."""
    out = []
    i = 0
    while i < len(argv):
        if (argv[i] in _VECTOR_FLAGS and i + 1 < len(argv)
                and re.match(r"^-[\d.]", argv[i + 1])):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    """Run one command. Called without ``argv``, as from the shell, the
    manifest times the run from the package import stamp, import included;
    called with an argument list from Python, from this call."""
    if argv is None:
        t0, import_s = _IMPORT_T0, _IMPORT_S
        argv = sys.argv[1:]
    else:
        t0, import_s = time.perf_counter(), 0.0
    parser = build_parser()
    argv = _merge_vector_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage problems; remap to 64
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.t0, args.import_s = t0, import_s
    try:
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EscapingRegionError as exc:
        print(f"escaping-region halt: {exc}", file=sys.stderr)
        return EXIT_ESCAPING
    except _NUMERICAL_REFUSALS as exc:
        print(f"numerical refusal: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, RuntimeError, OSError) as exc:  # a CertificateError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
