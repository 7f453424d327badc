"""Command-line front end.

Subcommands: validate, solve, simulate, sweep, couple, tagged, latp.  Every
command reads a population config file and writes CSV data plus a JSON
summary; identical config and seed reproduce identical bytes.

Exit codes: 0 success, 1 validation failure, 2 numerical non-convergence,
3 assertion failure in a sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


from .errors import ConfigError, ConvergenceError, DomainError, _require_int
from . import harness, srp, streams
from .flow import FlowGrid, LimitSolution, solve_y_c
from .harness import ExperimentPlan, SolverSettings
from .intensity import assign_population, load_spec
from .measure import TestFunction

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_ASSERTION = 3


def _out_dir(args) -> str:
    out = os.environ.get("RANKFLOW_OUTDIR", args.out)
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_validate(args) -> int:
    spec = load_spec(args.config)
    print(f"classes: {spec.n_classes}")
    for k, cls in enumerate(spec.classes):
        print(f"  class {k}: weight={cls.weight:g} kind={cls.field.kind} "
              f"sup_norm={cls.field.sup_norm:g} "
              f"y_deriv_bound={cls.field.y_deriv_bound:g}")
    print(f"C_W = {spec.c_w:g}")
    print(f"M_W = {spec.m_w:g}")
    return EXIT_OK


def cmd_solve(args) -> int:
    spec = load_spec(args.config)
    sol = solve_y_c(spec, n_z=args.nz, n_t=args.nt, tol=args.tol,
                    max_iter=args.max_iter)
    out = _out_dir(args)
    csv_path = os.path.join(out, "y_c.csv")
    cache_path = os.path.join(out, "y_c.npz")
    sol.flow.to_csv(csv_path)
    sol.save(cache_path)
    for i, r in enumerate(sol.residual_history, 1):
        print(f"iteration {i}: residual {r:.3e}")
    print(f"converged in {sol.iterations} iterations, residual {sol.residual:.3e}")
    print(f"wrote {csv_path} and {cache_path}")
    return EXIT_OK


def _load_flow(args, spec) -> FlowGrid:
    if args.flow == "identity":
        return FlowGrid.identity(spec.horizon, args.nz, args.nt)
    if args.flow == "solve":
        return solve_y_c(spec, n_z=args.nz, n_t=args.nt, tol=args.tol,
                         max_iter=args.max_iter).flow
    return LimitSolution.load(args.flow, spec).flow


def cmd_simulate(args) -> int:
    streams.check_key("seed", args.seed)
    spec = load_spec(args.config)
    assignment = assign_population(spec, args.n, mode=args.assign,
                                   seed=args.seed)
    if args.flow is None:
        log = srp.simulate(assignment, seed=args.seed)
    else:
        flow = _load_flow(args, spec)
        log = srp.simulate_flow_driven(assignment, flow, seed=args.seed)
    out = _out_dir(args)
    base = os.path.join(out, f"log_{log.kind}_n{args.n}_seed{args.seed}")
    log.save(base + ".npz")
    log.to_csv(base + ".csv")
    _write_json(base + ".json", {
        "n": args.n, "seed": args.seed, "mode": log.kind,
        "events": log.n_events, "ties": log.tie_count,
        "spec_hash": spec.fingerprint()})
    print(f"{log.n_events} events -> {base}.npz")
    return EXIT_OK


def _plan(args, spec, **options) -> ExperimentPlan:
    return ExperimentPlan(
        spec=spec,
        n_values=tuple(args.n_values),
        seeds=args.seeds,
        solver=SolverSettings(n_z=args.nz, n_t=args.nt, tol=args.tol,
                              max_iter=args.max_iter),
        **options)


def cmd_sweep(args) -> int:
    spec = load_spec(args.config)
    hs = [TestFunction.ones()]
    if args.class_indicator is not None:
        hs.append(TestFunction.indicator(args.class_indicator))
    plan = _plan(args, spec, test_functions=tuple(hs), workers=args.workers)
    out = _out_dir(args)
    if args.flow is None:
        report = harness.convergence_sweep(plan)
    else:
        flow = _load_flow(args, spec)
        report = harness.flow_driven_sweep(plan, flow=flow)
    report.to_csv(os.path.join(out, f"{report.kind}.csv"))
    summary = report.summary()
    ok = True
    for m in summary["metrics"]:
        if m["label"].startswith("sup_phi"):
            ok &= m["strictly_decreasing"] and m["endpoint_drop_beyond_2se"] > 0
    summary["passed"] = bool(ok)
    _write_json(os.path.join(out, f"{report.kind}.json"), summary)
    for m in summary["metrics"]:
        print(f"{m['label']}: means={['%.4g' % v for v in m['means']]} "
              f"slope={m['slope']:.3f}")
    print(f"passed: {ok}")
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_couple(args) -> int:
    spec = load_spec(args.config)
    plan = _plan(args, spec, workers=args.workers)
    out = _out_dir(args)
    report = harness.coupling_sweep(plan)
    report.to_csv(os.path.join(out, "coupling.csv"))
    summary = report.summary()
    m = report.metric("decoupled_fraction")
    if spec.position_dependent:
        ok = m.endpoint_drop() > 0
    else:
        ok = max(v for _, _, v in m.rows) == 0.0
    summary["passed"] = bool(ok)
    _write_json(os.path.join(out, "coupling.json"), summary)
    print(f"decoupled fractions: {['%.4g' % v for v in m.means]}")
    print(f"passed: {ok}")
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_tagged(args) -> int:
    spec = load_spec(args.config)
    plan = _plan(args, spec)
    out = _out_dir(args)
    report = harness.tagged_compare(plan)
    report.to_csv(os.path.join(out, "tagged.csv"))
    summary = report.summary()
    ok = True
    for i in range(len(report.pins)):
        means = report.sup_means(i)
        ok &= all(b < a for a, b in zip(means[:-1], means[1:]))
    summary["passed"] = bool(ok)
    _write_json(os.path.join(out, "tagged.json"), summary)
    print(f"correlation at N={plan.n_values[-1]}: {report.correlation:.4f}")
    print(f"passed: {ok}")
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_latp(args) -> int:
    _require_int("grid", args.grid, 1)
    report = harness.latp_validation(horizon=args.horizon, step=1.0 / args.grid,
                                     replicas=args.replicas, seed=args.seed)
    out = _out_dir(args)
    _write_json(os.path.join(out, "latp.json"), report.summary())
    for r in report.rows:
        print(f"{r.label}: series_gap={r.series_gap:.2e} "
              f"mc_z={r.mc_max_z:.2f} deriv={r.deriv_violation:.2e} "
              f"pass={r.passed()}")
    print(f"passed: {report.all_passed()}")
    return EXIT_OK if report.all_passed() else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankflow",
        description="Ranking-process simulator and hydrodynamic-limit solver")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True,
                           help="population spec file (JSON)")
        p.add_argument("--out", default="out", help="output directory "
                       "(env RANKFLOW_OUTDIR overrides)")

    def add_solver(p):
        solver = SolverSettings()
        p.add_argument("--nz", type=int, default=solver.n_z,
                       help="flow z cells")
        p.add_argument("--nt", type=int, default=solver.n_t,
                       help="flow time steps")
        p.add_argument("--tol", type=float, default=solver.tol,
                       help="fixed-point residual tolerance")
        p.add_argument("--max-iter", type=int, default=solver.max_iter)

    def add_plan(p, workers=True):
        p.add_argument("--n-values", type=int, nargs="+",
                       default=[100, 400, 1600], help="population sizes")
        p.add_argument("--seeds", type=int, default=20, help="seeds per N")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes")

    p = sub.add_parser("validate", help="check a population spec")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve", help="solve the limit flow y_C")
    add_common(p)
    add_solver(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="run one simulation and dump its log")
    add_common(p)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    add_solver(p)
    p.add_argument("--n", type=int, required=True, help="particle count")
    p.add_argument("--flow", default=None,
                   help="run flow-driven against this flow "
                        "('identity', 'solve', or cache path); default original model")
    p.add_argument("--assign", choices=("stratified", "seeded-random"),
                   default="stratified")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="N-sweep of sup distances to the limit")
    add_common(p)
    add_solver(p)
    add_plan(p)
    p.add_argument("--class-indicator", type=int, default=None,
                   help="also sweep the indicator of this class")
    p.add_argument("--flow", default=None,
                   help="run flow-driven against this flow "
                        "('identity', 'solve', or cache path); default original model")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("couple", help="coupled-run decoupling sweep")
    add_common(p)
    add_solver(p)
    add_plan(p)
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("tagged", help="tagged-particle limit comparison")
    add_common(p)
    add_solver(p)
    add_plan(p, workers=False)
    p.set_defaults(fn=cmd_tagged)

    p = sub.add_parser("latp", help="point-process three-way validation")
    add_common(p, config=False)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=400, help="grid steps per unit")
    p.add_argument("--replicas", type=int, default=10_000)
    p.set_defaults(fn=cmd_latp)
    # exact option names only: an abbreviation would read a --seed given to
    # a sweep command, which has no --seed, as --seeds
    for p in sub.choices.values():
        p.allow_abbrev = False
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for i, r in enumerate(exc.residual_history, 1):
            print(f"  iteration {i}: residual {r:.3e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
