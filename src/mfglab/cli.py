"""Command-line experiment runner.

Subcommands mirror the verification pipelines: rates (metric construction
and differential-inequality residuals), coupling (contraction and
coalescence suites), control (solvers plus bound ledgers and the costate
residual), ergodic, mfg, turnpike (full pipeline and report), check
(assumption probes and strength margins), and sweep.  Every run writes a
manifest, a machine-readable summary with pass/fail per assertion, CSV
tables, and a gnuplot script referencing them.  Exit codes: 0 all
assertions pass, 1 assertion failures, 2 configuration or certification
errors, 3 numerical failures.  Besides --scenario, --out and --seed, each
subcommand parses only the options it reads (see build_parser).
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CertificationError, ConfigError, MfglabError
from .model import (GaussianLaw, check_smallness, load_scenario,
                    probe_assumptions, scenario_path)
from .metrics import (check_differential_inequality, q_kernel, save_metric,
                      within_band)
from .couplings import CouplingConfig, moment_diagnostic, simulate_coupling
from .control import hessian_ledger, lipschitz_ledger, pontryagin_residual
from .mfg import (REPORT_RATE_FRACTION, frozen_ergodic, solve_ergodic_mfg,
                  solve_mfg, turnpike_report)

EXIT_CODES = {"config": 2, "certification": 2, "numerical": 3}


def _fmt(x):
    if isinstance(x, float):
        return np.format_float_scientific(x, precision=16)
    return str(x)


def write_csv(path, header, columns):
    cols = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(cols[0])):
            fh.write(",".join(_fmt(col[i].item() if hasattr(col[i], "item")
                                   else col[i]) for col in cols) + "\n")
    return path


def scenario_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def resolve_scenario(spec, seed=None, overrides=None):
    overrides = dict(overrides or {})
    if seed is not None:
        overrides["mc.master_seed"] = seed
    return load_scenario(spec, overrides), scenario_path(spec)


class RunDir:
    def __init__(self, root, name):
        self.path = Path(root) / name
        self.path.mkdir(parents=True, exist_ok=True)
        self.outputs = []
        self.assertions = {}
        self.t0 = time.time()

    def file(self, name):
        p = self.path / name
        self.outputs.append(name)
        return p

    def record(self, name, passed, **info):
        self.assertions[name] = {"pass": bool(passed),
                                 **{k: (float(v) if isinstance(v, (int, float))
                                        and not isinstance(v, bool) else v)
                                    for k, v in info.items()}}

    def finish(self, scenario_path, args):
        failures = [k for k, v in self.assertions.items() if not v["pass"]]
        summary = {"assertions": self.assertions, "failures": failures,
                   "exit_code": 1 if failures else 0}
        with open(self.path / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        manifest = {"tool_version": __version__,
                    "scenario_hash": scenario_hash(scenario_path),
                    "command": " ".join(args),
                    "master_seed": getattr(self, "seed", None),
                    "started": self.t0, "finished": time.time(),
                    "outputs": sorted(self.outputs + ["summary.json"])}
        with open(self.path / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        if failures:
            print(f"[{self.path.name}] FAILED: {failures}")
        else:
            print(f"[{self.path.name}] all assertions passed")
        return summary["exit_code"]

    def plot_script(self, lines):
        p = self.file("plot.gp")
        with open(p, "w") as fh:
            fh.write("set datafile separator ','\nset key outside\n")
            fh.write("set logscale y\n")
            for line in lines:
                fh.write(line + "\n")


def _metric_pipeline(sc, run):
    rep = check_smallness(sc)
    tm_b, tm_bar = rep.tm_b, rep.tm_bar
    save_metric(tm_b, run.file("metric_base.csv"),
                run.file("metric_base.csv.json"))
    if not tm_bar.degenerate:
        save_metric(tm_bar, run.file("metric_shifted.csv"),
                    run.file("metric_shifted.csv.json"))
    rng = np.random.default_rng(0)
    for label, tm in (("base", tm_b), ("shifted", tm_bar)):
        if tm.degenerate:
            run.record(f"residual_{label}", True, note="degenerate: skipped")
            continue
        rr = rng.uniform(tm.r_table[1], tm.profile.r_max * 0.98, 1000)
        rr = rr[np.abs(rr - tm.R1) > 1e-3]
        _, residuals, _ = check_differential_inequality(tm, rr)
        allowance = 1e-6 * (1.0 + tm.lam * tm.f(rr))
        run.record(f"residual_{label}", bool(np.all(residuals <= allowance)),
                   max_residual=float(np.max(residuals)))
        rr2 = rng.uniform(1e-4, tm.profile.r_max * 0.98, 10_000)
        f, fp = tm.f(rr2), tm.fprime(rr2)
        ok = (np.all(within_band(f, tm.C * rr2, rr2))
              and np.all(within_band(fp, tm.C, 1.0)))
        run.record(f"sandwich_{label}", bool(ok))
        knee = 1.0 / (2.0 * tm.lam)
        lo = q_kernel(tm.C, tm.lam, tm.sigma_check, knee * (1 - 1e-13))
        hi = q_kernel(tm.C, tm.lam, tm.sigma_check, knee)
        run.record(f"kernel_continuity_{label}",
                   abs(lo - hi) <= 1e-12 * abs(hi))
    return rep


def cmd_rates(sc, run, args):
    _metric_pipeline(sc, run)
    run.plot_script(["plot 'metric_base.csv' using 1:2 with lines "
                     "title 'f', '' using 1:3 with lines title 'fprime'"])


def cmd_check(sc, run, args):
    probes = run.file("probes.json")
    report = probe_assumptions(sc, n=1000, seed=sc.mc.master_seed)
    with open(probes, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for name, row in report.items():
        run.record(f"probe_{name}", row["pass"], measured=row["measured"],
                   declared=row["declared"])
    rep = check_smallness(sc)
    run.record("strength_condition", True, regime=rep.regime,
               value=rep.condition_value, threshold=rep.threshold,
               margin=rep.margin, certified=bool(rep.passes),
               lambda_star=rep.lambda_star)
    if rep.relaxed is not None:
        run.record("strength_condition_relaxed", True,
                   **{k: v for k, v in rep.relaxed.items()
                      if isinstance(v, (int, float, bool))})


def cmd_coupling(sc, run, args):
    rep = check_smallness(sc)
    tm = rep.tm_b
    diff = sc.diffusion
    r0 = 1.0

    def init(n, rng):
        return np.full(n, 0.5 * r0), np.full(n, -0.5 * r0)

    base = dict(dt=sc.mc.dt, n_paths=sc.mc.n_paths, t_grid=sc.mc.t_grid,
                beta=lambda t, x: sc.drift.b(x),
                master_seed=sc.mc.master_seed, n_threads=args.threads)
    stats = simulate_coupling(CouplingConfig(kind="reflection", **base),
                              diff, init, tm=tm)
    write_csv(run.file("coupling.csv"),
              ["t", "mean_f", "se_f", "bound_f", "p_neq", "se_p", "bound_p"],
              [stats.t_grid, stats.mean_f, stats.se_f, stats.bound_f,
               stats.p_neq, stats.se_p, stats.bound_p])
    run.record("contraction_reflected",
               bool(np.all(stats.mean_f <= stats.bound_f + 3 * stats.se_f)))
    run.record("coalescence_kernel",
               bool(np.all(stats.p_neq <= stats.bound_p + 3 * stats.se_p)))
    mom = moment_diagnostic(lambda t, x: sc.drift.b(x), diff,
                            lambda n, rng: sc.mu0.sample(n, rng), p=2,
                            T=max(sc.mc.t_grid),
                            n_paths=min(sc.mc.n_paths, 20000),
                            master_seed=sc.mc.master_seed,
                            n_threads=args.threads)
    run.record("moment_plateau", mom["passes"],
               sup_moment=mom["sup_moment"], tstat=mom["trend_tstat"])
    run.plot_script(["plot 'coupling.csv' using 1:2 with linespoints title "
                     "'measured', '' using 1:4 with lines title 'bound'"])


def cmd_control(sc, run, args):
    from .mfg import frozen_solve
    xs = sc.grid.xs
    g = sc.terminal_cost.G(GaussianLaw(0.0, 1.0), xs) \
        if sc.terminal_cost.tag != "zero" else np.zeros_like(xs)
    value, flow = frozen_solve(sc, None, g)
    rep = check_smallness(sc)
    led = lipschitz_ledger(value, sc, rep.tm_b)
    ledgers = {"value_fnorm": led.as_dict(),
               "control_sup": led.extras["control"].as_dict()}
    run.record("value_seminorm_bound", led.passes)
    run.record("control_magnitude_bound", led.extras["control"].passes)
    if sc.diffusion.is_constant and sc.terminal_cost.C_xx_G is not None:
        hled = hessian_ledger(value, sc, rep.tm_b)
        ledgers["value_hessian"] = hled.as_dict()
        run.record("value_hessian_bound", hled.passes)
    pr = pontryagin_residual(value, sc, n_paths=1000,
                             deltas=(0.02, 0.01), seed=sc.mc.master_seed)
    ok = all(1.5 <= r <= 3.0 for r in pr["ratios"]) if pr["ratios"] else True
    rms0 = list(pr["rms"].values())[0]
    run.record("costate_residual_scaling", bool(ok or rms0 < 1e-9),
               ratios=str([round(r, 3) for r in pr["ratios"]]))
    with open(run.file("ledger.json"), "w") as fh:
        json.dump(ledgers, fh, indent=1, sort_keys=True)
    ti = np.linspace(0, len(value.times) - 1, 9).astype(int)
    hess = np.stack([value.hess(i) for i in ti])
    write_csv(run.file("value.csv"), ["t", "x", "phi", "grad", "hess"],
              [np.repeat(value.times[ti], len(xs)),
               np.tile(xs, len(ti)),
               value.phi[ti].ravel(), value.grad[ti].ravel(), hess.ravel()])
    fi = np.linspace(0, len(flow.times) - 1, 9).astype(int)
    write_csv(run.file("flow.csv"), ["t", "x", "density"],
              [np.repeat(flow.times[fi], len(xs)), np.tile(xs, len(fi)),
               flow.densities[fi].ravel()])
    run.plot_script(["plot 'flow.csv' using 2:3 with lines title 'density'"])


def cmd_ergodic(sc, run, args):
    rep = check_smallness(sc)
    if sc.interaction.kind == "none":
        sol = frozen_ergodic(sc, None)
    else:
        sol = solve_ergodic_mfg(sc, force=args.force, smallness=rep)
    with open(run.file("ergodic.json"), "w") as fh:
        json.dump(sol.as_dict(), fh, indent=1, sort_keys=True)
    run.record("ergodic_flatness", sol.flatness_residual < 1e-6,
               residual=sol.flatness_residual, eta=sol.eta)
    write_csv(run.file("ergodic_profile.csv"), ["x", "phi", "density"],
              [sol.xs, sol.phi_inf, sol.mu_inf])
    run.plot_script(["plot 'ergodic_profile.csv' using 1:3 with lines "
                     "title 'invariant density'"])


def cmd_mfg(sc, run, args):
    rep = check_smallness(sc)
    flow, value, trace, _ = solve_mfg(sc, force=args.force, smallness=rep,
                                      tol=args.tol)
    write_csv(run.file("mfg_trace.csv"),
              ["iter", "sup_w1_change", "contraction_factor"],
              [[e["iter"] for e in trace],
               [e["sup_w1_change"] for e in trace],
               [e.get("contraction_factor", float("nan")) for e in trace]])
    run.record("fixed_point_converged", True, iterations=len(trace))
    factors = [e["contraction_factor"] for e in trace
               if "contraction_factor" in e]
    if factors and rep.lambda_star > 0:
        eps = rep.epsilon(REPORT_RATE_FRACTION * rep.lambda_star)
        run.record("picard_contraction", min(factors) <= eps * 1.2,
                   measured=min(factors), certified=eps)
    run.plot_script(["plot 'mfg_trace.csv' using 1:2 with linespoints "
                     "title 'sup W1 change'"])


def cmd_turnpike(sc, run, args):
    rep = check_smallness(sc)
    if rep.lambda_star <= 0.0 and not args.force:
        raise CertificationError(
            f"strength margin {rep.margin:.3g} < 1 leaves no certified rate; "
            f"rerun with --force to iterate anyway")
    sol = solve_ergodic_mfg(sc, force=args.force, smallness=rep)
    flow, value, trace, _ = solve_mfg(sc, force=args.force, smallness=rep,
                                      tol=args.tol)
    report = turnpike_report(sc, flow, value, sol, rep)
    write_csv(run.file("turnpike.csv"),
              ["t", "d_flow", "d_value", "bound", "pass"],
              [report.times, report.d_flow, report.d_value,
               report.bound_flow, report.flow_pass.astype(int)])
    v = report.verdicts
    run.record("turnpike_flow_bound", v["flow_bound"])
    run.record("turnpike_value_bound", v["value_bound"])
    run.record("turnpike_plateau", v["plateau_ratio"] <= 0.05,
               ratio=v["plateau_ratio"])
    run.record("turnpike_rates", v["rates_ok"],
               lam_in=(v["lam_in"] if v["lam_in"] is not None else "none"),
               lam_out=(v["lam_out"] if v["lam_out"] is not None else "none"),
               lam_star=v["lam_star"])
    run.record("turnpike_moment", v["moment_ok"], measured=v["moment"],
               bound=v["moment_cap"])
    run.plot_script(["plot 'turnpike.csv' using 1:2 with lines title "
                     "'d_flow', '' using 1:4 with lines title 'bound'"])


COMMANDS = {"rates": cmd_rates, "coupling": cmd_coupling,
            "control": cmd_control, "ergodic": cmd_ergodic, "mfg": cmd_mfg,
            "turnpike": cmd_turnpike, "check": cmd_check}


def _sweep_value(text):
    """One --values entry as JSON, so that 301 stays an integer."""
    try:
        return json.loads(text)
    except ValueError:
        raise ConfigError(f"sweep value {text!r} is not a JSON value "
                          f"(quote strings)") from None


def cmd_sweep(args, out_root):
    rows = []
    exit_code = 0
    for value in [_sweep_value(v) for v in args.values.split(",")]:
        # a scenario the loader rejects is a configuration error (exit 2);
        # a value whose strength condition cannot be evaluated is recorded
        sc, _ = resolve_scenario(args.scenario, args.seed,
                                 {args.param: value})
        try:
            rep = check_smallness(sc)
            rows.append({"value": value, "lambda_star": rep.lambda_star,
                         "margin": rep.margin,
                         "passes": int(rep.passes), "error": ""})
        except MfglabError as exc:
            rows.append({"value": value, "lambda_star": float("nan"),
                         "margin": float("nan"), "passes": 0,
                         "error": type(exc).__name__})
            # no assertion failed: the run exits with its worst error kind
            exit_code = max(exit_code, EXIT_CODES[exc.kind])
    Path(out_root).mkdir(parents=True, exist_ok=True)
    out = Path(out_root) / "sweep.csv"
    write_csv(out, ["value", "lambda_star", "margin", "passes", "error"],
              [[r[k] for r in rows] for k in
               ("value", "lambda_star", "margin", "passes", "error")])
    print(f"[sweep] wrote {out}")
    return exit_code


def build_parser():
    p = argparse.ArgumentParser(prog="mfglab")
    sub = p.add_subparsers(dest="command", required=True)
    subs = {}
    for name in list(COMMANDS) + ["sweep"]:
        s = subs[name] = sub.add_parser(name)
        s.add_argument("--scenario", required=True,
                       help="scenario file path or catalog name")
        s.add_argument("--out", default=os.environ.get("MFGLAB_OUT", "runs"))
        s.add_argument("--seed", type=int, default=None)
    for name in ("ergodic", "mfg", "turnpike"):
        subs[name].add_argument("--force", action="store_true",
                                help="proceed when the strength condition "
                                     "fails")
    for name in ("mfg", "turnpike"):
        subs[name].add_argument("--tol", type=float, default=1e-6,
                                help="Picard stop: sup W1 change per sweep")
    subs["coupling"].add_argument(
        "--threads", type=int, default=1,
        help="worker threads of the coupling and moment simulations")
    subs["turnpike"].add_argument(
        "--threads", type=int, default=1,
        help="no effect (turnpike runs no coupling); kept so that the "
             "benchmark's command line still parses")
    subs["sweep"].add_argument("--param", required=True,
                               help="dotted config path, e.g. interaction.c")
    subs["sweep"].add_argument("--values", required=True,
                               help="comma-separated parameter values")
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    run = None
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return cmd_sweep(args, args.out)
        sc, path = resolve_scenario(args.scenario, args.seed)
        run = RunDir(args.out, f"{sc.name}-{args.command}")
        run.seed = sc.mc.master_seed
        COMMANDS[args.command](sc, run, args)
        return run.finish(path, ["mfglab"] + argv)
    except BaseException as exc:
        if run is not None:    # leave no finished-looking run directory
            for name in run.outputs + ["summary.json", "manifest.json"]:
                (run.path / name).unlink(missing_ok=True)
        if not isinstance(exc, MfglabError):
            raise
        print(f"error ({exc.kind}): {exc}", file=sys.stderr)
        return EXIT_CODES[exc.kind]


if __name__ == "__main__":
    sys.exit(main())
