"""One workload process of the mfglab benchmark; run.py starts it.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

Set-up ends when the inputs of the first pass are generated and loaded; the
process then records the monotonic clock, so the parent can time set-up
from its own spawn.  Passes repeat until the next one would overrun
--seconds (at least one).  With --trace 1 one untraced pass is followed by a
traced pass on the same inputs.  The result goes to DIR/result.json; stdout
belongs to the program under test.

Checks come in two kinds.  "oracle" checks compare outputs with references
the benchmark computes itself (closed-form mean, unit mass, statistical
bounds, thread-count invariance, exit codes, span coverage); any failure
makes the run incorrect.  "verdict" checks record the program's own
pass/fail verdicts for certified envelopes; they count toward
check_fail_frac and are listed by input, but they are the lab's findings
about its bounds, not wrong output.
"""

import argparse
import copy
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# scenario shapes (catalog lq_mean and double_well_small); the fields the
# seed draws are filled per instance
LQ_BASE = {
    "name": "lq_bench", "drift": {"kind": "linear", "beta": 3.0},
    "diffusion": {"kind": "constant", "sigma": math.sqrt(2.0)},
    "running_cost": {"kind": "quadratic", "rho_uu": 1.0, "q": 0.0,
                     "C_x_L": 0.0, "C_L_osc": 0.0},
    "interaction": {"kind": "mean", "c": None, "mean_bound": 1.0},
    "terminal_cost": {"kind": "zero"}, "mu0": {"mean": None, "var": 0.25},
    "horizon": 2.0, "regime": "high",
    "grid": {"x_min": -3.0, "x_max": 3.0, "n_x": 601, "dt": 1e-3},
    "mc": {"master_seed": None}}
DW_BASE = {
    "name": "dw_bench", "drift": {"kind": "double_well"},
    "diffusion": {"kind": "constant", "sigma": math.sqrt(2.0)},
    "running_cost": {"kind": "quadratic", "rho_uu": 1.0, "q": 0.0,
                     "C_x_L": 0.0, "C_L_osc": 0.0},
    "interaction": {"kind": "conv_tanh", "c": None},
    "terminal_cost": {"kind": "zero"}, "mu0": {"mean": None, "var": None},
    # T = 6 fails the plateau verdict (ratio 0.067 > 0.05); T = 8 passes it
    # across the mu0 range drawn below (0.024 to 0.034)
    "horizon": 8.0, "regime": "high",
    "grid": {"x_min": -4.0, "x_max": 4.0, "n_x": 401, "dt": 2.5e-4},
    "mc": {"master_seed": None}}

LQ_PER_PASS = 4            # instances per pass, one per stratum of c
LQ_TOL = 1e-7
ORACLE_TOL = 1e-3          # criterion 10
MASS_TOL = 1e-6            # the forward solver's own mass tolerance
OU_DRIFT_GAP = 0.2         # approx_delta second drift: -x + 0.2
WIDE = dict(n_paths=2 * 16384, dt=1e-3, t_grid=(1.0, 2.0, 4.0), delta=1e-2)
# one chunk (n_paths < chunk_size), dt resolves the smallest band
# (dt <= delta_min / (4 c)), common random numbers across delta
LONG = dict(n_paths=16000, dt=2.5e-4, t_grid=(0.25,), r0=0.2,
            deltas=(1e-1, 1e-2, 1e-3))
GAP_RATIO_MIN = 5.0
THREADS = 2


def check(checks, kind, name, ok, detail=""):
    checks.append({"kind": kind, "name": name, "pass": bool(ok),
                   "detail": detail})


class Scenarios:
    """Writes generated scenario files and loads them through mfglab."""

    def __init__(self, workdir):
        from mfglab.model import load_scenario
        self.load = load_scenario
        self.dir = workdir
        self.count = 0

    def write(self, base, c, m0, var, master_seed):
        raw = copy.deepcopy(base)
        raw["interaction"]["c"] = float(c)
        raw["mu0"]["mean"] = float(m0)
        raw["mu0"]["var"] = float(var)
        raw["mc"]["master_seed"] = int(master_seed)
        self.count += 1
        path = self.dir / f"scenario-{self.count}.json"
        path.write_text(json.dumps(raw, indent=1))
        return path

    def certified_c_max(self, base, iters=14):
        """Largest certified interaction strength, to 2**-iters of a bracket.

        check_smallness passes iff k*c < threshold(c), with threshold
        decreasing in c, so the certified set is an interval (0, c_max) and
        c0 * margin(c0) at a tiny c0 bounds it from above.
        """
        from mfglab import model

        def report(c):
            return model.check_smallness(self.load(
                self.write(base, c, 0.0, 0.25, 0)))

        c0 = 1e-7
        lo, hi = 0.0, c0 * report(c0).margin
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if report(mid).passes:
                lo = mid
            else:
                hi = mid
        return lo


# ---------------------------------------------------------------------------
# turnpike_dw: the turnpike CLI on the double-well shape

class TurnpikeDW:
    def __init__(self, seed, workdir):
        self.seed, self.dir = seed, workdir
        self.sc = Scenarios(workdir)
        self.c_max = self.sc.certified_c_max(DW_BASE)

    def inputs(self, k):
        rng = np.random.default_rng([self.seed, k])
        c = self.c_max * (1.0 - rng.random())          # (0, c_max]
        mean, var = 1.5 + rng.random(), 0.15 + 0.2 * rng.random()
        path = self.sc.write(DW_BASE, c, mean, var, rng.integers(2 ** 31))
        self.sc.load(path)
        return {"path": path, "c": c, "mean": mean, "var": var}

    def run(self, inp, tag, tracer=None):
        from mfglab import cli
        out = self.dir / f"out-{tag}"
        argv = ["turnpike", "--scenario", str(inp["path"]), "--threads", "1",
                "--out", str(out)]
        if tracer is not None:
            tracer.instance = 0
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:   # counted as a failed operation
            print(f"turnpike_dw: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
        wall = time.perf_counter() - t0
        run_dir = out / f"{DW_BASE['name']}-turnpike"
        size = sum(p.stat().st_size for p in run_dir.iterdir()) \
            if run_dir.is_dir() else 0
        return wall, {"code": code, "run_dir": run_dir, "bytes": size,
                      "ops": 1, "failed": int(code not in (0, 1))}

    def check(self, inp, res, checks):
        if res["failed"]:
            return
        label = (f"c={inp['c']:.4g} mu0=({inp['mean']:.3f}, "
                 f"{inp['var']:.3f})")
        summary = json.loads((res["run_dir"] / "summary.json").read_text())
        manifest = json.loads((res["run_dir"] / "manifest.json").read_text())
        check(checks, "oracle", "cli_exit_code",
              res["code"] == summary["exit_code"],
              f"exit {res['code']}, summary says {summary['exit_code']}")
        missing = [f for f in manifest["outputs"]
                   if not (res["run_dir"] / f).is_file()]
        check(checks, "oracle", "cli_outputs", not missing,
              f"missing {missing}")
        for name, row in sorted(summary["assertions"].items()):
            check(checks, "verdict", name, row["pass"], label)

    def expected(self, res):
        return {"picard_calls": res["ops"] - res["failed"]}


# ---------------------------------------------------------------------------
# mfg_lq_batch: many short solves through the library API

def lq_mean_oracle(beta, c, m0, T, ts):
    """Mean of the lq_mean equilibrium from the linear BVP, in closed form.

    m' = -beta m - s, s' = beta s - c m, m(0) = m0, s(T) = 0.  A is
    traceless with A^2 = w^2 I, so exp(A t) = cosh(w t) I + sinh(w t) A / w.
    """
    w = math.sqrt(beta * beta + c)
    A = np.array([[-beta, -1.0], [-c, beta]])

    def expm(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return np.cosh(w * t) * np.eye(2) + np.sinh(w * t) / w * A

    E_T = expm(T)
    s0 = -E_T[1, 0] * m0 / E_T[1, 1]
    E = expm(ts)
    return E[:, 0, 0] * m0 + E[:, 0, 1] * s0


class LQBatch:
    def __init__(self, seed, workdir):
        self.seed, self.dir = seed, workdir
        self.sc = Scenarios(workdir)
        self.c_max = self.sc.certified_c_max(LQ_BASE)
        self.oracle_err = []

    def inputs(self, k):
        """Latin-hypercube draws: one c per stratum of the certified range,
        |m0| stratified over (0, 1] = the declared mean bound, random sign."""
        rng = np.random.default_rng([self.seed, k])
        n = LQ_PER_PASS
        cs = self.c_max * (np.arange(n) + 1.0 - rng.random(n)) / n
        m0s = (rng.permutation(n) + 1.0 - rng.random(n)) / n \
            * rng.choice([-1.0, 1.0], n)
        out = []
        for c, m0 in zip(cs, m0s):
            path = self.sc.write(LQ_BASE, c, m0, 0.25, rng.integers(2 ** 31))
            out.append({"c": float(c), "m0": float(m0),
                        "scenario": self.sc.load(path)})
        return out

    @staticmethod
    def _solve(sc):
        """One instance through the library API, reduced to what the checks
        need, so that one instance's flow at most is alive at a time."""
        from mfglab import mfg, model
        rep = model.check_smallness(sc)
        sol = mfg.solve_ergodic_mfg(sc, smallness=rep)
        flow, value, trace, _ = mfg.solve_mfg(sc, tol=LQ_TOL, smallness=rep)
        report = mfg.turnpike_report(sc, flow, value, sol, rep)
        xs, dens = flow.xs, flow.densities
        # the finite-volume scheme conserves the cell sum, not the
        # trapezoid (they differ by dx/2 times the boundary densities)
        mass = dens.sum(axis=1) * (xs[1] - xs[0])
        return {"passes": rep.passes, "verdicts": report.verdicts,
                "times": flow.times,
                "mean": np.trapezoid(xs * dens, xs, axis=1),
                "mass_err": float(np.max(np.abs(mass - 1.0)))}

    def run(self, inp, tag, tracer=None):
        res = []
        t0 = time.perf_counter()
        for i, item in enumerate(inp):
            if tracer is not None:
                tracer.instance = i
            try:
                res.append(self._solve(item["scenario"]))
            except Exception as exc:   # counted as a failed operation
                res.append({"error": f"{type(exc).__name__}: {exc}"})
        wall = time.perf_counter() - t0
        return wall, {"items": res, "ops": len(inp),
                      "failed": sum("error" in r for r in res)}

    def check(self, inp, res, checks):
        for item, r in zip(inp, res["items"]):
            if "error" in r:
                continue
            label = f"c={item['c']:.4g} m0={item['m0']:.3f}"
            check(checks, "oracle", "certified_draw", r["passes"], label)
            m_exact = lq_mean_oracle(LQ_BASE["drift"]["beta"], item["c"],
                                     item["m0"], item["scenario"].T,
                                     r["times"])
            err = float(np.max(np.abs(r["mean"] - m_exact)))
            self.oracle_err.append(err)
            check(checks, "oracle", "mean_vs_closed_form", err <= ORACLE_TOL,
                  f"{label} err={err:.2e}")
            check(checks, "oracle", "unit_mass", r["mass_err"] <= MASS_TOL,
                  f"{label} worst |mass-1|={r['mass_err']:.1e}")
            for name in ("flow_bound", "value_bound", "rates_ok"):
                check(checks, "verdict", name, r["verdicts"][name], label)

    expected = TurnpikeDW.expected


# ---------------------------------------------------------------------------
# coupling_ou: reflection and mollified couplings of OU, no PDE

class CouplingOU:
    def __init__(self, seed, workdir):
        from mfglab.metrics import build_twisted_metric
        from mfglab.model import constant_diffusion
        from mfglab.profiles import constant_profile
        self.seed = seed
        self.tm = build_twisted_metric(constant_profile(1.0, r_max=30.0), 1.0)
        self.diff = constant_diffusion(math.sqrt(2.0))

    def inputs(self, k):
        rng = np.random.default_rng([self.seed, k])
        return {kind: int(rng.integers(2 ** 31))
                for kind in ("reflection", "approx_delta", "long")}

    @staticmethod
    def _pair(r0):
        def init(n, rng):
            return np.full(n, 0.5 * r0), np.full(n, -0.5 * r0)
        return init

    def _sim(self, kind, seed, threads, delta, r0, **shape):
        from mfglab import couplings
        cfg = couplings.CouplingConfig(
            kind=kind, beta=lambda t, x: -x, master_seed=seed,
            beta_hat=(lambda t, x: -x + OU_DRIFT_GAP)
            if kind == "approx_delta" else None,
            delta=delta, n_threads=threads, **shape)
        return couplings.simulate_coupling(cfg, self.diff, self._pair(r0),
                                           tm=self.tm)

    def wide(self, inp, threads):
        shape = {k: WIDE[k] for k in ("n_paths", "dt", "t_grid")}
        return {kind: self._sim(kind, inp[kind], threads, WIDE["delta"], 1.0,
                                **shape)
                for kind in ("reflection", "approx_delta")}

    def run(self, inp, tag, tracer=None):
        t0 = time.perf_counter()
        stats = self.wide(inp, THREADS)
        t_wide = time.perf_counter() - t0
        shape = {k: LONG[k] for k in ("n_paths", "dt", "t_grid")}
        long = [self._sim("approx_delta", inp["long"], THREADS, d, LONG["r0"],
                          **shape) for d in LONG["deltas"]]
        wall = time.perf_counter() - t0
        return wall, {"wide": stats, "long": long, "wide_s": t_wide,
                      "ops": 2 + len(long), "failed": 0}

    def check(self, inp, res, checks):
        st = res["wide"]["reflection"]
        check(checks, "oracle", "reflection_contraction_3se",
              np.all(st.mean_f <= st.bound_f + 3 * st.se_f),
              f"seed={inp['reflection']}")
        check(checks, "oracle", "reflection_coalescence_3se",
              np.all(st.p_neq <= st.bound_p + 3 * st.se_p),
              f"seed={inp['reflection']}")
        st = res["wide"]["approx_delta"]
        lam, t = self.tm.lam, st.t_grid
        bound = (np.exp(-lam * t) * st.mean_f0
                 + OU_DRIFT_GAP * (1.0 - np.exp(-lam * t)) / lam)
        check(checks, "oracle", "drift_gap_contraction_3se",
              np.all(st.mean_f <= bound + 3 * st.se_f + 10 * WIDE["delta"]),
              f"seed={inp['approx_delta']}")
        m = [float(s.mean_f[0]) for s in res["long"]]
        ratio = abs(m[0] - m[1]) / max(abs(m[1] - m[2]), 1e-300)
        check(checks, "oracle", "delta_gap_ratio", ratio >= GAP_RATIO_MIN,
              f"seed={inp['long']} ratio={ratio:.1f}")

    def expected(self, res):
        runs = ([(st, WIDE["dt"]) for st in res["wide"].values()]
                + [(st, LONG["dt"]) for st in res["long"]])
        return {"coupling_calls": len(runs), "coupling_path_steps": sum(
            st.n_paths * int(round(max(st.t_grid) / dt)) for st, dt in runs)}

    def thread_check(self, inp, res0, checks):
        """Wide phase again at one thread: speed-up and bit-identity."""
        t0 = time.perf_counter()
        one = self.wide(inp, 1)
        wall1 = time.perf_counter() - t0
        same = all(np.array_equal(getattr(one[k], f),
                                  getattr(res0["wide"][k], f))
                   for k in one for f in ("mean_f", "se_f", "p_neq", "se_p"))
        check(checks, "oracle", "threads_bit_identical", same,
              f"{THREADS} vs 1 threads")
        return wall1 / res0["wide_s"]


WORKLOADS = {"turnpike_dw": TurnpikeDW, "mfg_lq_batch": LQBatch,
             "coupling_ou": CouplingOU}


def environment():
    import numpy
    import scipy
    return {"machine": f"{platform.system()} {platform.machine()} "
                       f"{platform.processor() or ''}".strip(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **{k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import mfglab
    if ROOT / "src" not in Path(mfglab.__file__).resolve().parents:
        print(f"mfglab imported from {mfglab.__file__}, not this checkout",
              file=sys.stderr)
        return 3
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    inp0 = wl.inputs(0)
    out = {"t_ready": time.monotonic()}
    if not args.setup_only:
        out.update(measure(wl, inp0, args))
    (args.workdir / "result.json").write_text(json.dumps(out))
    return 0


def measure(wl, inp0, args):
    from tracing import Tracer, coverage_selftest, layer_metrics
    checks, walls, ops, failed = [], [], 0, 0
    t_begin, k, inp = time.monotonic(), 0, inp0
    while True:
        wall, res = wl.run(inp, f"p{k}")
        wl.check(inp, res, checks)
        walls.append(wall)
        ops, failed = ops + res["ops"], failed + res["failed"]
        k += 1
        if args.trace or (time.monotonic() - t_begin + float(np.median(walls))
                          > args.seconds):
            break
        res = None     # so that peak memory does not grow with the passes
        inp = wl.inputs(k)
    out = {"walls": walls, "env": environment()}
    if args.trace:
        with Tracer() as tracer:
            wall_tr, res_tr = wl.run(inp0, "traced", tracer=tracer)
        wl.check(inp0, res_tr, checks)
        ops, failed = ops + res_tr["ops"], failed + res_tr["failed"]
        bad = coverage_selftest(tracer.spans, wl.expected(res_tr))
        check(checks, "oracle", "span_coverage", not bad, "; ".join(bad))
        layers = layer_metrics(tracer.spans)
        layers["cli.output_bytes"] = res_tr.get("bytes", 0)
        thread_check = getattr(wl, "thread_check", None)
        layers["couplings.thread_speedup"] = (
            thread_check(inp0, res, checks) if thread_check else 0.0)
        layers["bench.trace_overhead_frac"] = wall_tr / walls[0] - 1.0
        tracer.dump(args.workdir / "spans.json")
        out.update(layers=layers, traced_wall=wall_tr)
    out.update(
        checks=checks,
        attempted=ops, failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        oracle_err=getattr(wl, "oracle_err", []))
    return out


if __name__ == "__main__":
    sys.exit(main())
