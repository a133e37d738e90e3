"""Seeded benchmark of mfglab: turnpike CLI, LQ mean-field batch, OU couplings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mfglab is imported from its ``src``.
Workloads (each a closed loop: one process, one call at a time, at most
two threads):

* turnpike_dw  -- ``mfglab turnpike --threads 1`` on the double_well_small
  shape (401 nodes, dt 2.5e-4, conv-tanh interaction, T = 8) with a seeded
  certified c and a seeded mu0: few, long PDE solves (control layer).
* mfg_lq_batch -- lq_mean instances (601 nodes, dt 1e-3, T = 2) with
  (c, m0) drawn over the certified range, each through check_smallness,
  solve_ergodic_mfg, solve_mfg(tol=1e-7) and turnpike_report: many short
  solves; the transport LP (distances) is the largest layer.  The mean
  trajectory is checked against the closed-form solution.
* coupling_ou   -- reflection and mollified couplings of OU: a wide phase
  (2 chunks of 16384 paths at 2 threads) and a long single-chunk phase of
  three bandwidths with common random numbers.  No PDE.

The workload runs in a child process with OMP/OPENBLAS/MKL_NUM_THREADS=1,
so the couplings' own pool is the only parallelism.  End-to-end metrics
(--trace 0): wall_s, the median wall time of a pass, from the first call
into mfglab after set-up to the last verdict; setup_s, the median over
three processes of the time from spawn until the first pass's inputs are
generated and loaded (interpreter, ``import mfglab``, input generation,
scenario loading); peak_rss_mb of the workload process.  check_fail_frac
and, for mfg_lq_batch, oracle_err are printed with them.  --trace 1 runs
one untraced and one traced pass on the same inputs and prints the
per-layer metrics (see tracing.py), including bench.trace_overhead_frac.
The last line of stdout is one JSON object: correct, attempted, failed
(operations that raised or exited with a configuration error) and metrics.
Spans of a traced run are kept in .perfbench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("turnpike_dw", "mfg_lq_batch", "coupling_ou")
SETUP_SAMPLES = 3          # the workload process plus two set-up-only ones
CHILD_TIMEOUT = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def spawn(root, work, args, setup_only):
    """Start a workload process; returns (spawn-to-ready seconds, result)."""
    work.mkdir(parents=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--workdir",
           str(work)] + (["--setup-only"] if setup_only else [])
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"workload process exited {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    return result["t_ready"] - t_spawn, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mfglab" / "__init__.py").is_file():
        print(f"error: {root} holds no mfglab source tree (src/mfglab)",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            setups.append(spawn(root, work / f"setup{i}", args, True)[0])
        t_setup, res = spawn(root, work / "run", args, False)
        setups.append(t_setup)
        if args.trace:
            shutil.copy(work / "run" / "spans.json", out_dir /
                        f"spans-{args.workload}-seed{args.seed}.json")
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = res["checks"]
    failed_checks = [c for c in checks if not c["pass"]]
    correct = res["failed"] == 0 and not any(
        c["kind"] == "oracle" for c in failed_checks)
    e2e = {"wall_s": (statistics.median(res["walls"]), len(res["walls"]),
                      "passes"),
           "setup_s": (statistics.median(setups), len(setups), "processes"),
           "peak_rss_mb": (res["peak_rss_mb"], 1, "process")}
    env = res["env"]
    print(f"# mfglab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in END_TO_END:
        value, n, what = e2e[name]
        print(f"{name:<28} {value:>14.6g} {unit:<6} (median of {n} {what})")
    print(f"{'check_fail_frac':<28} {len(failed_checks) / len(checks):>14.6g}"
          f" {'1':<6} ({len(failed_checks)} of {len(checks)} checks failed)")
    if res["oracle_err"]:
        print(f"{'oracle_err':<28} {max(res['oracle_err']):>14.6g} "
              f"{'1':<6} (max over {len(res['oracle_err'])} instances)")
    for c in failed_checks:
        print(f"  FAIL [{c['kind']}] {c['name']}: {c['detail']}")
    if args.trace:
        metrics = {k: {"value": res["layers"][k], "unit": unit}
                   for k, (unit, _) in LAYERS.items()}
        print(f"# traced pass {res['traced_wall']:.6g} s, untraced "
              f"{res['walls'][0]:.6g} s; live_path_frac is computed from "
              f"p_neq at the output times")
        for k, m in metrics.items():
            print(f"{k:<40} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
