"""In-memory span tracing around mfglab's public functions.

A span records name, start, end, parent span and instance id.  Wrappers are
installed at every site where a function is looked up, not only where it is
defined: ``mfglab.mfg`` and ``mfglab.cli`` import their callees by name, so
patching only the defining module would miss every call they make.  Spans
are recorded from the calling thread; the workloads call every traced
function from one thread (the couplings' worker pool runs below
``simulate_coupling``, which is the traced boundary).
"""

import functools
import importlib
import inspect
import json
import math
import time

# (module, attribute path, span name)
SITES = (
    ("mfglab.mfg", "solve_hjb", "control.hjb"),
    ("mfglab.mfg", "solve_fokker_planck", "control.fp"),
    ("mfglab.control", "solve_fokker_planck", "control.fp"),  # optimal_flow
    ("mfglab.mfg", "optimal_flow", "control.optimal_flow"),
    ("mfglab.mfg", "wf_grid", "distances.wf"),
    ("mfglab.mfg", "w1_grid", "distances.w1"),
    ("mfglab.mfg", "tv_grid", "distances.tv"),
    ("mfglab.mfg", "check_smallness", "model.smallness"),
    ("mfglab.cli", "check_smallness", "model.smallness"),
    ("mfglab.model", "check_smallness", "model.smallness"),
    ("mfglab.mfg", "frozen_ergodic", "mfg.frozen_ergodic"),
    ("mfglab.mfg", "solve_ergodic_mfg", "mfg.ergodic"),
    ("mfglab.cli", "solve_ergodic_mfg", "mfg.ergodic"),
    ("mfglab.mfg", "solve_mfg", "mfg.picard"),
    ("mfglab.cli", "solve_mfg", "mfg.picard"),
    ("mfglab.mfg", "turnpike_report", "mfg.report"),
    ("mfglab.cli", "turnpike_report", "mfg.report"),
    ("mfglab.model", "build_twisted_metric", "metrics.build"),
    ("mfglab.model", "shift_profile", "profiles.shift"),
    # turnpike_constants imports shift_profile from the module at call time
    ("mfglab.profiles", "shift_profile", "profiles.shift"),
    ("mfglab.couplings", "simulate_coupling", "couplings.sim"),
    ("mfglab.cli", "write_csv", "cli.output"),
    ("mfglab.cli", "RunDir.finish", "cli.output"),
    ("mfglab.cli", "RunDir.plot_script", "cli.output"),
)

# per-layer metric: (unit, which direction is better)
LAYERS = {
    "control.hjb_calls": ("count", "lower"),
    "control.hjb_steps": ("count", "lower"),
    "control.hjb_s": ("s", "lower"),
    "control.hjb_us_per_step": ("us", "lower"),
    "control.hjb_ms_per_call": ("ms", "lower"),
    "control.fp_calls": ("count", "lower"),
    "control.fp_steps": ("count", "lower"),
    "control.fp_s": ("s", "lower"),
    "control.fp_us_per_step": ("us", "lower"),
    "distances.wf_calls": ("count", "lower"),
    "distances.wf_s": ("s", "lower"),
    "distances.wf_ms_per_call": ("ms", "lower"),
    "distances.w1_calls": ("count", "lower"),
    "distances.w1_s": ("s", "lower"),
    "mfg.picard_sweeps": ("count", "lower"),
    "mfg.ergodic_outer_sweeps": ("count", "lower"),
    "mfg.ergodic_map_iters": ("count", "lower"),
    "mfg.stage.smallness_s": ("s", "lower"),
    "mfg.stage.ergodic_s": ("s", "lower"),
    "mfg.stage.picard_s": ("s", "lower"),
    "mfg.stage.report_s": ("s", "lower"),
    "mfg.self_s": ("s", "lower"),
    "model.smallness_calls": ("count", "lower"),
    "model.smallness_ms": ("ms", "lower"),       # per call
    "metrics.build_calls": ("count", "lower"),
    "metrics.build_ms": ("ms", "lower"),         # per call
    "profiles.shift_calls": ("count", "lower"),
    "profiles.shift_ms": ("ms", "lower"),        # per call
    "couplings.path_steps": ("count", "lower"),
    "couplings.chunks": ("count", "lower"),
    "couplings.sim_s": ("s", "lower"),
    "couplings.reflection.ns_per_path_step": ("ns", "lower"),
    "couplings.approx_delta.ns_per_path_step": ("ns", "lower"),
    "couplings.parallel_chunks": ("count", "higher"),
    "couplings.thread_speedup": ("ratio", "higher"),
    "couplings.live_path_frac": ("ratio", "higher"),
    "cli.output_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
}

STAGES = {"model.smallness": "smallness", "mfg.ergodic": "ergodic",
          "mfg.picard": "picard", "mfg.report": "report"}


def _pde_steps(arg):
    return {"steps": int(round(arg["T"] / arg["grid"].dt))}


def _coupling_call(arg):
    cfg = arg["config"]
    steps = int(round(max(cfg.t_grid) / cfg.dt))
    return {"kind": cfg.kind, "path_steps": cfg.n_paths * steps,
            "chunks": math.ceil(cfg.n_paths / cfg.chunk_size),
            "threads": cfg.n_threads, "dt": cfg.dt}


def _coupling_result(stats):
    t = [0.0] + [float(v) for v in stats.t_grid]
    p = [1.0] + [float(v) for v in stats.p_neq]
    live = sum(0.5 * (p[i] + p[i + 1]) * (t[i + 1] - t[i])
               for i in range(len(t) - 1)) / t[-1]
    return {"n_paths": int(stats.n_paths), "t_max": t[-1], "live_frac": live}


ON_CALL = {"control.hjb": _pde_steps, "control.fp": _pde_steps,
           "couplings.sim": _coupling_call}
ON_RETURN = {"mfg.picard": lambda r: {"sweeps": len(r[2])},
             "mfg.frozen_ergodic": lambda r: {"iterations": r.iterations},
             "mfg.ergodic": lambda r: {"outer": len(r.outer_trace)},
             "couplings.sim": _coupling_result}


class Tracer:
    """Install span wrappers on enter, restore the originals on exit."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._restore = []

    def __enter__(self):
        for module, path, name in SITES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False

    def _wrap(self, fn, name):
        sig = inspect.signature(fn)
        on_call, on_return = ON_CALL.get(name), ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "instance": self.instance}
            if on_call is not None:
                span.update(on_call(sig.bind(*args, **kwargs).arguments))
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                span.update(on_return(result))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Span duration minus the part of it covered by child spans."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _descendants(spans, root_id, name):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    count, todo = 0, list(kids.get(root_id, ()))
    while todo:
        s = todo.pop()
        count += s["name"] == name
        todo.extend(kids.get(s["id"], ()))
    return count


def coverage_selftest(spans, expected):
    """Span counts against what the program reports about itself.

    expected holds the benchmark's own tally of the traced pass:
    ``picard_calls`` (top-level solve_mfg calls it made or the CLI made for
    it), ``coupling_calls`` and ``coupling_path_steps`` (n_paths x steps of
    every simulate_coupling result).  Returns a list of failure messages.
    """
    bad = []
    picard = [s for s in spans if s["name"] == "mfg.picard"]
    if len(picard) != expected.get("picard_calls", 0):
        bad.append(f"{len(picard)} solve_mfg spans, expected "
                   f"{expected.get('picard_calls', 0)}")
    for s in picard:
        n_fp = _descendants(spans, s["id"], "control.fp")
        if n_fp != s["sweeps"] + 1:
            bad.append(f"solve_mfg span {s['id']}: {n_fp} forward solves, "
                       f"program reports {s['sweeps']} sweeps + 1")
    for s in spans:
        if s["name"] == "mfg.frozen_ergodic":
            n_hjb = sum(1 for c in spans if c["parent"] == s["id"]
                        and c["name"] == "control.hjb")
            if n_hjb != s["iterations"] + 1:
                bad.append(f"frozen_ergodic span {s['id']}: {n_hjb} value "
                           f"solves, program reports {s['iterations']} + 1")
    sims = [s for s in spans if s["name"] == "couplings.sim"]
    if len(sims) != expected.get("coupling_calls", 0):
        bad.append(f"{len(sims)} simulate_coupling spans, expected "
                   f"{expected.get('coupling_calls', 0)}")
    for s in sims:
        reported = s["n_paths"] * int(round(s["t_max"] / s["dt"]))
        if s["path_steps"] != reported:
            bad.append(f"coupling span {s['id']}: {s['path_steps']} "
                       f"path-steps, program reports {reported}")
    spanned = sum(s["path_steps"] for s in sims)
    if spanned != expected.get("coupling_path_steps", 0):
        bad.append(f"{spanned} traced path-steps, benchmark tally "
                   f"{expected.get('coupling_path_steps', 0)}")
    return bad


def layer_metrics(spans):
    """Per-layer numbers of one traced pass (zero where a layer is unused)."""
    own = self_times(spans)

    def pick(name):
        return [s for s in spans if s["name"] == name]

    def dur(group):
        return sum(s["end"] - s["start"] for s in group)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    hjb, fp = pick("control.hjb"), pick("control.fp")
    wf, w1 = pick("distances.wf"), pick("distances.w1")
    sm, mb, sh = pick("model.smallness"), pick("metrics.build"), \
        pick("profiles.shift")
    sims = pick("couplings.sim")
    hjb_steps = sum(s["steps"] for s in hjb)
    fp_steps = sum(s["steps"] for s in fp)
    m = {
        "control.hjb_calls": len(hjb), "control.hjb_steps": hjb_steps,
        "control.hjb_s": dur(hjb),
        "control.hjb_us_per_step": per(dur(hjb), hjb_steps, 1e6),
        "control.hjb_ms_per_call": per(dur(hjb), len(hjb), 1e3),
        "control.fp_calls": len(fp), "control.fp_steps": fp_steps,
        "control.fp_s": dur(fp),
        "control.fp_us_per_step": per(dur(fp), fp_steps, 1e6),
        "distances.wf_calls": len(wf), "distances.wf_s": dur(wf),
        "distances.wf_ms_per_call": per(dur(wf), len(wf), 1e3),
        "distances.w1_calls": len(w1), "distances.w1_s": dur(w1),
        "mfg.picard_sweeps": sum(s["sweeps"] for s in pick("mfg.picard")),
        "mfg.ergodic_outer_sweeps": sum(s["outer"]
                                        for s in pick("mfg.ergodic")),
        "mfg.ergodic_map_iters": sum(s["iterations"]
                                     for s in pick("mfg.frozen_ergodic")),
        "mfg.self_s": sum(own[s["id"]] for s in spans
                          if s["name"].startswith("mfg.")),
        "model.smallness_calls": len(sm),
        "model.smallness_ms": per(dur(sm), len(sm), 1e3),
        "metrics.build_calls": len(mb),
        "metrics.build_ms": per(dur(mb), len(mb), 1e3),
        "profiles.shift_calls": len(sh),
        "profiles.shift_ms": per(dur(sh), len(sh), 1e3),
        "cli.output_s": dur(pick("cli.output")),
    }
    for span_name, stage in STAGES.items():
        m[f"mfg.stage.{stage}_s"] = dur([s for s in pick(span_name)
                                         if s["parent"] is None])
    path_steps = sum(s["path_steps"] for s in sims)
    m["couplings.path_steps"] = path_steps
    m["couplings.chunks"] = sum(s["chunks"] for s in sims)
    m["couplings.sim_s"] = dur(sims)
    for kind in ("reflection", "approx_delta"):
        group = [s for s in sims if s["kind"] == kind]
        m[f"couplings.{kind}.ns_per_path_step"] = per(
            dur(group), sum(s["path_steps"] for s in group), 1e9)
    m["couplings.parallel_chunks"] = per(
        sum(min(s["chunks"], s["threads"]) * s["path_steps"] for s in sims),
        path_steps)
    refl = [s for s in sims if s["kind"] == "reflection"]
    m["couplings.live_path_frac"] = per(
        sum(s["live_frac"] * s["path_steps"] for s in refl),
        sum(s["path_steps"] for s in refl))
    return m
