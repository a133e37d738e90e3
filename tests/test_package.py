"""The package namespace and its import surface.

``import mfglab`` and the numpy layer (profiles, metrics, model, distances,
couplings) load no scipy; the PDE layer and W_f load the three kernels they
call.  Each name the namespace exports is importable from it.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mfglab
from mfglab.model import CATALOG_DIR

# every name mfglab exports, by the module that defines it
EXPORTS = {
    "errors": ("MfglabError",),
    "profiles": ("MonotonicityProfile", "KReport", "make_profile",
                 "constant_profile", "double_well_profile", "shift_profile"),
    "metrics": ("TwistedMetric", "QuadraticTwistedMetric",
                "build_twisted_metric", "build_quadratic_metric",
                "check_differential_inequality", "q_kernel", "q_integral",
                "q_weighted_integral", "gap_envelope", "girsanov_tv",
                "lemma_kernel_integrals", "save_metric"),
    "model": ("Scenario", "Grid1D", "MCConfig", "GaussianLaw",
              "DiffusionSpec", "DriftSpec", "RunningCostSpec",
              "InteractionSpec", "TerminalCostSpec", "GridDensity",
              "ParticleCloud", "constant_diffusion", "varying_diffusion",
              "linear_drift", "double_well_drift", "quadratic_cost",
              "mean_interaction", "conv_tanh_interaction", "no_interaction",
              "zero_terminal", "quadratic_terminal", "sigma_bar", "policy",
              "policy_gap_bound", "check_smallness", "probe_assumptions",
              "load_scenario"),
    "distances": ("w1_grid", "w1_samples", "tv_grid", "f_norm", "lip_norm"),
    "transport": ("wf_grid", "wf_atoms"),
    "couplings": ("CouplingConfig", "CouplingStats", "simulate_coupling",
                  "check_drift_gap_bounds", "moment_diagnostic"),
    "control": ("ValueFunction", "MeasureFlow", "solve_hjb",
                "solve_fokker_planck", "optimal_flow",
                "stationary_density_cc", "lipschitz_ledger", "hessian_ledger",
                "stability_ledger", "pontryagin_residual",
                "box_doubling_check", "BoundLedger"),
    "mfg": ("ErgodicSolution", "TurnpikeReport", "TurnpikeConstants",
            "frozen_solve", "solve_mfg", "frozen_ergodic",
            "solve_ergodic_mfg", "turnpike_constants", "turnpike_report"),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_namespace_exports_resolve_to_their_modules(module):
    home = importlib.import_module(f"mfglab.{module}")
    listed = dir(mfglab)
    assert getattr(mfglab, module) is home
    assert module in listed
    for name in EXPORTS[module]:
        assert getattr(mfglab, name) is getattr(home, name), name
        assert name in listed, name
    assert mfglab.__version__ == "0.1.0"


def test_namespace_exports_only_listed_names():
    """A public name of the namespace that EXPORTS does not list fails, so
    a deleted export cannot linger and a new one cannot go unlisted."""
    listed = set().union(*EXPORTS.values())
    public = {name for name in dir(mfglab) if not name.startswith("_")
              and not isinstance(getattr(mfglab, name), types.ModuleType)}
    assert public - listed == set()
    assert listed - public == set()


def test_namespace_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mfglab.no_such_name
    with pytest.raises(ImportError):
        exec("from mfglab import no_such_name", {})


_NUMPY_LAYER = """
import math, sys
import numpy as np
import mfglab
from mfglab.couplings import CouplingConfig, simulate_coupling
from mfglab.distances import w1_grid
from mfglab.metrics import build_twisted_metric
from mfglab.model import (CATALOG_DIR, check_smallness, constant_diffusion,
                          load_scenario)
from mfglab.profiles import constant_profile
tm = build_twisted_metric(constant_profile(1.0, r_max=30.0), 1.0)
names = sorted(p.stem for p in CATALOG_DIR.glob("*.json"))
for name in names:
    check_smallness(load_scenario(name))
cfg = CouplingConfig(kind="reflection", dt=1e-2, n_paths=64, t_grid=(0.5,),
                     beta=lambda t, x: -x)
init = lambda n, rng: (np.full(n, 0.5), np.full(n, -0.5))
simulate_coupling(cfg, constant_diffusion(math.sqrt(2.0)), init, tm=tm)
x = np.linspace(-5.0, 5.0, 201)
p = np.exp(-x ** 2 / 2) / math.sqrt(2 * math.pi)
w1_grid(x, p, np.roll(p, 3), check=False)
print(len(names), *sorted(m for m in sys.modules if m.startswith("scipy")))
"""

_PDE_LAYER = """
import sys
import mfglab.mfg
print(*sorted(m for m in ("scipy.linalg", "scipy.sparse.linalg",
                          "scipy.optimize") if m in sys.modules))
"""


def _fresh(code):
    src_dir = str(Path(mfglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True).stdout.split()


def test_import_surface_scipy_loads_only_with_the_pde_layer():
    """A fresh process that imports mfglab, builds the OU metric, certifies
    every catalog scenario and runs a reflection coupling and W1 loads no
    scipy module; one that imports mfglab.mfg loads LAPACK, splu and the
    assignment."""
    n_scenarios = len(list(CATALOG_DIR.glob("*.json")))
    assert n_scenarios >= 5
    assert _fresh(_NUMPY_LAYER) == [str(n_scenarios)]
    assert _fresh(_PDE_LAYER) == ["scipy.linalg", "scipy.optimize",
                                  "scipy.sparse.linalg"]
