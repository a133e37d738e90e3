"""mfglab: coupling rates, stochastic control bounds, and mean-field-game
turnpike verification at desk scale (1D PDEs, couplings and profiles; the
reduced diffusion factor also in d dimensions).

``import mfglab`` loads the numpy layer only: profiles, twisted metrics,
scenarios, W1/TV distances and couplings.  The PDE layer and exact W_f
(``control``, ``mfg``, ``transport``) bring scipy's LAPACK, ``splu`` and
assignment solver, so their names, and the modules themselves, load on
first access (``mfglab.solve_mfg``, ``from mfglab import solve_mfg``).
"""

import importlib

__version__ = "0.1.0"

from .errors import MfglabError
from .profiles import (MonotonicityProfile, KReport, make_profile,
                       certify_class_K, constant_profile, double_well_profile,
                       shift_profile)
from .metrics import (TwistedMetric, QuadraticTwistedMetric,
                      build_twisted_metric, build_quadratic_metric,
                      check_differential_inequality, q_kernel, q_integral,
                      q_weighted_integral, gap_envelope, girsanov_tv,
                      lemma_kernel_integrals, save_metric, load_metric)
from .model import (Scenario, Grid1D, MCConfig, GaussianLaw, DiffusionSpec,
                    DriftSpec, RunningCostSpec, InteractionSpec,
                    TerminalCostSpec, GridDensity, ParticleCloud,
                    constant_diffusion, varying_diffusion, linear_drift,
                    double_well_drift, quadratic_cost, mean_interaction,
                    conv_tanh_interaction, no_interaction, zero_terminal,
                    quadratic_terminal, sigma_bar, policy, hamiltonian,
                    policy_gap_bound, check_smallness, probe_assumptions,
                    load_scenario)
from .distances import w1_grid, w1_samples, tv_grid, f_norm, lip_norm
from .couplings import (CouplingConfig, CouplingStats, simulate_coupling,
                        check_drift_gap_bounds, moment_diagnostic,
                        time_regularity)

# names of the modules that import scipy, loaded on first access
_LAZY = {
    "transport": ("wf_grid", "wf_atoms"),
    "control": ("ValueFunction", "MeasureFlow", "solve_hjb",
                "solve_fokker_planck", "optimal_flow",
                "stationary_density_cc", "lipschitz_ledger", "hessian_ledger",
                "stability_ledger", "pontryagin_residual",
                "box_doubling_check", "BoundLedger"),
    "mfg": ("ErgodicSolution", "TurnpikeReport", "TurnpikeConstants",
            "frozen_solve", "solve_mfg", "frozen_ergodic",
            "solve_ergodic_mfg", "turnpike_constants", "turnpike_report"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items()
              for name in names}


def __getattr__(name):
    module = _LAZY_HOME.get(name, name if name in _LAZY else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    owner = importlib.import_module(f".{module}", __name__)
    value = owner if module == name else getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_HOME))
