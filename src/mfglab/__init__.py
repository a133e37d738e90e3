"""mfglab: coupling rates, stochastic control bounds, and mean-field-game
turnpike verification at desk scale (1D PDEs and couplings, d-dimensional
matrix factor and sampled profiles)."""

__version__ = "0.1.0"

from .errors import MfglabError
from .profiles import (MonotonicityProfile, KReport, make_profile,
                       certify_class_K, constant_profile, double_well_profile,
                       profile_of_drift, shift_profile)
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
from .distances import (w1_grid, w1_samples, tv_grid, wf_grid, wf_atoms,
                        f_norm, lip_norm)
from .couplings import (CouplingConfig, CouplingStats, simulate_coupling,
                        check_drift_gap_bounds, moment_diagnostic,
                        time_regularity)
from .control import (ValueFunction, MeasureFlow, solve_hjb,
                      solve_fokker_planck, optimal_flow,
                      stationary_density_cc, lipschitz_ledger,
                      hessian_ledger, stability_ledger, pontryagin_residual,
                      box_doubling_check, BoundLedger)
from .mfg import (ErgodicSolution, TurnpikeReport,
                  TurnpikeConstants, frozen_solve, solve_mfg,
                  frozen_ergodic, solve_ergodic_mfg, turnpike_constants,
                  turnpike_report, moment_bound)


