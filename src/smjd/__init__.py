"""Semi-Markov modulated jump-diffusion control: simulation and
verification of candidate optimal policies.

Layers:

* :mod:`smjd.semi_markov` — regime process (state, age) sampling and its
  generator;
* :mod:`smjd.jump_diffusion` — controlled Euler-Maruyama paths with
  regime switching and marked jumps, objective estimation;
* :mod:`smjd.maximum_principle` — Hamiltonian, adjoint residuals, the
  joint generator, HJB residuals at a given control, value-function-induced
  adjoints;
* :mod:`smjd.portfolio_examples` — closed-form rules and adjoints for the
  risk-sensitive growth and quadratic hedging problems;
* :mod:`smjd.verification` — sufficiency, Markov-reduction, and
  dynamic-programming-connection experiment harnesses;
* :mod:`smjd.cli` — configuration-driven batch runner (``smjd`` command).
"""

from .errors import (AdmissibilityFailure, AgeBeyondSupport, BoundViolation,
                     ConfigError, DegenerateVol, FixedPointDiverged,
                     InfiniteHazard, InvalidParameter, NonFinitePath,
                     SingularDenominator, SingularPhi, SmjdError)
from .rng import stream
from .semi_markov import (CustomHolding, ExponentialHolding, RegimeModel,
                          RegimePath, RegimePaths, RegimeState, WeibullHolding,
                          apply_generator_L, dynkin_statistics, hazard_rate,
                          intensity_matrix, regime_switch_sum,
                          sample_regime_paths, simulate_ctmc,
                          simulate_regime_direct, simulate_regime_thinning)
from .jump_diffusion import (ControlledDynamics, ControlPolicy, Ensemble,
                             MarkMeasure, NoisePlan, ObjectiveSpec, build_plan,
                             objective_paths, simulate_ensemble, step_plan)
from .maximum_principle import (AdjointPath, AdjointState, ValueFunctionStub,
                                adjoint_from_value, adjoint_residual,
                                dynkin_check, generator_G, grad_x_hamiltonian,
                                hamiltonian, hjb_residual,
                                hjb_terminal_mismatch, integrability_report)
from .portfolio_examples import (QuadraticLossModel, RegimeFunctional,
                                 RiskSensitiveModel, ql_adjoint,
                                 ql_dynamics, ql_objective,
                                 ql_optimal_control, ql_phi_psi, ql_policy,
                                 ql_phi_psi_markov, ql_u_coefficient,
                                 rs_adjoint, rs_dynamics, rs_objective,
                                 rs_optimal_control, rs_phi_functional,
                                 rs_phi_markov, rs_policy, rs_u_coefficient)
from .verification import (MarkovReductionReport, PerturbationFamily,
                           SufficiencyReport, default_perturbation_family,
                           dp_connection_experiment,
                           markov_reduction_experiment,
                           sufficiency_experiment, sufficiency_plan,
                           sufficiency_sweeps)

__version__ = "0.1.0"
