"""Quadratic hedging toward a target, with jumps, and the value-function link.

A hedger minimizes E[(X_T - d)^2] (maximizes -E[(X_T - d)^2]) with a stock
that carries regime-switching coefficients and compound-Poisson jumps.  The
optimal rule is linear in wealth,

    u_hat = -(Lam_t / Lam) / sigma_i * (X + psi/phi),

where the pair of regime functionals (phi, psi) solves a fixed-point system:
phi and psi are exponential path functionals whose growth rates depend on
the slope Lam_t / Lam.  The demo computes them two ways, verifies the
optimality certificate, and finishes with the dynamic-programming side:
adjoints induced from a candidate value function satisfy the same backward
equation, and the Hamilton-Jacobi-Bellman residual flags a wrong value
function.
"""
import numpy as np

from smjd.jump_diffusion import ControlPolicy, ControlledDynamics, \
    MarkMeasure, ObjectiveSpec, simulate_ensemble
from smjd.maximum_principle import ValueFunctionStub, hjb_residual
from smjd.portfolio_examples import (QuadraticLossModel, ql_adjoint,
                                     ql_dynamics, ql_objective,
                                     ql_optimal_control, ql_phi_psi,
                                     ql_phi_psi_markov, ql_policy,
                                     ql_u_coefficient)
from smjd.semi_markov import (ExponentialHolding, RegimeModel, RegimeState,
                              sample_regime_paths)
from smjd.verification import dp_connection_experiment

regimes = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                      holding=(ExponentialHolding(1.0),
                               ExponentialHolding(1.5)))
marks = MarkMeasure(rate=2.0, atoms=np.array([-0.05, 0.08]),
                    weights=np.array([0.4, 0.6]))
model = QuadraticLossModel(r=np.array([0.05, 0.03]),
                           mbar=np.array([0.4, 0.3]),
                           sigma=np.array([0.2, 0.25]), d=1.0, horizon=1.0,
                           marks=marks,
                           jump_coeff=lambda i, g: [1.0, 1.5][i] * g,
                           lambda_variant="consistent")

# ---------------------------------------------------------------------------
# 1. The hedging functionals: Monte Carlo vs matrix exponential
# ---------------------------------------------------------------------------
t_nodes = np.linspace(0.0, 1.0, 201)
phi_mc, psi_mc, _ = ql_phi_psi(model, regimes, t_nodes, np.array([0.0]),
                               n_paths=4000, seed=41)
phi_ex, psi_ex = ql_phi_psi_markov(model, regimes, t_nodes)
z, zi = np.array([0.0]), np.array([0])
print("Hedging functionals at (t=0, regime 0):")
print(f"  phi: Monte Carlo {phi_mc(z, zi, z)[0]:+.5f} "
      f"(+/- {float(phi_mc.se.max()):.5f}), "
      f"matrix exponential {phi_ex(z, zi, z)[0]:+.5f}")
print(f"  psi: Monte Carlo {psi_mc(z, zi, z)[0]:+.5f} "
      f"(+/- {float(psi_mc.se.max()):.5f}), "
      f"matrix exponential {psi_ex(z, zi, z)[0]:+.5f}")
print("  (Monte Carlo: one pass over 4000 regime paths, the slope being "
      "free of phi)")

print("\nThe rule steers wealth toward the discounted target:")
for x in (0.5, 0.95, 1.2):
    u = ql_optimal_control(model, 0.0, x, 0, 0.0, (phi_ex, psi_ex))
    print(f"  X = {x:.2f}: u_hat = {float(u[0]):+.4f}")

# ---------------------------------------------------------------------------
# 2. Optimality certificate along simulated paths
# ---------------------------------------------------------------------------
paths = sample_regime_paths(regimes, RegimeState(0, 0.0), 1.0, 200, 41)
fns = (ql_phi_psi_markov(model, regimes, np.linspace(0.0, 1.0, 2001)))
dyn, pol = ql_dynamics(model), ql_policy(model, fns)
ens = simulate_ensemble(dyn, pol, paths, x0=0.5, dt=5e-3, seed=41)
adj = ql_adjoint(model, ens, fns, regimes)
print(f"\nMax |Hamiltonian u-coefficient| along candidate paths: "
      f"{ql_u_coefficient(model, ens, adj):.2e} (machine zero)")

# ---------------------------------------------------------------------------
# 3. The dynamic-programming connection
# ---------------------------------------------------------------------------
# In the deterministic special case (no noise, no jumps, u = 0) the value
# function is V = -(x e^{r (T-t)} - d)^2.  Adjoints built from V via
# p = dV/dx satisfy the same backward equation (residual first order in
# dt), and the HJB residual separates the true V from a detuned one.
r, d, T = 0.05, 1.0, 1.0
det_dyn = ControlledDynamics(dim=1,
                             drift=lambda t, x, u, i: r * x,
                             vol=lambda t, x, u, i: np.zeros_like(x))
det_obj = ObjectiveSpec(running=None,
                        terminal=lambda x, i, y: -(x - d) ** 2,
                        terminal_dx=lambda x, i, y: -2.0 * (x - d))
det_pol = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
single = RegimeModel(kernel=np.array([[0.0]]),
                     holding=(ExponentialHolding(1.0),))


def value_stub(rr):
    w = lambda t, x: x * np.exp(rr * (T - t)) - d
    return ValueFunctionStub(
        v=lambda t, x, i, y: -w(t, x) ** 2,
        dt=lambda t, x, i, y: 2.0 * w(t, x) * rr * x * np.exp(rr * (T - t)),
        dx=lambda t, x, i, y: -2.0 * w(t, x) * np.exp(rr * (T - t)),
        dxx=lambda t, x, i, y: -2.0 * np.exp(2 * rr * (T - t))
        * np.ones_like(x),
        dy=lambda t, x, i, y: np.zeros_like(x))


rep = dp_connection_experiment(value_stub(r), det_dyn, det_pol, det_obj,
                               single, x0=0.9, i0=0, y0=0.0, horizon=T,
                               n_paths=100, dts=(8e-3, 4e-3, 2e-3), seed=42)
print("\nValue-function-induced adjoints, residual vs step:")
for dt_, res in zip(rep.dts, rep.residuals):
    print(f"  dt = {dt_:.3f}: {res:.3e}")
print(f"  halving ratios {['%.2f' % q for q in rep.ratios]} "
      f"-> order consistent: {rep.order_consistent}")

res_good = max(abs(hjb_residual(value_stub(r), det_obj, det_dyn, single,
                                t, x, 0, 0.0, None, forced_u=0.0))
               for t in (0.0, 0.5) for x in (0.7, 1.1))
res_bad = max(abs(hjb_residual(value_stub(r + 0.1), det_obj, det_dyn, single,
                               t, x, 0, 0.0, None, forced_u=0.0))
              for t in (0.0, 0.5) for x in (0.7, 1.1))
print(f"\nHJB residual: true value function {res_good:.1e}, "
      f"detuned growth rate {res_bad:.1e} (flagged)")
