"""Power-utility portfolio choice under regime switching, verified end to end.

An investor maximizes E[X_T^gamma / gamma] by splitting wealth between a
bond (rate r_i) and a stock (drift mu_i, volatility sigma_i), both modulated
by the regime.  The optimal dollar exposure is myopic and proportional:

    u_hat = mbar_i / ((1 - gamma) sigma_i) * X,   mbar_i = (mu_i - r_i)/sigma_i.

The candidate's shadow price is p = X^{gamma-1} * Phi(t, regime, age) with a
regime functional Phi computed two independent ways: a Monte Carlo path
estimator and (for exponential holding times) an exact matrix exponential.
The certificate has three legs: the first-order condition is machine zero,
the backward-equation residual shrinks linearly in dt, and no perturbation
of the policy improves the objective on coupled noise.
"""
import numpy as np

from smjd.jump_diffusion import simulate_ensemble
from smjd.maximum_principle import adjoint_residual
from smjd.portfolio_examples import (RiskSensitiveModel, rs_adjoint,
                                     rs_dynamics, rs_objective,
                                     rs_optimal_control, rs_phi_functional,
                                     rs_phi_markov, rs_policy,
                                     rs_u_coefficient)
from smjd.semi_markov import (ExponentialHolding, RegimeModel, RegimeState,
                              sample_regime_paths)
from smjd.verification import (default_perturbation_family,
                               sufficiency_plan, sufficiency_sweeps)

regimes = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                      holding=(ExponentialHolding(1.0),
                               ExponentialHolding(1.5)))
model = RiskSensitiveModel(r=np.array([0.05, 0.03]),
                           mu=np.array([0.13, 0.105]),
                           sigma=np.array([0.2, 0.25]), gamma=0.5,
                           horizon=1.0)

print("Optimal exposure is proportional to wealth, per regime:")
for i in range(2):
    u = rs_optimal_control(model, 0.0, 1.0, i)
    print(f"  regime {i}: u_hat = {float(u):.3f} * X  "
          f"(mbar = {model.mbar[i]:.2f}, sigma = {model.sigma[i]:.2f})")

# ---------------------------------------------------------------------------
# 1. The regime functional, two ways
# ---------------------------------------------------------------------------
t_nodes = np.linspace(0.0, 1.0, 2001)
phi_exact = rs_phi_markov(model, regimes, t_nodes, variant="literal")
# Monte Carlo at the start node (t = 0, regime 0, age 0)
phi_mc = rs_phi_functional(model, regimes, np.array([0.0, 1.0]),
                           np.array([0.0]), n_paths=4000, seed=31,
                           variant="literal")
val_mc, se_mc = phi_mc.values[0, 0, 0], phi_mc.se[0, 0, 0]
z, zi = np.array([0.0]), np.array([0])
val_ex = float(phi_exact(z, zi, z)[0])
print(f"\nPhi(0, regime 0): matrix exponential {val_ex:.5f}, "
      f"Monte Carlo {val_mc:.5f} +/- {se_mc:.5f} "
      f"({'agree' if abs(val_mc - val_ex) < 3 * se_mc else 'DISAGREE'})")

# ---------------------------------------------------------------------------
# 2. First-order condition along simulated candidate paths
# ---------------------------------------------------------------------------
paths = sample_regime_paths(regimes, RegimeState(0, 0.0), 1.0, 200, 31)
dyn, pol, obj = rs_dynamics(model), rs_policy(model), rs_objective(model)
ens = simulate_ensemble(dyn, pol, paths, x0=1.0, dt=5e-3, seed=31)
adj = rs_adjoint(model, ens, phi_exact, regimes, variant="literal")
print(f"\nMax |Hamiltonian u-coefficient| along candidate paths: "
      f"{rs_u_coefficient(model, ens, adj):.2e} (machine zero)")

# ---------------------------------------------------------------------------
# 3. Backward-equation residual shrinks linearly in the step
# ---------------------------------------------------------------------------
# With mu = r the wealth path is deterministic given the regime path, and
# the discrete residual of the adjoint's backward equation is pure
# discretization error: it halves when dt halves.
check = RiskSensitiveModel(r=model.r, mu=model.r, sigma=model.sigma,
                           gamma=0.5, horizon=1.0)
phi_chk = rs_phi_markov(check, regimes, t_nodes, variant="literal")
dyn_c, pol_c, obj_c = rs_dynamics(check), rs_policy(check), rs_objective(check)
print("\nBackward-equation residual (mu = r configuration):")
prev = None
for dt in (8e-3, 4e-3, 2e-3):
    e = simulate_ensemble(dyn_c, pol_c, paths, x0=1.0, dt=dt, seed=32)
    st = adjoint_residual(e, rs_adjoint(check, e, phi_chk, regimes,
                                        variant="literal"), dyn_c, obj_c)
    ratio = "" if prev is None else f"  (ratio {st.mean_path_total / prev:.2f})"
    print(f"  dt = {dt:.3f}: mean path total {st.mean_path_total:.3e}"
          f"{ratio}, terminal mismatch {st.terminal_mismatch:.1e}")
    prev = st.mean_path_total

# ---------------------------------------------------------------------------
# 4. No perturbation improves the candidate (coupled noise)
# ---------------------------------------------------------------------------
fams = default_perturbation_family(rs_policy(model), relative=True,
                                   horizon=1.0)
# every policy of the sweep is stepped on this one noise plan
plan = sufficiency_plan(dyn, regimes, i0=0, y0=0.0, horizon=1.0,
                        n_paths=2000, dt=5e-3, seed=33)
rep = sufficiency_sweeps(dyn, obj, [(fams, None)], plan, x0=1.0, seed=33)[0]
worst = min(r.dJ for r in rep.results if r.delta != 0.0)
print(f"\nSufficiency sweep over {len(rep.results)} perturbations: "
      f"{'PASS' if rep.passed else 'FAIL'} "
      f"(J = {rep.j_hat:.5f} +/- {rep.se_hat:.5f}, worst dJ {worst:+.2e})")
