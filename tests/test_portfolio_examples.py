"""Closed-form rules, functionals, and adjoints for both portfolio problems."""
import hashlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from smjd import portfolio_examples
from smjd.errors import (DegenerateVol, FixedPointDiverged,
                         SingularDenominator, SingularPhi)
from smjd.jump_diffusion import ControlPolicy, MarkMeasure, simulate_ensemble
from smjd.maximum_principle import adjoint_residual
from smjd.portfolio_examples import (QuadraticLossModel, RegimeFunctional,
                                     RiskSensitiveModel, _sojourn_cumulative,
                                     ql_adjoint, ql_dynamics,
                                     ql_lambda_factors, ql_objective,
                                     ql_optimal_control, ql_phi_psi,
                                     ql_phi_psi_markov, ql_policy,
                                     ql_u_coefficient, rs_adjoint, rs_dynamics,
                                     rs_objective, rs_optimal_control,
                                     rs_phi_functional, rs_phi_markov,
                                     rs_policy, rs_source_rate,
                                     rs_u_coefficient)
from smjd.rng import stream
from smjd.semi_markov import (ExponentialHolding, RegimeModel, RegimePath,
                              RegimeState, WeibullHolding, intensity_matrix,
                              sample_regime_paths, simulate_regime_direct)


def _paths(model, n, horizon, seed):
    return [simulate_regime_direct(model, RegimeState(0, 0.0), horizon,
                                   stream(seed, "regime", k))
            for k in range(n)]


@pytest.fixture
def rs_single():
    return RiskSensitiveModel(r=np.array([0.05]), mu=np.array([0.13]),
                              sigma=np.array([0.2]), gamma=0.5, horizon=1.0)


@pytest.fixture
def rs_two():
    return RiskSensitiveModel(r=np.array([0.05, 0.03]),
                              mu=np.array([0.13, 0.105]),
                              sigma=np.array([0.2, 0.25]), gamma=0.5,
                              horizon=1.0)


@pytest.fixture
def exp_two():
    return RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       holding=(ExponentialHolding(1.0),
                                ExponentialHolding(1.5)))


@pytest.fixture
def ql_nojump_single():
    return QuadraticLossModel(r=np.array([0.05]), mbar=np.array([0.4]),
                              sigma=np.array([0.2]), d=1.0, horizon=1.0)


def _ql_jump_model(variant):
    marks = MarkMeasure(rate=2.0, atoms=np.array([-0.05, 0.08]),
                        weights=np.array([0.4, 0.6]))
    return QuadraticLossModel(r=np.array([0.05, 0.03]),
                              mbar=np.array([0.4, 0.3]),
                              sigma=np.array([0.2, 0.25]), d=1.0, horizon=1.0,
                              marks=marks,
                              jump_coeff=lambda i, g: [1.0, 1.5][i] * g,
                              lambda_variant=variant)


def _weibull_exp():
    """A 2-state kernel with one Weibull and one exponential state."""
    return RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       holding=(WeibullHolding(shape=1.5, scale=0.8),
                                ExponentialHolding(1.0)))


def _three_state():
    """A 3-state exponential kernel with RS and (jump-free) QL models on
    it; the QL rates are (2r - mbar^2, r - mbar^2) without jumps."""
    rm = RegimeModel(kernel=np.array([[0.0, 0.3, 0.7], [0.6, 0.0, 0.4],
                                      [0.5, 0.5, 0.0]]),
                     holding=(ExponentialHolding(1.0), ExponentialHolding(1.5),
                              ExponentialHolding(0.7)))
    r, sigma = np.array([0.05, 0.03, 0.04]), np.array([0.2, 0.25, 0.3])
    rs = RiskSensitiveModel(r=r, mu=np.array([0.13, 0.105, 0.09]),
                            sigma=sigma, gamma=0.5, horizon=1.0)
    ql = QuadraticLossModel(r=r, mbar=np.array([0.4, 0.3, 0.2]), sigma=sigma,
                            d=1.5, horizon=1.0)
    return rm, rs, ql


# ---------------------------------------------------------------------------
# growth-optimal (power-utility) problem
# ---------------------------------------------------------------------------

class TestRsControl:
    def test_zero_excess_return_stays_in_bond(self):
        model = RiskSensitiveModel(r=np.array([0.05]), mu=np.array([0.05]),
                                   sigma=np.array([0.2]), gamma=0.5,
                                   horizon=1.0)
        assert rs_optimal_control(model, 0.0, 100.0, 0) == pytest.approx(0.0)

    def test_reference_point(self, rs_single):
        # mbar=0.4, sigma=0.2, gamma=0.5: u = 0.4/(0.5*0.2) * x = 4x
        assert rs_optimal_control(rs_single, 0.0, 100.0,
                                  0) == pytest.approx(400.0)

    def test_risk_aversion_flips_sign(self):
        model = RiskSensitiveModel(r=np.array([0.05]), mu=np.array([0.13]),
                                   sigma=np.array([0.2]), gamma=2.0,
                                   horizon=1.0)
        assert rs_optimal_control(model, 0.0, 100.0,
                                  0) == pytest.approx(-200.0)

    def test_zero_vol_rejected(self):
        with pytest.raises((DegenerateVol, ValueError)):
            RiskSensitiveModel(r=np.array([0.05]), mu=np.array([0.13]),
                               sigma=np.array([0.0]), gamma=0.5, horizon=1.0)


def _rs_start_node(model, regime_model, n_paths, seed, variant):
    """The Monte Carlo functional on the grid t in {0, T}, age 0: its
    (value, SE) at regime 0, t = 0, and its value at t = T."""
    fn = rs_phi_functional(model, regime_model, np.array([0.0, 1.0]),
                           np.array([0.0]), n_paths, seed, variant=variant)
    return fn.values[0, 0, 0], fn.se[0, 0, 0], fn.values[-1, 0, 0]


class TestRsPhi:
    def test_terminal_boundary(self, rs_single, single_regime):
        v_int = _rs_start_node(rs_single, single_regime, 10, 0, "integral")[2]
        assert v_int == pytest.approx(0.0, abs=1e-14)
        v_lit = _rs_start_node(rs_single, single_regime, 10, 0, "literal")[2]
        assert v_lit == pytest.approx(1.0, abs=1e-14)

    def test_single_regime_source_rate_reference_value(self, rs_single,
                                                       single_regime):
        # a = gamma*r - mbar^2 + ((2-gamma)/(1-gamma)) * mbar^2/(2 sigma^2)
        #   = 0.025 - 0.16 + 3*2 = 5.865 for the constants above
        assert rs_source_rate(rs_single)[0] == pytest.approx(5.865, abs=1e-12)
        val, se, _ = _rs_start_node(rs_single, single_regime, 100, 0,
                                    "integral")
        assert val == pytest.approx(5.865, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-14)

    def test_two_regime_monte_carlo_vs_ode_system(self, rs_two, exp_two):
        # method-of-lines oracle: v_i(t) = E[int_t^T a(theta_s) ds | theta=i]
        # solves v' = -a - Q v backward from v(T) = 0
        a = rs_source_rate(rs_two)
        Q = np.array([[-1.0, 1.0], [1.5, -1.5]])

        def rhs(t, v):
            return -a - Q @ v

        sol = solve_ivp(rhs, [1.0, 0.0], np.zeros(2), rtol=1e-10,
                        atol=1e-12)
        oracle = sol.y[0, -1]
        val, se, _ = _rs_start_node(rs_two, exp_two, 3000, 11, "integral")
        assert abs(val - oracle) < 3 * se

    def test_markov_functional_matches_ode_exactly(self, rs_two, exp_two):
        a = rs_source_rate(rs_two)
        Q = np.array([[-1.0, 1.0], [1.5, -1.5]])
        # multiplicative form: w(tau) = expm((Q + diag(a)) tau) 1
        w = expm((Q + np.diag(a)) * 1.0) @ np.ones(2)
        fn = rs_phi_markov(rs_two, exp_two, np.linspace(0.0, 1.0, 501),
                           variant="literal")
        got = fn(np.array([0.0, 0.0]), np.array([0, 1]), np.array([0.0, 0.0]))
        assert np.allclose(got, w, rtol=1e-10)

    def test_integral_markov_functional_matches_ode(self):
        # additive form: v_i(t) = E[int_t^T a ds | theta_t = i] solves
        # v' = -a - Q v, v(T) = 0; with three states the augmented
        # generator's rows and columns must line up with Q's
        rm, model, _ = _three_state()
        a = rs_source_rate(model)
        Q = np.array([[-1.0, 0.3, 0.7], [0.9, -1.5, 0.6], [0.35, 0.35, -0.7]])
        t_nodes = np.linspace(0.0, 1.0, 11)
        sol = solve_ivp(lambda t, v: -a - Q @ v, [1.0, 0.0], np.zeros(3),
                        t_eval=t_nodes[::-1], method="DOP853", rtol=1e-12,
                        atol=1e-14)
        fn = rs_phi_markov(model, rm, t_nodes, variant="integral")
        np.testing.assert_allclose(fn.values[:, :, 0], sol.y.T[::-1],
                                   rtol=1e-8)

    def test_functional_grid_agrees_with_markov_oracle(self, rs_two, exp_two):
        # under exponential holding the functional does not depend on age,
        # so every start node (i, y) at t = 0 must match the exact value
        t_nodes = np.linspace(0.0, 1.0, 11)
        mc = rs_phi_functional(rs_two, exp_two, t_nodes, np.array([0.0, 0.5]),
                               2000, 17, variant="literal")
        exact = rs_phi_markov(rs_two, exp_two, t_nodes, variant="literal")
        for i in range(2):
            for b in range(2):
                assert (abs(mc.values[0, i, b] - exact.values[0, i, 0])
                        < 3 * mc.se[0, i, b])


def _sojourn_cumulative_reference(paths, c_states, taus):
    """One sojourn at a time, one path at a time."""
    cum = np.zeros(np.shape(c_states)[:-1] + (len(paths), len(taus)))
    for p, rp in enumerate(paths):
        seg_t = [0.0] + [t for t, _ in rp.events] + [rp.horizon]
        seg_s = [rp.origin.theta] + [s for _, s in rp.events]
        for s0, s1, st in zip(seg_t[:-1], seg_t[1:], seg_s):
            cum[..., p, :] += (c_states[..., st, None]
                               * np.clip(taus - s0, 0.0, s1 - s0))
    return cum


@pytest.mark.parametrize("c_states", [np.array([0.7, -1.3]),
                                      np.array([[-2.0, 0.4], [1.5, -0.25]])])
def test_sojourn_cumulative_matches_per_path_loop(exp_two, c_states):
    # sojourn counts differ from path to path, so short paths are padded
    paths = [*sample_regime_paths(exp_two, RegimeState(1, 0.2), 1.5, 40, 13),
             RegimePath([], RegimeState(0, 0.0), 1.5)]
    taus = np.linspace(0.0, 1.5, 31)
    got = _sojourn_cumulative(paths, c_states, taus)
    want = _sojourn_cumulative_reference(paths, c_states, taus)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRsAdjoint:
    def test_terminal_and_first_order_condition(self, rs_two, exp_two):
        phi = rs_phi_markov(rs_two, exp_two, np.linspace(0.0, 1.0, 1001),
                            variant="literal")
        dyn, pol = rs_dynamics(rs_two), rs_policy(rs_two)
        ens = simulate_ensemble(dyn, pol, _paths(exp_two, 200, 1.0, 17),
                                x0=1.0, dt=5e-3, seed=17)
        adj = rs_adjoint(rs_two, ens, phi, exp_two, variant="literal")
        # terminal: p(T) = X(T)^{gamma-1} since the functional ends at 1
        assert np.allclose(adj.p[:, -1], ens.x[:, -1] ** (-0.5), rtol=1e-10)
        assert rs_u_coefficient(rs_two, ens, adj) < 1e-12

    def test_residual_halves_with_dt(self, exp_two):
        # mu = r: the candidate keeps everything in the bond, wealth is
        # deterministic given the regime path, and the backward residual
        # is pure time-discretization error, so the path total is O(dt)
        model = RiskSensitiveModel(r=np.array([0.05, 0.03]),
                                   mu=np.array([0.05, 0.03]),
                                   sigma=np.array([0.2, 0.25]), gamma=0.5,
                                   horizon=1.0)
        phi = rs_phi_markov(model, exp_two, np.linspace(0.0, 1.0, 2001),
                            variant="literal")
        dyn, pol, obj = (rs_dynamics(model), rs_policy(model),
                         rs_objective(model))
        totals = []
        for dt in (8e-3, 4e-3):
            ens = simulate_ensemble(dyn, pol, _paths(exp_two, 400, 1.0, 19),
                                    x0=1.0, dt=dt, seed=19)
            adj = rs_adjoint(model, ens, phi, exp_two, variant="literal")
            stats = adjoint_residual(ens, adj, dyn, obj)
            totals.append(stats.mean_path_total)
            assert stats.terminal_mismatch < 1e-12
        assert 0.35 < totals[1] / totals[0] < 0.65

    def test_only_consistent_rate_closes_backward_equation(self, rs_two,
                                                           exp_two):
        # with excess return present, the literal source rate leaves an
        # O(1) drift mismatch while the consistent rate leaves only
        # discretization error
        dyn, pol, obj = (rs_dynamics(rs_two), rs_policy(rs_two),
                         rs_objective(rs_two))
        ens = simulate_ensemble(dyn, pol, _paths(exp_two, 200, 1.0, 43),
                                x0=1.0, dt=4e-3, seed=43)
        totals = {}
        for rv in ("literal", "consistent"):
            phi = rs_phi_markov(rs_two, exp_two, np.linspace(0.0, 1.0, 2001),
                                variant="literal", rate_variant=rv)
            adj = rs_adjoint(rs_two, ens, phi, exp_two, variant="literal")
            stats = adjoint_residual(ens, adj, dyn, obj)
            totals[rv] = stats.mean_path_total
        assert totals["consistent"] < 0.1
        assert totals["literal"] > 10.0


# ---------------------------------------------------------------------------
# quadratic hedging problem
# ---------------------------------------------------------------------------

class TestQlLambdaFactors:
    def test_no_jumps(self, ql_nojump_single):
        lam_t, lam = ql_lambda_factors(ql_nojump_single, 0.0, 0, 0.0, -2.0)
        assert lam_t == pytest.approx(-0.08)
        assert lam == pytest.approx(0.04)
        assert lam_t / lam == pytest.approx(-2.0)  # -mbar/sigma

    def test_literal_factors_reference_values(self):
        marks = MarkMeasure(rate=1.0, atoms=np.array([0.1]),
                            weights=np.array([1.0]))
        model = QuadraticLossModel(r=np.array([0.05]), mbar=np.array([0.4]),
                                   sigma=np.array([0.2]), d=1.0, horizon=1.0,
                                   marks=marks,
                                   jump_coeff=lambda i, g: g,
                                   lambda_variant="literal")
        lam_t, lam = ql_lambda_factors(model, 0.0, 0, 0.0, -1.5)
        assert lam_t == pytest.approx(0.02, abs=1e-14)
        assert lam == pytest.approx(0.025, abs=1e-14)

    def test_phi_zero_removes_jump_term_from_denominator(self):
        marks = MarkMeasure(rate=1.0, atoms=np.array([0.1]),
                            weights=np.array([1.0]))
        model = QuadraticLossModel(r=np.array([0.05]), mbar=np.array([0.4]),
                                   sigma=np.array([0.2]), d=1.0, horizon=1.0,
                                   marks=marks, jump_coeff=lambda i, g: g,
                                   lambda_variant="literal")
        _, lam = ql_lambda_factors(model, 0.0, 0, 0.0, 0.0)
        assert lam == pytest.approx(0.04)

    def test_consistent_factors_carry_jump_rate(self):
        model = _ql_jump_model("consistent")
        lam_t, lam = ql_lambda_factors(model, 0.0, 0, 0.0, -2.0)
        # -(mbar*sigma + rate*m1) and sigma^2 + rate*m2 with
        # m1 = 0.028, m2 = 0.00484 in regime 0
        assert lam_t == pytest.approx(-(0.08 + 2.0 * 0.028), abs=1e-14)
        assert lam == pytest.approx(0.04 + 2.0 * 0.00484, abs=1e-14)

    def test_singular_denominator(self):
        model = QuadraticLossModel(r=np.array([0.0]), mbar=np.array([0.0]),
                                   sigma=np.array([1e-7]), d=1.0, horizon=1.0)
        with pytest.raises(SingularDenominator):
            ql_lambda_factors(model, 0.0, 0, 0.0, -2.0)

    @pytest.mark.parametrize("variant", ["literal", "consistent"])
    @pytest.mark.parametrize("jumps", [True, False], ids=["jumps", "no-jumps"])
    def test_factors_equal_written_out_formulas_bit_for_bit(self, variant,
                                                            jumps):
        model = (_ql_jump_model(variant) if jumps else QuadraticLossModel(
            r=np.array([0.05, 0.03]), mbar=np.array([0.4, 0.3]),
            sigma=np.array([0.2, 0.25]), d=1.0, horizon=1.0,
            lambda_variant=variant))
        mbar, sigma = model.mbar, model.sigma
        rate, m1, m2 = 0.0, np.zeros(2), np.zeros(2)
        if jumps:  # pi puts 0.4 on -0.05 and 0.6 on 0.08; g = (1, 1.5)[i] mark
            atoms, w = np.array([-0.05, 0.08]), np.array([0.4, 0.6])
            rate = 2.0
            m1 = np.array([np.sum(c * atoms * w) for c in (1.0, 1.5)])
            m2 = np.array([np.sum((c * atoms) ** 2 * w) for c in (1.0, 1.5)])
        rng = np.random.default_rng(11)
        i_vec = np.array([0, 1, 1, 0, 1])
        queries = [(i_vec, -1.5), (i_vec, rng.uniform(-3.0, -0.5, 5)),
                   (i_vec, rng.uniform(-3.0, -0.5, (3, 1))),
                   (i_vec.reshape(5, 1), rng.uniform(-3.0, -0.5, (5, 4))),
                   (1, rng.uniform(-3.0, -0.5, 5)), (1, -1.5), (0, -0.5)]
        for i, phi in queries:
            if variant == "literal":
                lam_t = -(mbar[i] * sigma[i]) + m1[i]
                lam = sigma[i] ** 2 + phi * m2[i]
            else:
                lam_t = -(sigma[i] * mbar[i] + rate * m1[i])
                lam = sigma[i] ** 2 + rate * m2[i]
            got = ql_lambda_factors(model, 0.3, i, 0.7, phi)
            shape = np.broadcast_shapes(np.shape(i), np.shape(phi))
            if not shape:
                assert all(type(g) is float for g in got)
            for g, want in zip(got, (lam_t, lam)):
                g, want = (np.asarray(np.broadcast_to(a, shape), dtype=float)
                           for a in (g, want))
                assert g.shape == shape
                assert np.array_equal(g.view(np.int64), want.view(np.int64))


class TestQlPhiPsi:
    def test_no_jump_closed_form(self, ql_nojump_single, single_regime):
        phi, psi, info = ql_phi_psi(ql_nojump_single, single_regime,
                                    np.linspace(0.0, 1.0, 11),
                                    np.array([0.0]), n_paths=64, seed=0)
        z, zi = np.array([0.0]), np.array([0])
        assert phi(z, zi, z)[0] == pytest.approx(-2.0 * np.exp(-0.06),
                                                 rel=1e-10)
        assert psi(z, zi, z)[0] == pytest.approx(2.0 * np.exp(-0.11),
                                                 rel=1e-10)
        # terminal boundary exact
        T = np.array([1.0])
        assert phi(T, zi, z)[0] == pytest.approx(-2.0, abs=1e-12)
        assert psi(T, zi, z)[0] == pytest.approx(2.0, abs=1e-12)

    def test_markov_functional_matches_closed_form(self, ql_nojump_single,
                                                   single_regime):
        phi, psi = ql_phi_psi_markov(ql_nojump_single, single_regime,
                                     np.linspace(0.0, 1.0, 101))
        ts = np.array([0.0, 0.25, 0.75])
        zi, zy = np.zeros(3, dtype=int), np.zeros(3)
        assert np.allclose(phi(ts, zi, zy), -2.0 * np.exp(-0.06 * (1 - ts)),
                           rtol=1e-10)
        assert np.allclose(psi(ts, zi, zy), 2.0 * np.exp(-0.11 * (1 - ts)),
                           rtol=1e-10)

    def test_jump_single_regime_fixed_point_vs_ode(self):
        # scalar phi-coupled system integrated by an independent stiff solver
        marks = MarkMeasure(rate=2.0, atoms=np.array([-0.05, 0.08]),
                            weights=np.array([0.4, 0.6]))
        model = QuadraticLossModel(r=np.array([0.05]), mbar=np.array([0.4]),
                                   sigma=np.array([0.2]), d=1.0, horizon=1.0,
                                   marks=marks, jump_coeff=lambda i, g: g,
                                   lambda_variant="literal")
        m1 = marks.integrate(lambda g: g)
        m2 = marks.integrate(lambda g: g ** 2)
        kterm = 0.2 * 0.4 + 2.0 * m1

        def K(phi_v):
            return (-0.08 + m1) / (0.04 + phi_v * m2)

        def rhs(t, v):
            # phi(t) = -2 exp(int_t^T c ds) satisfies dphi/dt = -c phi
            phi_v, psi_v = v
            k = K(phi_v)
            return [-(2 * 0.05 + k * kterm) * phi_v,
                    -(0.05 + k * kterm) * psi_v]

        sol = solve_ivp(rhs, [1.0, 0.0], [-2.0, 2.0], rtol=1e-10, atol=1e-12)
        phi_oracle, psi_oracle = sol.y[0, -1], sol.y[1, -1]
        single = RegimeModel(kernel=np.array([[0.0]]),
                             holding=(ExponentialHolding(1.0),))
        phi, psi, info = ql_phi_psi(model, single,
                                    np.linspace(0.0, 1.0, 51),
                                    np.array([0.0]), n_paths=64, seed=1)
        z, zi = np.array([0.0]), np.array([0])
        assert phi(z, zi, z)[0] == pytest.approx(phi_oracle, rel=2e-3)
        assert psi(z, zi, z)[0] == pytest.approx(psi_oracle, rel=2e-3)

    def test_two_regime_monte_carlo_vs_matrix_exponential(self, exp_two):
        model = _ql_jump_model("consistent")
        t_nodes = np.linspace(0.0, 1.0, 21)
        phi_mc, psi_mc, _ = ql_phi_psi(model, exp_two, t_nodes,
                                       np.array([0.0, 0.5]), n_paths=4000,
                                       seed=2)
        phi_ex, psi_ex = ql_phi_psi_markov(model, exp_two, t_nodes)
        z, zi = np.array([0.0]), np.array([0])
        se = max(float(phi_mc.se.max()), 1e-6)
        assert abs(phi_mc(z, zi, z)[0] - phi_ex(z, zi, z)[0]) < 3 * se
        se_p = max(float(psi_mc.se.max()), 1e-6)
        assert abs(psi_mc(z, zi, z)[0] - psi_ex(z, zi, z)[0]) < 3 * se_p

    @pytest.mark.parametrize("model", [
        _ql_jump_model("consistent"),
        QuadraticLossModel(r=[0.05, 0.03], mbar=[0.4, 0.3], sigma=[0.2, 0.25],
                           d=1.0, horizon=1.0, lambda_variant="literal"),
    ], ids=["consistent-with-jumps", "literal-without-jumps"])
    def test_phi_free_slope_takes_one_pass(self, exp_two, model, monkeypatch):
        args = (model, exp_two, np.linspace(0.0, 1.0, 11),
                np.array([0.0, 0.5]), 32, 3)
        phi, psi, info = ql_phi_psi(*args)
        # the exact pass over the sojourns never reaches the sweep's rounds
        monkeypatch.setattr(portfolio_examples, "_SWEEP_ROUNDS", 1)
        phi1, psi1, info1 = ql_phi_psi(*args)
        assert info == info1 == {"iterations": 1}
        for a, b in ((phi, phi1), (psi, psi1)):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.se, b.se)

    def test_phi_feedback_fixed_point_is_pinned(self):
        # the backward sweep (literal variant with jumps) on a Weibull state,
        # with ages past 0: SHA-256 of the phi/psi values and their SEs; like
        # the CLI digests, a numpy or scipy build change can move it
        rm = _weibull_exp()
        phi, psi, info = ql_phi_psi(_ql_jump_model("literal"), rm,
                                    np.linspace(0.0, 1.0, 11),
                                    np.array([0.0, 0.5, 1.0]), 32, 5)
        digest = hashlib.sha256()
        for a in (phi.values, psi.values, phi.se, psi.se):
            digest.update(np.asarray(a, dtype=float).tobytes())
        assert info == {"iterations": 1}
        assert digest.hexdigest() == ("ac0c356e73ac1166c50229699a199138"
                                      "8009e7ffb4114cadf54583015b20534f")

    def test_phi_feedback_is_the_discrete_fixed_point(self):
        # one fresh trapezoid estimate at the sweep's phi, written out here
        # path by path, gives the sweep's phi and psi back
        model, rm = _ql_jump_model("literal"), _weibull_exp()
        t_nodes, y_nodes = np.linspace(0.0, 1.0, 11), np.array([0.0, 0.5, 1.0])
        n_paths, seed, h = 32, 5, 0.1
        phi, psi, _ = ql_phi_psi(model, rm, t_nodes, y_nodes, n_paths, seed)
        lam_t, lam_0, lam_phi = model.slope_terms
        for i, b in np.ndindex(2, 3):
            paths = sample_regime_paths(rm, RegimeState(i, y_nodes[b]), 1.0,
                                        n_paths, seed, f"qlfk/{i}/{b}")
            for a, t in enumerate(t_nodes):
                fresh = np.zeros((2, n_paths))
                for p in range(n_paths):
                    v = t_nodes[a:] - t  # elapsed times of the column's nodes
                    th, yy = paths[p].state_at(v, side="right")
                    f = phi(t_nodes[a:], th, yy)
                    k = lam_t[th] / (lam_0[th] + f * lam_phi[th])
                    c = np.stack([2 * model.r[th], model.r[th]]) + (
                        k * model.gain[th])
                    fresh[:, p] = np.sum(0.5 * h * (c[:, 1:] + c[:, :-1]),
                                         axis=1)
                want = np.array([-2.0, 2.0]) * np.exp(fresh).mean(axis=1)
                got = phi.values[a, i, b], psi.values[a, i, b]
                assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_phi_feedback_reads_the_grid_from_its_first_node(self, exp_two):
        # the sweep reads each path at elapsed time t - t_0: a grid starting
        # at 0.5 gives the full grid's values there, on the same streams
        model = _ql_jump_model("literal")
        full = ql_phi_psi(model, exp_two, np.linspace(0.0, 1.0, 11), _Y1,
                          2000, 3)
        late = ql_phi_psi(model, exp_two, np.linspace(0.5, 1.0, 6), _Y1,
                          2000, 3)
        for f, g in zip(full[:2], late[:2]):
            assert np.allclose(f.values[5:], g.values, rtol=0, atol=1e-15)
            assert np.allclose(f.se[5:], g.se, rtol=0, atol=1e-15)

    def test_phi_feedback_round_cap_raises(self, exp_two, monkeypatch):
        monkeypatch.setattr(portfolio_examples, "_SWEEP_ROUNDS", 1)
        with pytest.raises(FixedPointDiverged, match=r"phi at node \(t=0\.9, "
                                                     r"regime \d, age 0\)"):
            ql_phi_psi(_ql_jump_model("literal"), exp_two,
                       np.linspace(0.0, 1.0, 11), _Y1, 32, 3)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


class TestStartNodeTable:
    """The Monte Carlo builders' one table of paths from every start node."""

    def test_path_p_of_node_ib_draws_from_its_stream(self, weibull3_model):
        rm, y_nodes, n = weibull3_model, np.array([0.0, 0.4, 1.1]), 5
        table = portfolio_examples._start_node_paths(rm, y_nodes, 0.8, n, 17,
                                                     "key")
        assert len(table) == 3 * 3 * n and table.horizon == 0.8
        for i, b, p in np.ndindex(3, 3, n):
            want = simulate_regime_direct(rm, RegimeState(i, y_nodes[b]), 0.8,
                                          stream(17, f"key/{i}/{b}", p))
            got = table[(i * 3 + b) * n + p]
            assert got == want  # events, origin and horizon
            assert got._times.tobytes() == want._times.tobytes()
            assert got._states.tobytes() == want._states.tobytes()

    @pytest.mark.parametrize("n_paths", [0, -1])
    @pytest.mark.parametrize("builder", ["rs-integral", "rs-literal",
                                         "ql-consistent", "ql-literal"])
    def test_fewer_than_one_path_is_refused(self, exp_two, rs_two, builder,
                                            n_paths):
        # at n_paths 0 these returned all-NaN functionals, and the literal
        # QL sweep raised FixedPointDiverged ("still moves by nan")
        kind, variant = builder.split("-")
        args = (exp_two, np.linspace(0.0, 1.0, 6), _Y1, n_paths, 3)
        with pytest.raises(ValueError, match=rf"n_paths must be >= 1, got "
                                             rf"{n_paths}"):
            if kind == "rs":
                rs_phi_functional(rs_two, *args, variant=variant)
            else:
                ql_phi_psi(_ql_jump_model(variant), *args)

    @pytest.mark.parametrize("y_nodes", [[-0.5, 0.0], []], ids=["negative",
                                                                "empty"])
    @pytest.mark.parametrize("kind", ["rs", "ql"])
    def test_negative_or_empty_age_grid_is_refused(self, exp_two, rs_two,
                                                   kind, y_nodes):
        args = (exp_two, np.linspace(0.0, 1.0, 6), np.array(y_nodes), 4, 3)
        with pytest.raises(ValueError, match="y grid needs at least one "
                                             "node, and ages >= 0"):
            if kind == "rs":
                rs_phi_functional(rs_two, *args)
            else:
                ql_phi_psi(_ql_jump_model("literal"), *args)

    # SHA-256 of the values and SEs (phi, psi, then their SEs for QL) at
    # 2,000 paths per start node, generated before the start nodes shared
    # one table; the sums over paths must keep their order to keep the bits
    PINS = {
        "ql-literal":
            "cfe7c3fb491e0908a64109d92f6ced1e1b13a5ed78c32ac4f3eb837f06987acb",
        "ql-consistent":
            "8e68d297839a592cfbda16b9019f390a3c36ea7a816aec3c2e72ebc161fd3ef6",
        "rs-integral":
            "c34c51320e403fa976166d28a34111e18be6d2585c68c6ea5bb81f7dd34491d9",
        "rs-literal":
            "e31bb34bcf64df2e874c013ab73ce2a05a0c6da1c64900c6495ae2608e30e7e4",
    }

    @pytest.mark.parametrize("builder", sorted(PINS))
    def test_2000_path_functionals_are_pinned(self, rs_two, builder):
        rm = _weibull_exp()
        grid = (np.linspace(0.0, 1.0, 11), np.array([0.0, 0.5, 1.0]), 2000)
        kind, variant = builder.split("-")
        if kind == "ql":
            phi, psi, _ = ql_phi_psi(_ql_jump_model(variant), rm, *grid, 11)
            got = _digest(phi.values, psi.values, phi.se, psi.se)
        else:
            f = rs_phi_functional(rs_two, rm, *grid, 13, variant=variant)
            got = _digest(f.values, f.se)
        assert got == self.PINS[builder]


def _bilinear_reference(f, t, i, y):
    """Clamped bilinear interpolation with np.clip and explicit broadcasts."""
    t, i, y = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                                  np.atleast_1d(np.asarray(i, dtype=int)),
                                  np.atleast_1d(np.asarray(y, dtype=float)))

    def weights(nodes, q):
        if len(nodes) == 1:
            return np.zeros(q.shape, dtype=int), np.zeros(q.shape)
        qc = np.clip(q, nodes[0], nodes[-1])
        k = np.clip(np.searchsorted(nodes, qc, side="right") - 1, 0,
                    len(nodes) - 2)
        return k, (qc - nodes[k]) / (nodes[k + 1] - nodes[k])

    it, wt = weights(f.t_nodes, t)
    iy, wy = weights(f.y_nodes, y)
    it2 = np.minimum(it + 1, len(f.t_nodes) - 1)
    iy2 = np.minimum(iy + 1, len(f.y_nodes) - 1)
    v = f.values
    return ((1 - wt) * (1 - wy) * v[it, i, iy] + wt * (1 - wy) * v[it2, i, iy]
            + (1 - wt) * wy * v[it, i, iy2] + wt * wy * v[it2, i, iy2])


def _ql_rule_reference(model, phi, psi, t, x, i, y):
    """slope * (x + psi / phi) with phi, psi from the reference
    interpolation and the slope from the per-point factors."""
    phi_ref = _bilinear_reference(phi, t, i, y)
    psi_ref = _bilinear_reference(psi, t, i, y)
    lam_t, lam = ql_lambda_factors(model, 0.0, np.broadcast_to(i, phi_ref.shape),
                                   0.0, phi_ref)
    return (lam_t / lam) * (x + psi_ref / phi_ref)


def _random_functionals(rng, n_t, n_y, M=2):
    t_nodes, y_nodes = np.linspace(0.0, 1.0, n_t), np.linspace(0.0, 1.5, n_y)
    shape = (n_t, M, n_y)
    return tuple(RegimeFunctional(t_nodes, y_nodes, v, np.zeros(shape), 0)
                 for v in (-rng.uniform(1.0, 3.0, shape),
                           rng.uniform(0.5, 2.5, shape)))


class TestRegimeFunctional:
    @pytest.mark.parametrize("n_y", [1, 4])
    def test_call_equals_reference_bit_for_bit(self, n_y):
        rng = np.random.default_rng(3)
        t_nodes = np.linspace(0.0, 1.0, 11)
        y_nodes = np.linspace(0.0, 1.5, n_y)
        values = rng.normal(size=(11, 2, n_y))
        values[0, 0, 0] = -0.0
        f = RegimeFunctional(t_nodes, y_nodes, values, np.zeros_like(values), 0)
        t = np.concatenate(([-0.0, 0.0, -0.5, 1.0, 1.7, 0.3],
                            rng.uniform(-0.2, 1.2, 40)))
        y = np.concatenate(([-0.0, 0.0, 0.75, -1.0, 2.0, 1.5],
                            rng.uniform(-0.2, 1.7, 40)))
        i = rng.integers(0, 2, t.size)
        i[:2] = 0
        queries = [(t, i, y), (0.3, i, y), (t, 1, 0.0), (-0.0, 0, -0.0)]
        for tq, iq, yq in queries:
            ref = _bilinear_reference(f, tq, iq, yq)
            got = f(tq, iq, yq)
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        for regime in (2, -1):
            with pytest.raises(IndexError, match="regime"):
                f(0.5, regime, 0.0)

    @pytest.mark.parametrize("n_t, n_y", [(11, 4), (1, 4), (11, 1), (1, 1)])
    def test_grid_query_keeps_its_shape_bit_for_bit(self, n_t, n_y):
        # an (n, K) query equals the flattened call, on one-node grids too
        rng = np.random.default_rng(5)
        values = rng.normal(size=(n_t, 2, n_y))
        f = RegimeFunctional(np.linspace(0.0, 1.0, n_t),
                             np.linspace(0.0, 1.5, n_y), values,
                             np.zeros_like(values), 0)
        t = rng.uniform(-0.2, 1.2, (7, 5))
        y = rng.uniform(-0.2, 1.7, (7, 5))
        i = rng.integers(0, 2, (7, 5))
        flat = f(t.ravel(), i.ravel(), y.ravel())
        for got in (f(t, i, y), f(t[:1], i, y), f(t, 1, y[:, :1])):
            assert got.shape == (7, 5)
        got = f(t, i, y)
        assert np.array_equal(got.ravel().view(np.int64), flat.view(np.int64))


class TestQlControl:
    @pytest.mark.parametrize("variant", ["consistent", "literal", "no-jumps"])
    @pytest.mark.parametrize("n_t, n_y", [(11, 4), (1, 4), (11, 1), (1, 1)])
    def test_rule_equals_reference_bit_for_bit(self, variant, n_t, n_y):
        # the policy's rule and a direct call with the (phi, psi) pair both
        # give slope * (x + psi / phi) of the reference interpolation
        model = (QuadraticLossModel(r=np.array([0.05, 0.03]),
                                    mbar=np.array([0.4, 0.3]),
                                    sigma=np.array([0.2, 0.25]), d=1.0,
                                    horizon=1.0)
                 if variant == "no-jumps" else _ql_jump_model(variant))
        rng = np.random.default_rng(13)
        phi, psi = _random_functionals(rng, n_t, n_y)
        # clamped t and y, the first and the last node, then random points
        t = np.concatenate(([-0.5, 0.0, 1.0, 1.7, 0.3, -0.0],
                            rng.uniform(-0.2, 1.2, 34)))
        y = np.concatenate(([-1.0, 0.0, 1.5, 2.0, 0.75, 1.5],
                            rng.uniform(-0.2, 1.7, 34)))
        i = rng.integers(0, 2, t.size)
        x = rng.normal(1.0, 0.5, t.size)
        queries = [(t, x, i, y),
                   (t.reshape(5, 8), x.reshape(5, 8), i.reshape(5, 8),
                    y.reshape(5, 8)),
                   (1.0, x, i, 1.5), (0.3, 0.9, 1, 0.2)]
        rule = ql_policy(model, (phi, psi)).rule
        for tq, xq, iq, yq in queries:
            ref = _ql_rule_reference(model, phi, psi, tq, xq, iq, yq)
            for got in (rule(tq, xq, iq, yq),
                        ql_optimal_control(model, tq, xq, iq, yq,
                                           (phi, psi))):
                assert got.shape == ref.shape
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_singular_denominator_raises_at_a_visited_regime_only(self):
        # |Lam| = sigma^2 = 1e-14 in regime 1 alone; phi and psi are given
        # directly, since their builders need every regime's slope
        model = QuadraticLossModel(r=np.array([0.05, 0.05]),
                                   mbar=np.array([0.4, 0.0]),
                                   sigma=np.array([0.2, 1e-7]), d=1.0,
                                   horizon=1.0)
        phi, psi = _random_functionals(np.random.default_rng(17), 11, 1)
        rule = ql_policy(model, (phi, psi)).rule
        t, x, y = np.linspace(0.0, 1.0, 6), np.full(6, 0.9), np.zeros(6)
        zeros = np.zeros(6, dtype=int)
        ref = _ql_rule_reference(model, phi, psi, t, x, zeros, y)
        assert np.array_equal(rule(t, x, zeros, y), ref)
        for call in (rule, lambda *a: ql_optimal_control(model, *a,
                                                         (phi, psi))):
            with pytest.raises(SingularDenominator):
                call(t, x, np.array([0, 0, 1, 0, 0, 0]), y)
        # stepped: the rule raises at the first column that visits regime 1
        rm = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         holding=(ExponentialHolding(2.0),
                                  ExponentialHolding(2.0)))
        paths = _paths(rm, 4, 1.0, 19)
        columns = []

        def counted(t, x, i, y):
            columns.append(i.copy())
            return rule(t, x, i, y)

        with pytest.raises(SingularDenominator):
            simulate_ensemble(ql_dynamics(model), ControlPolicy(rule=counted),
                              paths, x0=0.9, dt=0.1, seed=19)
        assert [bool(np.any(i == 1)) for i in columns] == (
            [False] * (len(columns) - 1) + [True])

    def test_policy_refuses_functionals_on_different_grids(
            self, ql_nojump_single, single_regime):
        phi, _ = ql_phi_psi_markov(ql_nojump_single, single_regime,
                                   np.linspace(0.0, 1.0, 101))
        _, psi = ql_phi_psi_markov(ql_nojump_single, single_regime,
                                   np.linspace(0.0, 1.0, 51))
        with pytest.raises(ValueError, match="grid"):
            ql_policy(ql_nojump_single, (phi, psi))
        with pytest.raises(ValueError, match="grid"):
            ql_optimal_control(ql_nojump_single, 0.0, 0.9, 0, 0.0, (phi, psi))

    def test_vertex_gives_zero(self, ql_nojump_single, single_regime):
        phi, psi = ql_phi_psi_markov(ql_nojump_single, single_regime,
                                     np.linspace(0.0, 1.0, 101))
        z, zi = np.array([0.0]), np.array([0])
        x_star = -psi(z, zi, z)[0] / phi(z, zi, z)[0]
        u = ql_optimal_control(ql_nojump_single, 0.0, x_star, 0, 0.0,
                               (phi, psi))
        assert u[0] == pytest.approx(0.0, abs=1e-12)

    def test_reference_point(self, ql_nojump_single, single_regime):
        phi, psi = ql_phi_psi_markov(ql_nojump_single, single_regime,
                                     np.linspace(0.0, 1.0, 101))
        u = ql_optimal_control(ql_nojump_single, 0.0, 0.9, 0, 0.0, (phi, psi))
        # psi/phi = -e^{-0.05}; u = -(0.4/0.2)(0.9 - 0.951229) = 0.102459
        assert u[0] == pytest.approx(0.102459, abs=5e-6)

    def test_zero_target_pure_variance_kill(self, single_regime):
        model = QuadraticLossModel(r=np.array([0.05]), mbar=np.array([0.4]),
                                   sigma=np.array([0.2]), d=0.0, horizon=1.0)
        phi, psi = ql_phi_psi_markov(model, single_regime,
                                     np.linspace(0.0, 1.0, 101))
        u = ql_optimal_control(model, 0.0, 0.9, 0, 0.0, (phi, psi))
        assert u[0] == pytest.approx(-2.0 * 0.9, rel=1e-9)

    def test_wealth_positivity_constraint(self):
        marks = MarkMeasure(rate=1.0, atoms=np.array([-1.5]),
                            weights=np.array([1.0]))
        with pytest.raises(ValueError):
            QuadraticLossModel(r=np.array([0.05]), mbar=np.array([0.4]),
                               sigma=np.array([0.2]), d=1.0, horizon=1.0,
                               marks=marks, jump_coeff=lambda i, g: g)


class TestQlAdjoint:
    def test_refuses_functionals_on_different_grids(
            self, ql_nojump_single, single_regime):
        phi, _ = ql_phi_psi_markov(ql_nojump_single, single_regime,
                                   np.linspace(0.0, 1.0, 101))
        _, psi = ql_phi_psi_markov(ql_nojump_single, single_regime,
                                   np.linspace(0.0, 1.0, 51))
        fns = (phi, phi)
        ens = simulate_ensemble(ql_dynamics(ql_nojump_single),
                                ql_policy(ql_nojump_single, fns),
                                _paths(single_regime, 3, 1.0, 1), x0=0.9,
                                dt=0.1, seed=1)
        ql_adjoint(ql_nojump_single, ens, fns, single_regime)
        with pytest.raises(ValueError, match="grid"):
            ql_adjoint(ql_nojump_single, ens, (phi, psi), single_regime)

    def _setup(self, variant, dt, n_paths, seed):
        model = _ql_jump_model(variant)
        rm = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         holding=(ExponentialHolding(1.0),
                                  ExponentialHolding(1.5)))
        if variant == "literal":
            # phi enters the literal rule's denominator, so only the
            # Monte Carlo fixed point applies
            phi, psi, _ = ql_phi_psi(model, rm, np.linspace(0.0, 1.0, 101),
                                     np.array([0.0]), n_paths=2000, seed=7)
        else:
            phi, psi = ql_phi_psi_markov(model, rm,
                                         np.linspace(0.0, 1.0, 2001))
        dyn, pol = ql_dynamics(model), ql_policy(model, (phi, psi))
        ens = simulate_ensemble(dyn, pol, _paths(rm, n_paths, 1.0, seed),
                                x0=0.9, dt=dt, seed=seed)
        return model, rm, (phi, psi), dyn, ens

    def test_terminal_condition_exact(self):
        model, rm, fns, dyn, ens = self._setup("consistent", 0.01, 100, 23)
        adj = ql_adjoint(model, ens, fns, rm)
        assert np.allclose(adj.p[:, -1], -2.0 * ens.x[:, -1] + 2.0,
                           atol=1e-10)

    def test_zero_control_kills_q_and_eta(self, ql_nojump_single,
                                          single_regime):
        phi, psi = ql_phi_psi_markov(ql_nojump_single, single_regime,
                                     np.linspace(0.0, 1.0, 101))
        dyn = ql_dynamics(ql_nojump_single)
        # start exactly at the vertex: the rule keeps u == 0 only initially,
        # so check the q = u*phi*sigma identity pointwise instead
        pol = ql_policy(ql_nojump_single, (phi, psi))
        ens = simulate_ensemble(dyn, pol, _paths(single_regime, 20, 1.0, 29),
                                x0=0.9, dt=0.01, seed=29)
        adj = ql_adjoint(ql_nojump_single, ens, (phi, psi), single_regime)
        phiv = phi(ens.t.ravel(), ens.theta.ravel(),
                   ens.y.ravel()).reshape(ens.t.shape)
        assert np.allclose(adj.q, ens.u * phiv * 0.2, atol=1e-12)

    def test_first_order_condition_consistent_variant(self):
        model, rm, fns, dyn, ens = self._setup("consistent", 0.01, 100, 31)
        adj = ql_adjoint(model, ens, fns, rm)
        assert ql_u_coefficient(model, ens, adj) < 1e-12

    def test_literal_variant_fails_first_order_condition(self):
        # the literal factor pair does not satisfy the variational
        # optimality condition when jumps are present — documented behavior
        model, rm, fns, dyn, ens = self._setup("literal", 0.01, 100, 37)
        adj = ql_adjoint(model, ens, fns, rm)
        assert ql_u_coefficient(model, ens, adj) > 1e-4

    def test_residual_halves_with_dt(self):
        totals = []
        for dt in (8e-3, 4e-3):
            model, rm, fns, dyn, ens = self._setup("consistent", dt, 400, 41)
            adj = ql_adjoint(model, ens, fns, rm)
            stats = adjoint_residual(ens, adj, dyn, ql_objective(model))
            totals.append(stats.mean_path_total)
            assert stats.terminal_mismatch < 1e-12
        assert 0.35 < totals[1] / totals[0] < 0.65


_T3 = np.linspace(0.0, 1.0, 3)
_Y1 = np.array([0.0])


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind, build", [
    ("rs", lambda m, rm: rs_phi_functional(m, rm, _T3, _Y1, 4, 0)),
    ("rs", lambda m, rm: rs_phi_markov(m, rm, _T3)),
    ("ql", lambda m, rm: ql_phi_psi(m, rm, _T3, _Y1, 4, 0)),
    ("ql", lambda m, rm: ql_phi_psi_markov(m, rm, _T3)),
], ids=["rs_phi_functional", "rs_phi_markov", "ql_phi_psi",
        "ql_phi_psi_markov"])
def test_regime_count_mismatch_is_refused(exp_two, kind, build, n):
    r, sigma = np.full(n, 0.05), np.full(n, 0.2)
    model = (RiskSensitiveModel(r=r, mu=r + 0.08, sigma=sigma, gamma=0.5,
                                horizon=1.0) if kind == "rs" else
             QuadraticLossModel(r=r, mbar=np.full(n, 0.4), sigma=sigma, d=1.0,
                                horizon=1.0))
    with pytest.raises(ValueError, match=f"model regime count {n} != regime "
                                         "model state count 2"):
        build(model, exp_two)


_GRID_BUILDERS = {
    "rs_phi_functional": ("rs", lambda m, rm, t, y: rs_phi_functional(
        m, rm, t, y, 4, 0)),
    "rs_phi_markov": ("rs", lambda m, rm, t, y: rs_phi_markov(
        m, rm, t, "literal", y)),
    "ql_phi_psi": ("ql", lambda m, rm, t, y: ql_phi_psi(m, rm, t, y, 4, 0)),
    "ql_phi_psi-literal-jumps": ("ql-jumps", lambda m, rm, t, y: ql_phi_psi(
        m, rm, t, y, 4, 0)),
    "ql_phi_psi_markov": ("ql", lambda m, rm, t, y: ql_phi_psi_markov(
        m, rm, t, y)),
}
_BAD_GRIDS = {
    "past-horizon": (np.linspace(0.0, 2.0, 5), _Y1,
                     "t grid must end at the horizon"),
    "repeated-t": (np.array([0.0, 0.5, 0.5, 1.0]), _Y1,
                   "t nodes must be strictly"),
    "degenerate-y": (_T3, np.zeros(3), "y nodes must be strictly"),
    # step powers and the trapezoid sweep of phi's own rate need one step;
    # Monte Carlo over per-regime rates takes any increasing grid
    "non-uniform-t": (np.array([0.0, 0.3, 1.0]), _Y1,
                      "t grid must be uniform"),
}


@pytest.mark.parametrize("builder, grid", [
    pytest.param(b, g, id=f"{b}-{g}") for b in _GRID_BUILDERS
    for g in _BAD_GRIDS
    if g != "non-uniform-t" or b.endswith(("_markov", "-jumps"))])
def test_bad_grid_is_refused(exp_two, rs_two, builder, grid):
    # unchecked, a t node past the horizon gives a negative E[exp int a]
    # and an age grid [0, 0, 0] a NaN policy
    kind, build = _GRID_BUILDERS[builder]
    t_nodes, y_nodes, message = _BAD_GRIDS[grid]
    if kind == "ql-jumps":
        model = _ql_jump_model("literal")
    else:
        model = rs_two if kind == "rs" else QuadraticLossModel(
            r=np.array([0.05, 0.03]), mbar=np.array([0.4, 0.3]),
            sigma=np.array([0.2, 0.25]), d=1.0, horizon=1.0)
    with pytest.raises(ValueError, match=message):
        build(model, exp_two, t_nodes, y_nodes)


class TestStepPowers:
    """The Markov builders read powers of one step exponential."""

    @staticmethod
    def _per_node(rm, c, variant, t_nodes):
        # scipy's expm at every node tau = T - t: the values the step
        # powers must reproduce
        Q = intensity_matrix(rm, 0.0)
        if variant == "literal":
            gen, read = Q + np.diag(c), np.ones(3)
        else:
            gen = np.zeros((4, 4))
            gen[:3, :3], gen[:3, 3] = Q, c
            read = np.eye(4)[3]
        return np.array([(expm(gen * (1.0 - t)) @ read)[:3] for t in t_nodes])

    @pytest.mark.parametrize("variant", ["literal", "integral"])
    def test_rs_matches_per_node_expm(self, variant):
        rm, rs, _ = _three_state()
        t_nodes = np.linspace(0.25, 1.0, 301)
        fn = rs_phi_markov(rs, rm, t_nodes, variant=variant)
        want = self._per_node(rm, rs_source_rate(rs), variant, t_nodes)
        np.testing.assert_allclose(fn.values[..., 0], want, rtol=1e-12)

    def test_ql_matches_per_node_expm(self):
        rm, _, ql = _three_state()
        t_nodes = np.linspace(0.25, 1.0, 301)
        phi, psi = ql_phi_psi_markov(ql, rm, t_nodes)
        for fn, scale, c in ((phi, -2.0, 2.0 * ql.r - ql.mbar ** 2),
                             (psi, 2.0 * ql.d, ql.r - ql.mbar ** 2)):
            want = scale * self._per_node(rm, c, "literal", t_nodes)
            np.testing.assert_allclose(fn.values[..., 0], want, rtol=1e-12)

    def test_terminal_node_is_scale_times_read_exactly(self):
        # E^0 is the identity by construction, not a computed exponential
        rm, rs, ql = _three_state()
        t_nodes = np.linspace(0.0, 1.0, 401)
        phi, psi = ql_phi_psi_markov(ql, rm, t_nodes)
        assert np.all(phi.values[-1] == -2.0)
        assert np.all(psi.values[-1] == 2.0 * ql.d)
        for variant, read in (("literal", 1.0), ("integral", 0.0)):
            fn = rs_phi_markov(rs, rm, t_nodes, variant=variant)
            assert np.all(fn.values[-1] == read)

    def test_one_node_grid(self):
        # every builder refuses a t grid of one node by name (the Markov
        # builders returned the terminal column, the Monte Carlo ones raised
        # the sampler's "horizon must be positive")
        rm, rs, ql = _three_state()
        T, y = np.array([1.0]), np.array([0.0, 0.5])
        calls = (lambda: ql_phi_psi_markov(ql, rm, T, y),
                 lambda: rs_phi_markov(rs, rm, T, variant="literal"),
                 lambda: ql_phi_psi(ql, rm, T, y, 8, 1),
                 lambda: rs_phi_functional(rs, rm, T, y, 8, 1))
        for call in calls:
            with pytest.raises(ValueError, match=r"t grid needs at least two "
                                                 r"nodes, got 1"):
                call()

    def test_one_expm_call_of_r_slices_per_builder(self, monkeypatch):
        rm, rs, ql = _three_state()
        shapes = []

        def counted(a):
            shapes.append(a.shape)
            return expm(a)

        monkeypatch.setattr(portfolio_examples, "expm", counted)
        t_nodes = np.linspace(0.0, 1.0, 2001)
        rs_phi_markov(rs, rm, t_nodes, variant="literal")
        rs_phi_markov(rs, rm, t_nodes, variant="integral")
        ql_phi_psi_markov(ql, rm, t_nodes)
        # R step generators per builder, not R * n_t
        assert shapes == [(1, 3, 3), (1, 4, 4), (2, 3, 3)]
