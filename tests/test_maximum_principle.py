"""Hamiltonian, adjoint residuals, joint generator, and HJB checks."""
import numpy as np
import pytest

from smjd.jump_diffusion import (ControlledDynamics, ControlPolicy, MarkMeasure,
                                 ObjectiveSpec, simulate_ensemble)
from smjd.maximum_principle import (AdjointPath, AdjointState,
                                    ValueFunctionStub, adjoint_from_value,
                                    adjoint_residual, dynkin_check,
                                    generator_G, grad_x_hamiltonian,
                                    hamiltonian, hjb_residual,
                                    hjb_terminal_mismatch,
                                    integrability_report)
from smjd.rng import stream
from smjd.semi_markov import (ExponentialHolding, RegimeModel, RegimeState,
                              sample_regime_paths, simulate_regime_direct)


def _paths(model, n, horizon, seed):
    return [simulate_regime_direct(model, RegimeState(0, 0.0), horizon,
                                   stream(seed, "regime", k))
            for k in range(n)]


def _const_dyn(b=0.0, s=0.0):
    return ControlledDynamics(drift=lambda t, x, u, i: np.full_like(x, b),
                              vol=lambda t, x, u, i: np.full_like(x, s))


# ---------------------------------------------------------------------------
# hamiltonian
# ---------------------------------------------------------------------------

class TestHamiltonian:
    def test_zero_adjoint_returns_running_cost(self):
        obj = ObjectiveSpec(running=lambda t, x, u, i, y: t + x + u,
                            terminal=None)
        adj = AdjointState(p=0.0, q=0.0)
        val = hamiltonian(0.3, 1.2, 0.5, 0, 0.0, adj, _const_dyn(1.0, 2.0),
                          obj)
        assert val == pytest.approx(2.0)

    def test_drift_and_vol_pairing(self):
        adj = AdjointState(p=2.0, q=1.0)
        val = hamiltonian(0.0, 0.0, 0.0, 0, 0.0, adj, _const_dyn(0.1, 0.3))
        assert val == pytest.approx(0.5)

    def test_linear_growth_form_at_zero_control(self):
        # dX = (rX + u*mbar*sigma)dt + u*sigma dW with u=0: H = r x p
        r = 0.05
        dyn = ControlledDynamics(
            drift=lambda t, x, u, i: r * x + u * 0.4 * 0.2,
            vol=lambda t, x, u, i: u * 0.2)
        adj = AdjointState(p=2.0, q=0.0)
        val = hamiltonian(0.0, 1.0, 0.0, 0, 0.0, adj, dyn)
        assert val == pytest.approx(0.1)

    def test_jump_pairing_with_eta(self):
        mm = MarkMeasure(rate=2.0, atoms=np.array([0.1]),
                         weights=np.array([1.0]))
        dyn = ControlledDynamics(drift=lambda t, x, u, i: np.zeros_like(x),
                                 vol=lambda t, x, u, i: np.zeros_like(x),
                                 jump=lambda t, x, u, i, gam: gam,
                                 marks=mm)
        adj = AdjointState(p=3.0, q=0.0, eta=lambda gam: 5.0 * gam)
        # -rate*mean_g*p + rate*int g*eta dpi = -2*0.1*3 + 2*0.1*0.5
        val = hamiltonian(0.0, 0.0, 0.0, 0, 0.0, adj, dyn)
        assert val == pytest.approx(-0.6 + 0.1)

    def test_array_points_match_scalar_calls(self):
        mm = MarkMeasure(rate=2.0, atoms=np.array([-0.05, 0.08]),
                         weights=np.array([0.4, 0.6]))
        dyn = ControlledDynamics(drift=lambda t, x, u, i: 0.05 * x + 0.1 * u,
                                 vol=lambda t, x, u, i: 0.2 * u + 0.1 * i,
                                 jump=lambda t, x, u, i, gam: x * gam + u * gam,
                                 marks=mm)
        obj = ObjectiveSpec(running=lambda t, x, u, i, y: -(u ** 2) + t * y,
                            terminal=None)
        adj = AdjointState(p=1.3, q=-0.4, eta=lambda gam: 5.0 * gam)
        pts = (np.array([0.0, 0.2, 0.7]), np.array([0.9, 1.1, 1.4]),
               np.array([0.3, -0.5, 1.0]), np.array([0, 1, 0]),
               np.array([0.0, 0.4, 1.2]))
        vals = hamiltonian(*pts, adj, dyn, obj)
        assert vals.shape == (3,)
        for k in range(3):
            point = [float(a[k]) for a in pts[:3]] + [int(pts[3][k]),
                                                      float(pts[4][k])]
            assert vals[k] == pytest.approx(
                hamiltonian(*point, adj, dyn, obj), rel=1e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# grad_x_hamiltonian
# ---------------------------------------------------------------------------

class TestGradX:
    def test_x_free_coefficients_give_zero(self):
        adj = AdjointState(p=2.0, q=1.5)
        g = grad_x_hamiltonian(0.0, 1.0, 0.0, 0, 0.0, adj,
                               _const_dyn(0.3, 0.2))
        assert g == pytest.approx(0.0, abs=1e-9)

    def test_linear_drift_gradient(self):
        dyn = ControlledDynamics(drift=lambda t, x, u, i: 0.07 * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        adj = AdjointState(p=3.0, q=0.0)
        g = grad_x_hamiltonian(0.0, 2.0, 0.0, 0, 0.0, adj, dyn)
        assert g == pytest.approx(0.21, rel=1e-7)

    @pytest.mark.parametrize("x, jumps", [
        pytest.param(x, jumps, id=f"{x}-jumps" if jumps else str(x))
        for jumps in (False, True) for x in (-1.3, 0.2, 2.7)])
    def test_fd_matches_analytic_on_smooth_model(self, x, jumps):
        # H = x^2 + 1.3 sin x - 0.4 (cos x + 2) + 2 sum_k w_k g_k (5 gamma_k
        # - 1.3) with g = (x + u) gamma, so H_x = 2x + 1.3 cos x + 0.4 sin x
        # + 2 sum_k w_k gamma_k (5 gamma_k - 1.3)
        jump_kw, eta = {}, None
        want = 2.0 * x + 1.3 * np.cos(x) + 0.4 * np.sin(x)
        if jumps:
            atoms, weights = np.array([-0.05, 0.08]), np.array([0.4, 0.6])
            jump_kw = dict(
                jump=lambda t, x_, u, i, gam: x_ * gam + u * gam,
                marks=MarkMeasure(rate=2.0, atoms=atoms, weights=weights))
            eta = lambda gam: 5.0 * gam
            want += 2.0 * np.sum(weights * atoms * (5.0 * atoms - 1.3))
        dyn = ControlledDynamics(
            drift=lambda t, x_, u, i: np.sin(x_),
            vol=lambda t, x_, u, i: np.cos(x_) + 2.0, **jump_kw)
        obj = ObjectiveSpec(running=lambda t, x_, u, i, y: x_ ** 2,
                            terminal=None)
        adj = AdjointState(p=1.3, q=-0.4, eta=eta)
        gf = grad_x_hamiltonian(0.1, x, 0.3, 0, 0.0, adj, dyn, obj)
        assert gf == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_step_is_relative_to_each_x(self):
        # the bits of the central difference with step 1e-5 * (1 + |x|),
        # taken per point of an array
        dyn = ControlledDynamics(drift=lambda t, x, u, i: np.sin(x) * x,
                                 vol=lambda t, x, u, i: np.exp(0.3 * x))
        obj = ObjectiveSpec(running=lambda t, x, u, i, y: x ** 3 - u * x,
                            terminal=None)
        adj = AdjointState(p=0.7, q=-1.1)
        x = np.array([-40.0, -1.5, 0.0, 0.3, 12.0])
        args = (0.2, 0.4, 0, 0.0, adj, dyn, obj)
        h = 1e-5 * (1.0 + np.abs(x))
        want = (hamiltonian(0.2, x + h, *args[1:])
                - hamiltonian(0.2, x - h, *args[1:])) / (2 * h)
        got = grad_x_hamiltonian(0.2, x, *args[1:])
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# adjoint_residual
# ---------------------------------------------------------------------------

class TestAdjointResidual:
    def _exponential_decay_case(self, single_regime, dt, n_paths=200):
        """Deterministic growth dX = rX dt, terminal gradient x^{gamma-1};
        the adjoint solves dp = -r p dt backward from p(T)."""
        r, gamma = 0.05, 0.5
        dyn = ControlledDynamics(drift=lambda t, x, u, i: r * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        obj = ObjectiveSpec(
            running=None,
            terminal=lambda x, i, y: x ** gamma / gamma,
            terminal_dx=lambda x, i, y: x ** (gamma - 1.0))
        policy = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        ens = simulate_ensemble(dyn, policy, _paths(single_regime, n_paths,
                                                    1.0, 13),
                                x0=1.0, dt=dt, seed=13)
        pT = ens.x[:, -1:] ** (gamma - 1.0)
        p = pT * np.exp(r * (1.0 - ens.t))
        adj = AdjointPath(p=p, q=np.zeros_like(p),
                          grad_H=r * p[:, :-1])
        return adjoint_residual(ens, adj, dyn, obj)

    def test_residual_halves_with_dt(self, single_regime):
        s1 = self._exponential_decay_case(single_regime, 4e-3)
        s2 = self._exponential_decay_case(single_regime, 2e-3)
        assert 0.35 < s2.mean_path_total / s1.mean_path_total < 0.65

    def test_terminal_mismatch_zero_by_construction(self, single_regime):
        s = self._exponential_decay_case(single_regime, 4e-3)
        assert s.terminal_mismatch == pytest.approx(0.0, abs=1e-14)

    def test_missing_gradient_is_refused_by_name(self, single_regime):
        dyn = ControlledDynamics(drift=lambda t, x, u, i: 0.05 * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        policy = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        ens = simulate_ensemble(dyn, policy, _paths(single_regime, 3, 1.0, 2),
                                x0=1.0, dt=0.1, seed=2)
        p = np.ones_like(ens.x)
        with pytest.raises(ValueError, match="grad_H"):
            adjoint_residual(ens, AdjointPath(p=p, q=np.zeros_like(p)), dyn)


# ---------------------------------------------------------------------------
# integrability_report
# ---------------------------------------------------------------------------

class TestIntegrability:
    def test_identical_controls_make_difference_moments_vanish(self,
                                                               single_regime):
        dyn = ControlledDynamics(drift=lambda t, x, u, i: 0.1 * x,
                                 vol=lambda t, x, u, i: 0.2 * x)
        policy = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        ens = simulate_ensemble(dyn, policy, _paths(single_regime, 50, 1.0, 7),
                                x0=1.0, dt=0.01, seed=7)
        p = np.ones_like(ens.x)
        adj = AdjointPath(p=p, q=np.zeros_like(p),
                          grad_H=np.zeros_like(p[:, :-1]))
        rep = integrability_report(ens, ens, adj, dyn)
        assert len(rep.estimates) == 4
        assert all(np.isfinite(rep.estimates))
        # the three X-difference moments are exactly zero under shared noise
        assert rep.estimates[1] == pytest.approx(0.0, abs=1e-14)
        assert rep.estimates[2] == pytest.approx(0.0, abs=1e-14)
        assert rep.estimates[3] == pytest.approx(0.0, abs=1e-14)
        assert rep.diverging == []


# ---------------------------------------------------------------------------
# generator_G and dynkin_check
# ---------------------------------------------------------------------------

class TestGeneratorG:
    def test_constant_value_annihilated(self, exp2_model):
        V = ValueFunctionStub(v=lambda t, x, i, y: np.full_like(
            np.asarray(x, dtype=float), 3.0))
        val = generator_G(V, 0.2, 1.0, 0, 0.1, 0.0, _const_dyn(), exp2_model)
        assert val == pytest.approx(0.0, abs=1e-7)

    def test_linear_value_sees_drift(self, exp2_model):
        V = ValueFunctionStub(v=lambda t, x, i, y: np.asarray(x, dtype=float))
        val = generator_G(V, 0.0, 1.0, 0, 0.0, 0.0, _const_dyn(b=0.7),
                          exp2_model)
        assert val == pytest.approx(0.7, rel=1e-6)

    def test_quadratic_value_sees_diffusion(self, exp2_model):
        V = ValueFunctionStub(v=lambda t, x, i, y: np.asarray(x,
                                                              dtype=float) ** 2)
        val = generator_G(V, 0.0, 1.0, 0, 0.0, 0.0, _const_dyn(s=0.3),
                          exp2_model)
        assert val == pytest.approx(0.09, rel=1e-5)

    def test_grid_call_equals_column_calls_bit_for_bit(self, exp2_model):
        # a two-regime model with asset jumps: the (n, K) call keeps its
        # shape and every column equals the column-by-column call
        marks = MarkMeasure(rate=1.5, atoms=np.array([-0.1, 0.2]),
                            weights=np.array([0.3, 0.7]))
        dyn = ControlledDynamics(
            drift=lambda t, x, u, i: (0.1 + 0.2 * i) * x + u,
            vol=lambda t, x, u, i: 0.3 * x + 0.1 * u * (1 + i),
            jump=lambda t, x, u, i, g: (1.0 + i) * g * x, marks=marks)
        V = ValueFunctionStub(v=lambda t, x, i, y: (np.sin(x) * (1 + i)
                                                    + np.exp(-t) * y ** 2))
        rng = np.random.default_rng(2)
        t, x, u, y = (rng.uniform(0.0, 1.0, (6, 4)) for _ in range(4))
        i = rng.integers(0, 2, (6, 4))
        grid = generator_G(V, t, x, i, y, u, dyn, exp2_model)
        assert grid.shape == (6, 4)
        cols = np.stack([generator_G(V, t[:, k], x[:, k], i[:, k], y[:, k],
                                     u[:, k], dyn, exp2_model)
                         for k in range(4)], axis=1)
        assert np.array_equal(grid.view(np.int64), cols.view(np.int64))

    @pytest.mark.parametrize("marks, nodes", [
        (MarkMeasure(rate=1.5, atoms=np.array([-0.1, 0.2]),
                     weights=np.array([0.3, 0.7])),
         ([-0.1, 0.2], [0.3, 0.7])),
        (MarkMeasure(rate=1.5, density=lambda g: np.full_like(g, 5.0),
                     support=(0.0, 0.2)),
         (0.1 * np.polynomial.legendre.leggauss(64)[0] + 0.1,
          0.5 * np.polynomial.legendre.leggauss(64)[1]))],
        ids=["atoms", "density"])
    def test_jump_term_by_hand(self, exp2_model, marks, nodes):
        # jump-only dynamics and a V of x alone: G V is the jump term
        # lam sum_k w_k (V(x + g_k) - V(x)); the regime-switch term is 0
        jump = lambda t, x, u, i, g: (1.0 + i) * g * x + 0.05 * u
        dyn = ControlledDynamics(drift=lambda t, x, u, i: np.zeros_like(x),
                                 vol=lambda t, x, u, i: np.zeros_like(x),
                                 jump=jump, marks=marks)
        zero = lambda t, x, i, y: np.zeros_like(np.asarray(x, dtype=float))
        V = ValueFunctionStub(v=lambda t, x, i, y: np.sin(x) + x ** 2,
                              dt=zero, dxx=zero, dx=zero, dy=zero)
        rng = np.random.default_rng(4)
        t, x, u, y = (rng.uniform(0.0, 1.0, (5, 3)) for _ in range(4))
        i = rng.integers(0, 2, (5, 3))
        got = generator_G(V, t, x, i, y, u, dyn, exp2_model)
        want = 1.5 * sum(w * (V.v(t, x + jump(t, x, u, i, gam), i, y)
                              - V.v(t, x, i, y)) for gam, w in zip(*nodes))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_dynkin_gap_for_martingale(self, single_regime):
        dyn = ControlledDynamics(drift=lambda t, x, u, i: 0.3 * x,
                                 vol=lambda t, x, u, i: 0.2 * x)
        policy = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        V = ValueFunctionStub(v=lambda t, x, i, y: np.asarray(x, dtype=float),
                              dt=lambda t, x, i, y: np.zeros_like(
                                  np.asarray(x, dtype=float)),
                              dx=lambda t, x, i, y: np.ones_like(
                                  np.asarray(x, dtype=float)),
                              dxx=lambda t, x, i, y: np.zeros_like(
                                  np.asarray(x, dtype=float)))
        lhs, rhs, gap, se = dynkin_check(V, dyn, policy, single_regime,
                                         x0=1.0, i0=0, y0=0.0, horizon=1.0,
                                         n_paths=2000, dt=5e-3, seed=3)
        assert gap < 3 * se + 5e-3


# ---------------------------------------------------------------------------
# HJB residual
# ---------------------------------------------------------------------------

def _transport_value(r, d, horizon):
    """V(t,x) = -(x e^{r(T-t)} - d)^2 with analytic derivatives."""
    def grow(t):
        return np.exp(r * (horizon - np.asarray(t, dtype=float)))

    return ValueFunctionStub(
        v=lambda t, x, i, y: -(x * grow(t) - d) ** 2,
        dt=lambda t, x, i, y: 2.0 * (x * grow(t) - d) * x * r * grow(t),
        dx=lambda t, x, i, y: -2.0 * (x * grow(t) - d) * grow(t),
        dxx=lambda t, x, i, y: -2.0 * grow(t) ** 2 * np.ones_like(
            np.asarray(x, dtype=float)),
        dy=lambda t, x, i, y: np.zeros_like(np.asarray(x, dtype=float)))


class TestHjb:
    r, d, horizon = 0.05, 1.0, 1.0

    def _dyn(self):
        return ControlledDynamics(drift=lambda t, x, u, i: self.r * x,
                                  vol=lambda t, x, u, i: np.zeros_like(x))

    def test_exact_value_function_residual(self, single_regime):
        V = _transport_value(self.r, self.d, self.horizon)
        obj = ObjectiveSpec(running=None,
                            terminal=lambda x, i, y: -(x - self.d) ** 2)
        # one call on the (t, x) grid, points broadcast as in generator_G
        res = hjb_residual(V, obj, self._dyn(), single_regime,
                           np.array([[0.0], [0.5], [0.9]]),
                           np.array([0.5, 1.0, 1.5]), 0, 0.0, 0.0)
        assert res.shape == (3, 3)
        assert np.all(np.abs(res) < 1e-8)

    def test_terminal_identity(self, single_regime):
        V = _transport_value(self.r, self.d, self.horizon)
        obj = ObjectiveSpec(running=None,
                            terminal=lambda x, i, y: -(x - self.d) ** 2)
        for x in (0.5, 1.2):
            assert hjb_terminal_mismatch(V, obj, self.horizon, x, 0,
                                         0.0) == pytest.approx(0.0, abs=1e-14)

    def test_target_shift_is_invisible_to_the_pde(self, single_regime):
        # every smooth function of x*e^{r(T-t)} solves the transport
        # equation, so shifting the target d does NOT perturb the residual;
        # it does perturb the terminal condition.
        V_bad = _transport_value(self.r, self.d + 0.1, self.horizon)
        obj = ObjectiveSpec(running=None,
                            terminal=lambda x, i, y: -(x - self.d) ** 2)
        res = hjb_residual(V_bad, obj, self._dyn(), single_regime, 0.3, 0.8,
                           0, 0.0, 0.0)
        assert abs(res) < 1e-12
        assert hjb_terminal_mismatch(V_bad, obj, self.horizon, 0.8, 0,
                                     0.0) > 1e-3

    def test_rate_shift_is_detected(self, single_regime):
        V_bad = _transport_value(self.r + 0.1, self.d, self.horizon)
        obj = ObjectiveSpec(running=None,
                            terminal=lambda x, i, y: -(x - self.d) ** 2)
        res = hjb_residual(V_bad, obj, self._dyn(), single_regime, 0.3, 0.8,
                           0, 0.0, 0.0)
        assert abs(res) > 1e-3

    def test_running_cost_enters_at_the_given_control(self, single_regime):
        # V = 0 leaves f1 = -(u - 1)^2 at the given u, not its supremum 0:
        # a float at one point, an array on an array of controls
        V = ValueFunctionStub(v=lambda t, x, i, y: np.zeros_like(x))
        obj = ObjectiveSpec(running=lambda t, x, u, i, y: -(u - 1.0) ** 2,
                            terminal=None)
        args = (V, obj, _const_dyn(), single_regime, 0.2, 0.5, 0, 0.0)
        res = hjb_residual(*args, 2.5)
        assert type(res) is float and res == -2.25
        u = np.array([-1.0, 1.0, 2.5])
        assert np.array_equal(hjb_residual(*args, u), -(u - 1.0) ** 2)


# ---------------------------------------------------------------------------
# adjoint_from_value
# ---------------------------------------------------------------------------

class TestAdjointFromValue:
    def test_x_free_value_gives_zero_adjoint(self, single_regime):
        dyn = _const_dyn(b=0.1, s=0.2)
        policy = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        ens = simulate_ensemble(dyn, policy, _paths(single_regime, 5, 1.0, 1),
                                x0=1.0, dt=0.05, seed=1)
        V = ValueFunctionStub(
            v=lambda t, x, i, y: np.asarray(t, dtype=float) ** 2
            + np.zeros_like(np.asarray(x, dtype=float)),
            dx=lambda t, x, i, y: np.zeros_like(np.asarray(x, dtype=float)),
            dxx=lambda t, x, i, y: np.zeros_like(np.asarray(x, dtype=float)))
        adj = adjoint_from_value(V, ens, dyn, single_regime)
        assert np.allclose(adj.p, 0.0, atol=1e-10)
        assert np.allclose(adj.q, 0.0, atol=1e-10)

    def test_one_state_model_has_no_regime_jump_terms(self, single_regime):
        # no switch can happen: the regime-jump slot and both of its
        # compensators are zero on every (path, left node)
        dyn = _const_dyn(b=0.1, s=0.2)
        policy = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        ens = simulate_ensemble(dyn, policy, _paths(single_regime, 3, 1.0, 2),
                                x0=1.0, dt=0.05, seed=2)
        V = ValueFunctionStub(v=lambda t, x, i, y: -(x - 1.2) ** 2 * (1 + t))
        adj = adjoint_from_value(V, ens, dyn, single_regime)
        n, K = ens.t.shape
        assert not np.allclose(adj.p, 0.0)
        for a in (adj.etatilde_jump, adj.etatilde_comp,
                  adj.etatilde_sq_comp):
            assert a.shape == (n, K - 1)
            assert not a.any()

    def test_deterministic_quadratic_consistency(self, single_regime):
        # value-induced adjoint satisfies the backward equation at O(dt)
        r, d, horizon = 0.05, 1.0, 1.0
        dyn = ControlledDynamics(drift=lambda t, x, u, i: r * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        obj = ObjectiveSpec(running=None,
                            terminal=lambda x, i, y: -(x - d) ** 2,
                            terminal_dx=lambda x, i, y: -2.0 * (x - d))
        policy = ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(x))
        V = _transport_value(r, d, horizon)
        totals = []
        for dt in (8e-3, 4e-3):
            ens = simulate_ensemble(dyn, policy,
                                    _paths(single_regime, 100, horizon, 5),
                                    x0=0.9, dt=dt, seed=5)
            adj = adjoint_from_value(V, ens, dyn, single_regime,
                                     objective=obj)
            stats = adjoint_residual(ens, adj, dyn, obj)
            totals.append(stats.mean_path_total)
            assert stats.terminal_mismatch < 1e-10
        assert 0.35 < totals[1] / totals[0] < 0.65

    @staticmethod
    def _wealth_jump_setup(jump=lambda t, x, u, i, gam: x * gam):
        """Wealth-proportional jumps g = x * gamma on two atoms, 2 regimes,
        50 paths: (V, ens, dyn, model)."""
        r, rate = 0.05, 2.0
        atoms, weights = np.array([-0.05, 0.08]), np.array([0.4, 0.6])
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(ExponentialHolding(1.0),
                                     ExponentialHolding(1.5)))
        paths = sample_regime_paths(model, RegimeState(0, 0.0), 1.0, 50, 3)
        dyn = ControlledDynamics(
            drift=lambda t, x, u, i: r * x,
            vol=lambda t, x, u, i: 0.2 * x, jump=jump,
            marks=MarkMeasure(rate=rate, atoms=atoms, weights=weights))
        grow = lambda t: np.exp(r * (1.0 - t))
        V = ValueFunctionStub(
            v=lambda t, x, i, y: -(x * grow(t) - 1.0) ** 2 * (1 + 0.1 * i))
        policy = ControlPolicy(rule=lambda t, x, i, y: np.full_like(x, 0.3))
        ens = simulate_ensemble(dyn, policy, paths, x0=0.9, dt=0.05, seed=3)
        return V, ens, dyn, model

    def test_asset_jump_slot_freezes_eta_at_left_nodes(self):
        # g = x * gamma: eta depends on x, so the gradient must hold eta at
        # its left-node value
        V, ens, dyn, model = self._wealth_jump_setup()
        rate, (atoms, weights) = dyn.marks.rate, dyn.marks.nodes()
        adj = adjoint_from_value(V, ens, dyn, model)

        tl, xl, ul, thl, yl = (a[:, :-1] for a in (ens.t, ens.x, ens.u,
                                                   ens.theta, ens.y))
        vx = lambda xv: V.v_x(tl, xv, thl, yl)
        eta = lambda gam: vx(xl + xl * gam) - vx(xl)
        frozen = grad_x_hamiltonian(
            tl, xl, ul, thl, yl,
            AdjointState(adj.p[:, :-1], adj.q[:, :-1], eta), dyn)
        np.testing.assert_allclose(adj.grad_H, frozen, rtol=1e-12, atol=1e-14)
        # one node by a pointwise call
        k = 3
        pt = (tl[0, k], xl[0, k], ul[0, k], thl[0, k], yl[0, k])
        eta_pt = lambda gam: float(vx(xl + xl * gam)[0, k] - vx(xl)[0, k])
        g_pt = grad_x_hamiltonian(
            *pt, AdjointState(adj.p[0, k], adj.q[0, k], eta_pt), dyn)
        assert adj.grad_H[0, k] == pytest.approx(g_pt, rel=1e-9)
        comp = rate * sum(w * eta(gam) for gam, w in zip(atoms, weights))
        np.testing.assert_allclose(adj.eta_comp, comp, rtol=1e-12,
                                   atol=1e-14)

    def test_realized_jump_slot_is_the_v_x_change_at_each_applied_jump(self):
        # step k ends in a jump at node k + 1: V_x(x- + g) - V_x(x-) from
        # the left node's (t, x, u, theta, y) and the jump's mark; 0 elsewhere
        V, ens, dyn, model = self._wealth_jump_setup()
        adj = adjoint_from_value(V, ens, dyn, model)
        want = np.zeros_like(adj.eta_jump)
        hits = np.argwhere(ens.jump_mask)
        assert len(hits) > 10 and (hits[:, 1] > 0).all()
        for r, c in hits:
            t, x, u, th, y = (a[r, c - 1] for a in (ens.t, ens.x, ens.u,
                                                    ens.theta, ens.y))
            g = dyn.jump(t, x, u, th, ens.jump_marks[r, c])
            want[r, c - 1] = V.v_x(t, x + g, th, y) - V.v_x(t, x, th, y)
        assert want.astype(bool).sum() == len(hits)
        assert not adj.eta_jump[want == 0.0].any()
        np.testing.assert_allclose(adj.eta_jump, want, rtol=1e-12, atol=0.0)

    def test_eta_is_computed_once_per_mark_node(self):
        # the compensator and both shifted Hamiltonians of the fd gradient
        # share one eta per atom: 2 grid-wide jump calls for eta, plus the
        # jump term of each shifted Hamiltonian (2 x 2)
        shapes = []

        def jump(t, x, u, i, gam):
            shapes.append(np.shape(x))
            return x * gam

        V, ens, dyn, model = self._wealth_jump_setup(jump)
        adj = adjoint_from_value(V, ens, dyn, model)
        grid = (ens.n_paths, ens.t.shape[1] - 1)
        assert shapes.count(grid) == 6
        # the values are those of an eta recomputed at every request
        tl, xl, ul, thl, yl = (a[:, :-1] for a in (ens.t, ens.x, ens.u,
                                                   ens.theta, ens.y))
        vx_here = adj.p[:, :-1]

        def eta(gam):
            g = dyn.jump(tl, xl, ul, thl, np.full_like(tl, gam))
            return V.v_x(tl, xl + g, thl, yl) - vx_here

        fresh = grad_x_hamiltonian(
            tl, xl, ul, thl, yl,
            AdjointState(adj.p[:, :-1], adj.q[:, :-1], eta), dyn)
        assert np.array_equal(adj.grad_H, fresh)
        comp, sq = np.zeros(grid), np.zeros(grid)
        for gam, w in zip(*dyn.marks.nodes()):
            comp += w * eta(gam)
            sq += w * eta(gam) ** 2
        assert np.array_equal(adj.eta_comp, dyn.marks.rate * comp)
        assert np.array_equal(adj.eta_sq_comp, dyn.marks.rate * sq)
