"""Controlled paths: Euler stepping, event-grid exactness, objectives."""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from smjd.errors import NonFinitePath
from smjd.jump_diffusion import (ControlledDynamics, ControlPolicy, MarkMeasure,
                                 ObjectiveSpec, build_plan,
                                 coefficient_regularity_probe,
                                 estimate_objective, objective_paths,
                                 simulate_controlled_path, simulate_ensemble)
from smjd.rng import stream
from smjd.semi_markov import (ExponentialHolding, RegimeModel, RegimeState,
                              simulate_regime_direct)


def _zero_policy():
    return ControlPolicy(rule=lambda t, x, i, y: np.zeros_like(
        np.asarray(x, dtype=float)))


def _paths(model, n, horizon, seed, i0=0, y0=0.0):
    return [simulate_regime_direct(model, RegimeState(i0, y0), horizon,
                                   stream(seed, "regime", k))
            for k in range(n)]


@pytest.fixture
def frozen_dyn():
    return ControlledDynamics(dim=1,
                              drift=lambda t, x, u, i: np.zeros_like(x),
                              vol=lambda t, x, u, i: np.zeros_like(x))


# ---------------------------------------------------------------------------
# MarkMeasure
# ---------------------------------------------------------------------------

class TestMarkMeasure:
    def test_discrete_moments_are_exact_sums(self):
        mm = MarkMeasure(rate=2.0, atoms=np.array([-0.05, 0.08]),
                         weights=np.array([0.4, 0.6]))
        assert mm.integrate(lambda g: g) == pytest.approx(0.028, rel=1e-14)
        assert mm.integrate(lambda g: g ** 2) == pytest.approx(
            0.4 * 0.0025 + 0.6 * 0.0064, rel=1e-14)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MarkMeasure(rate=1.0, atoms=np.array([0.1, 0.2]),
                        weights=np.array([0.5, 0.6]))

    def test_continuous_density_quadrature(self):
        # uniform density on [0, 0.2]: first moment 0.1, second 0.2^2/3
        mm = MarkMeasure(rate=1.0, density=lambda g: np.full_like(g, 5.0),
                         support=(0.0, 0.2))
        assert mm.integrate(lambda g: g) == pytest.approx(0.1, rel=1e-10)
        assert mm.integrate(lambda g: g ** 2) == pytest.approx(
            0.2 ** 2 / 3.0, rel=1e-10)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

class TestSimulatePath:
    def test_frozen_dynamics_constant_path(self, frozen_dyn, exp2_model):
        regime = _paths(exp2_model, 1, 1.0, 0)[0]
        path = simulate_controlled_path(frozen_dyn, _zero_policy(), regime,
                                        x0=3.5, dt=0.01, rng=stream(0, "p"))
        assert np.allclose(path.x, 3.5)

    def test_deterministic_exponential_growth(self, single_regime):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: 0.05 * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        regime = _paths(single_regime, 1, 1.0, 0)[0]
        path = simulate_controlled_path(dyn, _zero_policy(), regime, x0=1.0,
                                        dt=1e-3, rng=stream(0, "p"))
        assert abs(path.x[-1] - np.exp(0.05)) < 2e-4

    def test_compound_poisson_mean(self, single_regime):
        mm = MarkMeasure(rate=2.0, atoms=np.array([0.1]),
                         weights=np.array([1.0]))
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: np.zeros_like(x),
                                 vol=lambda t, x, u, i: np.zeros_like(x),
                                 jump=lambda t, x, u, i, gam: gam,
                                 marks=mm)
        ens = simulate_ensemble(dyn, _zero_policy(),
                                _paths(single_regime, 20000, 1.0, 21),
                                x0=0.0, dt=0.01, seed=21)
        xT = ens.x[:, -1]
        se = xT.std(ddof=1) / np.sqrt(len(xT))
        assert abs(xT.mean() - 0.2) < 3 * se

    def test_uncompensated_jump_drift_identity(self, single_regime):
        # for state-free jump sizes: E X(T) = x0 + E int (b + rate*mean g) dt
        mm = MarkMeasure(rate=2.0, atoms=np.array([-0.05, 0.08]),
                         weights=np.array([0.4, 0.6]))
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: np.full_like(x, 0.1),
                                 vol=lambda t, x, u, i: np.full_like(x, 0.3),
                                 jump=lambda t, x, u, i, gam: gam,
                                 marks=mm)
        ens = simulate_ensemble(dyn, _zero_policy(),
                                _paths(single_regime, 20000, 1.0, 23),
                                x0=1.0, dt=0.01, seed=23)
        xT = ens.x[:, -1]
        se = xT.std(ddof=1) / np.sqrt(len(xT))
        expected = 1.0 + (0.1 + 2.0 * mm.integrate(lambda g: g)) * 1.0
        assert abs(xT.mean() - expected) < 3 * se

    def test_regime_event_times_on_grid_exactly(self, exp2_model):
        regime = _paths(exp2_model, 1, 1.0, 31)[0]
        assert len(regime.events) > 0
        path = simulate_controlled_path(
            ControlledDynamics(dim=1,
                               drift=lambda t, x, u, i: np.zeros_like(x),
                               vol=lambda t, x, u, i: np.zeros_like(x)),
            _zero_policy(), regime, x0=0.0, dt=0.01, rng=stream(31, "p"))
        for t_ev, _ in regime.events:
            assert np.any(path.t == t_ev)  # bit-exact membership

    def test_path_equals_ensemble_row_bit_for_bit(self, exp2_model):
        # the per-path simulator steps one path with the ensemble's code, so
        # with the ensemble's stream for path p it reproduces row p exactly
        mm = MarkMeasure(rate=3.0, atoms=np.array([-0.1, 0.05, 0.2]),
                         weights=np.array([0.3, 0.4, 0.3]))
        dyn = ControlledDynamics(
            dim=1,
            drift=lambda t, x, u, i: 0.05 * x + 0.1 * u * (i + 1),
            vol=lambda t, x, u, i: (0.2 + 0.1 * i) * np.sqrt(1.0 + x ** 2),
            jump=lambda t, x, u, i, gam: (x + u) * gam, marks=mm)
        policy = ControlPolicy(rule=lambda t, x, i, y: 0.5 - 0.3 * x + 0.1 * y)
        regimes = _paths(exp2_model, 200, 1.0, 5)
        ens = simulate_ensemble(dyn, policy, regimes, x0=1.0, dt=0.01, seed=5)
        for p, rp in enumerate(regimes):
            path = simulate_controlled_path(dyn, policy, rp, 1.0, 0.01,
                                            rng=stream(5, "paths", p))
            K = len(path.t)
            for name in ("t", "x", "u", "theta", "y"):
                assert np.array_equal(getattr(path, name),
                                      getattr(ens, name)[p, :K]), (p, name)
            assert np.all(ens.t[p, K:] == 1.0)
            cols = np.nonzero(ens.jump_mask[p])[0]
            assert path.jumps == [(k, ens.jump_marks[p, k]) for k in cols]
        assert ens.jump_mask.sum() > 0

    def test_jump_uses_pre_jump_state(self, single_regime):
        # policy u = x and jump increment u: with b = vol = 0 the state
        # exactly doubles at every jump iff u is evaluated at the left limit
        mm = MarkMeasure(rate=3.0, atoms=np.array([1.0]),
                         weights=np.array([1.0]))
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: np.zeros_like(x),
                                 vol=lambda t, x, u, i: np.zeros_like(x),
                                 jump=lambda t, x, u, i, gam: u * gam,
                                 marks=mm)
        policy = ControlPolicy(rule=lambda t, x, i, y: np.asarray(x,
                                                                  dtype=float))
        ens = simulate_ensemble(dyn, policy, _paths(single_regime, 50, 1.0, 41),
                                x0=1.0, dt=0.05, seed=41)
        n_jumps = ens.jump_mask.sum(axis=1)
        assert np.allclose(ens.x[:, -1], 2.0 ** n_jumps)

    def test_strong_error_scaling_drift_dominated(self, single_regime):
        # scalar linear SDE vs the exact lognormal solution built from the
        # same Brownian increments; in the drift-dominated regime the mean
        # absolute endpoint error halves with the step size
        r, sig = 0.5, 0.02
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: r * x,
                                 vol=lambda t, x, u, i: sig * x)
        errs = []
        for dt in (4e-3, 2e-3):
            ens = simulate_ensemble(dyn, _zero_policy(),
                                    _paths(single_regime, 1000, 1.0, 43),
                                    x0=1.0, dt=dt, seed=43)
            wT = ens.dW.sum(axis=1)
            exact = np.exp((r - sig ** 2 / 2.0) + sig * wT)
            errs.append(np.mean(np.abs(ens.x[:, -1] - exact)))
        assert 0.4 < errs[1] / errs[0] < 0.6

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_path_raises(self, single_regime):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: x ** 3,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        with pytest.raises(NonFinitePath):
            simulate_ensemble(dyn, _zero_policy(),
                              _paths(single_regime, 2, 1.0, 47),
                              x0=50.0, dt=0.1, seed=47)


# ---------------------------------------------------------------------------
# noise plan
# ---------------------------------------------------------------------------

def _jump_dyn(marks=None):
    marks = marks or MarkMeasure(rate=3.0, atoms=np.array([-0.1, 0.05, 0.2]),
                                 weights=np.array([0.3, 0.4, 0.3]))
    return ControlledDynamics(
        dim=1,
        drift=lambda t, x, u, i: 0.05 * x + 0.1 * u * (i + 1),
        vol=lambda t, x, u, i: (0.2 + 0.1 * i) * np.sqrt(1.0 + x ** 2),
        jump=lambda t, x, u, i, gam: (x + u) * gam, marks=marks)


class TestNoisePlan:
    FIELDS = ("t", "x", "u", "theta", "y", "dW", "jump_mask", "jump_marks")

    def test_policies_on_one_plan_equal_plain_ensembles(self, exp2_model):
        dyn = _jump_dyn()
        regimes = _paths(exp2_model, 60, 1.0, 13)
        plan = build_plan(dyn, regimes, 0.02, 13)
        policies = [ControlPolicy(rule=lambda t, x, i, y: 0.5 - 0.3 * x
                                  + 0.1 * y),
                    ControlPolicy(rule=lambda t, x, i, y: 0.2 * x * (i + 1))]
        for policy in policies:
            planned = simulate_ensemble(dyn, policy, regimes, 1.0, 0.02, 13,
                                        plan=plan)
            plain = simulate_ensemble(dyn, policy, regimes, 1.0, 0.02, 13)
            for name in self.FIELDS:
                assert np.array_equal(getattr(planned, name),
                                      getattr(plain, name)), name
            assert planned.t is plan.t and planned.dW is plan.dW
        assert plan.jump_mask.sum() > 0
        assert len(np.unique(plan.theta)) == 2

    @pytest.mark.parametrize("field", ["regime_paths", "dt", "seed",
                                       "stream_tag", "dim", "marks"])
    def test_mismatched_plan_raises(self, exp2_model, field):
        dyn = _jump_dyn()
        regimes = _paths(exp2_model, 5, 1.0, 17)
        args = {"regime_paths": regimes, "dt": 0.05, "seed": 17,
                "stream_tag": "paths"}
        plan = build_plan(dyn, **args)
        if field == "regime_paths":
            args[field] = _paths(exp2_model, 5, 1.0, 17)  # equal, not same
        elif field == "dim":
            dyn = replace(dyn, dim=2)
        elif field == "marks":
            dyn = _jump_dyn(MarkMeasure(rate=3.0, atoms=np.array([0.1]),
                                        weights=np.array([1.0])))
        else:
            args[field] = {"dt": 0.1, "seed": 18, "stream_tag": "other"}[field]
        with pytest.raises(ValueError, match=field):
            simulate_ensemble(dyn, _zero_policy(), x0=1.0, plan=plan, **args)

    def test_plan_arrays_are_read_only(self, exp2_model):
        plan = build_plan(_jump_dyn(), _paths(exp2_model, 3, 1.0, 19), 0.1,
                          19)
        for name in ("t", "dW", "jump_mask", "jump_marks", "theta", "y"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(plan, name)[0, 0] = 1


class TestRuleContract:
    """The stepping kernel calls ``policy.rule`` once per grid column with
    the plan's (n,) columns and stores what it returns as float controls."""

    RULES = {
        "python-scalar": lambda t, x, i, y: 0.25,
        "zero-d-array": lambda t, x, i, y: np.array(0.25),
        "int-array": lambda t, x, i, y: (x > 1.0).astype(int) + i,
        "float-array": lambda t, x, i, y: 0.5 - 0.3 * x + 0.1 * y,
        "state-itself": lambda t, x, i, y: x,
    }
    # SHA-256 of ens.x and ens.u, generated before the kernel stopped
    # copying controls that already are float (n,) arrays
    DIGESTS = {
        "python-scalar":
            "3dfe3adfd982e50d04db43ef5265f440ae1f0b8c12e8694be5758457532c4143",
        "zero-d-array":
            "3dfe3adfd982e50d04db43ef5265f440ae1f0b8c12e8694be5758457532c4143",
        "int-array":
            "84dcfd25251427d3617252f7a30a9ab43c3d138161a42b49ee3bc73337c46395",
        "float-array":
            "d8761c83236ce7191cd4c6127e2514ff6ca11d55a4b370bc410e263655c6fb34",
        "state-itself":
            "97b2c91a52f3151e61664a0811e79c9ee88eda06002a9ea0bb7deae10fb948a5",
    }

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_one_call_per_column_with_float_controls(self, exp2_model, name):
        dyn = _jump_dyn()
        regimes = _paths(exp2_model, 7, 1.0, 23)
        plan = build_plan(dyn, regimes, 0.05, 23)
        n, K = plan.t.shape
        calls = []

        def rule(t, x, i, y):
            calls.append((t.copy(), x.shape, i.copy(), y.copy()))
            return self.RULES[name](t, x, i, y)

        ens = simulate_ensemble(dyn, ControlPolicy(rule=rule), regimes, 1.0,
                                0.05, 23, plan=plan)
        assert len(calls) == K
        for k, (t, x_shape, i, y) in enumerate(calls):
            assert x_shape == (n,)
            assert np.array_equal(t, plan.t[:, k])
            assert np.array_equal(i, plan.theta[:, k])
            assert np.array_equal(y, plan.y[:, k])
        assert ens.u.dtype == np.float64 and ens.u.shape == (n, K)
        if name == "state-itself":
            assert np.array_equal(ens.u, ens.x)
        digest = hashlib.sha256(ens.x.tobytes() + ens.u.tobytes()).hexdigest()
        assert digest == self.DIGESTS[name]


# ---------------------------------------------------------------------------
# objective estimation
# ---------------------------------------------------------------------------

class TestObjective:
    def test_constant_running_cost_exact(self, single_regime, frozen_dyn):
        obj = ObjectiveSpec(running=lambda t, x, u, i, y: np.ones_like(x),
                            terminal=None)
        est, se = estimate_objective(frozen_dyn, _zero_policy(), obj,
                                     single_regime, x0=0.0, i0=0, y0=0.0,
                                     horizon=1.0, n_paths=50, dt=0.02, seed=3)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_terminal_loss(self, single_regime):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: 0.05 * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        obj = ObjectiveSpec(running=None,
                            terminal=lambda x, i, y: -(x - 1.0) ** 2)
        est, _ = estimate_objective(dyn, _zero_policy(), obj, single_regime,
                                    x0=1.0, i0=0, y0=0.0, horizon=1.0,
                                    n_paths=10, dt=1e-3, seed=5)
        assert est == pytest.approx(-(np.exp(0.05) - 1.0) ** 2, abs=2e-5)

    def test_martingale_terminal_mean(self, single_regime):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: np.zeros_like(x),
                                 vol=lambda t, x, u, i: 0.2 * x)
        obj = ObjectiveSpec(running=None, terminal=lambda x, i, y: x)
        est, se = estimate_objective(dyn, _zero_policy(), obj, single_regime,
                                     x0=1.0, i0=0, y0=0.0, horizon=1.0,
                                     n_paths=20000, dt=0.01, seed=7)
        assert abs(est - 1.0) < 3 * se

    def test_objective_paths_shape(self, single_regime, frozen_dyn):
        obj = ObjectiveSpec(running=lambda t, x, u, i, y: x,
                            terminal=lambda x, i, y: 2.0 * x)
        ens = simulate_ensemble(frozen_dyn, _zero_policy(),
                                _paths(single_regime, 7, 1.0, 9), x0=1.0,
                                dt=0.1, seed=9)
        j = objective_paths(ens, obj)
        assert j.shape == (7,)
        assert np.allclose(j, 1.0 + 2.0)  # int_0^1 1 dt + 2*1


# ---------------------------------------------------------------------------
# regularity probe
# ---------------------------------------------------------------------------

class TestRegularityProbe:
    def test_zero_dynamics_zero_constants(self, frozen_dyn):
        rep = coefficient_regularity_probe(frozen_dyn, (-5.0, 5.0), 200,
                                           stream(0, "probe"))
        assert rep.c1_hat == pytest.approx(0.0, abs=1e-14)
        assert rep.c2_hat == pytest.approx(0.0, abs=1e-14)
        assert not rep.growth_flag

    def test_linear_drift_lipschitz_constant(self):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: 2.0 * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        rep = coefficient_regularity_probe(dyn, (-5.0, 5.0), 3000,
                                           stream(1, "probe"))
        assert rep.c2_hat == pytest.approx(4.0, rel=0.05)
        assert not rep.growth_flag

    def test_quadratic_drift_flags_growth(self):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: x ** 2,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        rep = coefficient_regularity_probe(dyn, (-10.0, 10.0), 3000,
                                           stream(2, "probe"))
        assert rep.growth_flag


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_ensemble_bitwise_reproducible(self, exp2_model):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: 0.1 * x,
                                 vol=lambda t, x, u, i: 0.2 * x)
        a = simulate_ensemble(dyn, _zero_policy(),
                              _paths(exp2_model, 20, 1.0, 77), x0=1.0,
                              dt=0.01, seed=77)
        b = simulate_ensemble(dyn, _zero_policy(),
                              _paths(exp2_model, 20, 1.0, 77), x0=1.0,
                              dt=0.01, seed=77)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.dW, b.dW)
        assert np.array_equal(a.jump_marks, b.jump_marks)
