"""Controlled paths: Euler stepping, event-grid exactness, objectives."""
import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from smjd.errors import NonFinitePath
from smjd.jump_diffusion import (ControlledDynamics, ControlPolicy, Ensemble,
                                 MarkMeasure, NoisePlan, ObjectiveSpec,
                                 _draw_plan, build_plan,
                                 coefficient_regularity_probe, objective_paths,
                                 running_cost_paths, simulate_ensemble,
                                 step_plan)
from smjd.rng import stream
from smjd.semi_markov import (ExponentialHolding, RegimeModel, RegimePath,
                              RegimeState, _cdf_table, sample_regime_paths,
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

    def test_atoms_without_weights_are_refused(self):
        # np.asarray(None, dtype=float) is nan, which every weight check
        # passed; integrate then returned nan
        with pytest.raises(ValueError, match="weights"):
            MarkMeasure(rate=1.0, atoms=np.array([0.1, 0.2]))

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.25, 0.25]])
    def test_weights_of_another_length_are_refused(self, weights):
        # broadcast weights made integrate disagree with sample, which
        # draws from the first len(weights) atoms only
        with pytest.raises(ValueError, match="weights"):
            MarkMeasure(rate=1.0, atoms=np.array([0.1, 0.2]),
                        weights=np.array(weights))

    def test_continuous_density_quadrature(self):
        # uniform density on [0, 0.2]: first moment 0.1, second 0.2^2/3
        mm = MarkMeasure(rate=1.0, density=lambda g: np.full_like(g, 5.0),
                         support=(0.0, 0.2))
        assert mm.integrate(lambda g: g) == pytest.approx(0.1, rel=1e-10)
        assert mm.integrate(lambda g: g ** 2) == pytest.approx(
            0.2 ** 2 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("mm", [
        MarkMeasure(rate=1.0, atoms=np.array([-0.1, 0.05, 0.2]),
                    weights=np.array([0.3, 0.4, 0.3])),
        MarkMeasure(rate=1.0, density=lambda g: np.full_like(g, 5.0),
                    support=(0.0, 0.2))], ids=["atoms", "density"])
    def test_array_integral_equals_scalar_integrals_bit_for_bit(self, mm):
        x = np.linspace(-1.0, 2.0, 7)
        f = lambda g: np.stack((np.sin(x + g), x * g ** 2, np.exp(g) - x))
        got = mm.integrate(f)
        assert got.shape == (3, 7)
        want = np.array([[mm.integrate(lambda g: f(g)[r, c])
                          for c in range(7)] for r in range(3)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert type(mm.integrate(lambda g: g)) is float

    def test_discrete_draws_equal_choice_on_every_call(self):
        atoms, weights = np.array([-0.1, 0.05, 0.2]), np.array([0.3, 0.4, 0.3])
        mm = MarkMeasure(rate=1.0, atoms=atoms, weights=weights)
        for k in range(4):
            u = stream(3, "marks", k).random(11)
            inline = atoms[_cdf_table(weights).searchsorted(u, side="right")]
            drawn = mm.sample(stream(3, "marks", k), 11)
            assert drawn.tobytes() == inline.tobytes()
            assert np.array_equal(drawn, stream(3, "marks", k).choice(
                atoms, size=11, p=weights))

    def test_density_is_tabulated_once(self):
        calls = []

        def density(g):  # triangular on [0, 0.2]
            calls.append(np.shape(g))
            return 50.0 * g

        mm = MarkMeasure(rate=1.0, density=density, support=(0.0, 0.2))
        calls.clear()
        draws = [mm.sample(stream(5, "marks", k), 9) for k in range(6)]
        assert len(calls) <= 1
        grid = np.linspace(0.0, 0.2, 4097)
        pdf = 50.0 * grid
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1])
                                               * np.diff(grid))))
        cdf /= cdf[-1]
        for k, drawn in enumerate(draws):
            inline = np.interp(stream(5, "marks", k).random(9), cdf, grid)
            assert drawn.tobytes() == inline.tobytes()


    def test_quadrature_nodes_are_built_once(self):
        calls = []

        def density(g):  # triangular on [0, 0.2]
            calls.append(np.shape(g))
            return 50.0 * g

        mm = MarkMeasure(rate=1.0, density=density, support=(0.0, 0.2))
        values = [mm.integrate(lambda g: g ** k) for k in (1, 2, 1, 3)]
        assert calls == [(64,)]  # the construction's check of the mass
        assert mm.nodes()[0] is mm.nodes()[0]
        # the same nodes, weights and sums as building them on every call
        x, w = np.polynomial.legendre.leggauss(64)
        g = 0.1 * x + 0.1
        wk = 0.1 * w * (50.0 * g)
        assert mm.nodes()[0].tobytes() == g.tobytes()
        assert mm.nodes()[1].tobytes() == wk.tobytes()
        for k, got in zip((1, 2, 1, 3), values):
            want = 0.0
            for gk, wj in zip(g, wk):
                want = want + wj * np.asarray(gk ** k, dtype=float)
            assert got == float(want)

# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

class TestSimulatePath:
    def test_frozen_dynamics_constant_path(self, frozen_dyn, exp2_model):
        plan = build_plan(frozen_dyn, _paths(exp2_model, 1, 1.0, 0), 0.01, 0,
                          "p")
        ens = step_plan(frozen_dyn, _zero_policy(), plan, x0=3.5)
        assert np.allclose(ens.x, 3.5)

    def test_deterministic_exponential_growth(self, single_regime):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: 0.05 * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        plan = build_plan(dyn, _paths(single_regime, 1, 1.0, 0), 1e-3, 0, "p")
        ens = step_plan(dyn, _zero_policy(), plan, x0=1.0)
        assert abs(ens.x[0, -1] - np.exp(0.05)) < 2e-4

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
        regimes = _paths(exp2_model, 1, 1.0, 31)
        assert len(regimes[0].events) > 0
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: np.zeros_like(x),
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        ens = step_plan(dyn, _zero_policy(),
                        build_plan(dyn, regimes, 0.01, 31, "p"), x0=0.0)
        for t_ev, _ in regimes[0].events:
            assert np.any(ens.t[0] == t_ev)  # bit-exact membership

    def test_path_equals_ensemble_row_bit_for_bit(self, exp2_model):
        # row p draws from stream (seed, tag, p) alone: a one-path plan drawn
        # from that stream and stepped reproduces row p exactly
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
            path = step_plan(dyn, policy, _draw_plan(
                dyn, [rp], 0.01, [stream(5, "paths", p)]), 1.0)
            K = path.t.shape[1]
            for name in ("t", "x", "u", "theta", "y", "jump_mask",
                         "jump_marks"):
                assert np.array_equal(getattr(path, name)[0],
                                      getattr(ens, name)[p, :K]), (p, name)
            assert np.all(ens.t[p, K:] == 1.0)
            assert not ens.jump_mask[p, K:].any()
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
            planned = step_plan(dyn, policy, plan, 1.0)
            plain = simulate_ensemble(dyn, policy, regimes, 1.0, 0.02, 13)
            for name in self.FIELDS:
                assert np.array_equal(getattr(planned, name),
                                      getattr(plain, name)), name
            for f in fields(NoisePlan):
                assert getattr(planned, f.name) is getattr(plan, f.name), f.name
        assert plan.jump_mask.sum() > 0
        assert len(np.unique(plan.theta)) == 2

    def test_ensemble_is_its_plan_plus_x_and_u(self):
        plan_fields = [f.name for f in fields(NoisePlan)]
        assert [f.name for f in fields(Ensemble)] == plan_fields + ["x", "u"]

    @pytest.mark.parametrize("field", ["dim", "marks"])
    def test_mismatched_plan_raises(self, exp2_model, field):
        dyn = _jump_dyn()
        plan = build_plan(dyn, _paths(exp2_model, 5, 1.0, 17), 0.05, 17)
        if field == "dim":
            dyn = replace(dyn, dim=2)
        else:
            dyn = _jump_dyn(MarkMeasure(rate=3.0, atoms=np.array([0.1]),
                                        weights=np.array([1.0])))
        with pytest.raises(ValueError,
                           match=f"plan was built for another {field}: "):
            step_plan(dyn, _zero_policy(), plan, 1.0)

    @pytest.mark.parametrize("dt", [2.0, 3.0])
    def test_dt_without_a_step_is_refused(self, single_regime, exp2_model,
                                          frozen_dyn, dt):
        # horizon 1: a dt of 2 or more rounds to no step on [0, 1]
        for dyn, model in ((frozen_dyn, single_regime),
                           (_jump_dyn(), exp2_model)):
            with pytest.raises(ValueError, match=f"dt {dt} gives no step"):
                build_plan(dyn, _paths(model, 3, 1.0, 5), dt, 5)
        with pytest.raises(ValueError, match=f"dt {dt} gives no step"):
            build_plan(frozen_dyn, _paths(single_regime, 1, 1.0, 5), dt, 5)
        # just under twice the horizon: one step
        plan = build_plan(frozen_dyn, _paths(single_regime, 3, 1.0, 5), 1.9, 5)
        assert np.array_equal(plan.t, np.tile([0.0, 1.0], (3, 1)))

    def test_mixed_horizons_and_no_paths_are_refused(self, exp2_model):
        # rows were laid out to the first path's horizon, and an event past
        # it failed on an unrelated reshape; no path failed on an index
        dyn = _jump_dyn()
        a = RegimePath([(0.5, 1), (1.5, 0)], RegimeState(0, 0.0), 2.0)
        b = RegimePath([(0.3, 1)], RegimeState(0, 0.0), 1.0)
        late = RegimePath([(2.5, 1)], RegimeState(0, 0.0), 3.0)
        for paths, horizons in (([a, b], "2.0 and 1.0"),
                                ([a, late], "2.0 and 3.0")):
            with pytest.raises(ValueError, match=f"horizons, {horizons}"):
                build_plan(dyn, paths, 0.25, 0)
        for paths in ([], sample_regime_paths(exp2_model, RegimeState(0, 0.0),
                                              1.0, 0, 0)):
            with pytest.raises(ValueError, match="at least one regime path"):
                build_plan(dyn, paths, 0.25, 0)

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

        ens = step_plan(dyn, ControlPolicy(rule=rule), plan, 1.0)
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
# plan layout
# ---------------------------------------------------------------------------

class _StubRng:
    """Generator stand-in for the draw protocol: preset jump times (in the
    order ``uniform`` hands them out), spread mark uniforms, and normals
    numbered from ``first`` whether drawn by size or into ``out``."""

    def __init__(self, jump_times, first):
        self.jump_times, self.next = np.asarray(jump_times, float), first

    def poisson(self, lam):
        return self.jump_times.size

    def uniform(self, low, high, size):
        return self.jump_times.copy()

    def random(self, size):
        return np.linspace(0.05, 0.95, size)

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = self.next + 0.25 * np.arange(out.size).reshape(out.shape)
        self.next += out.size
        return out


def _per_path_plan(dyn, regime_paths, dt, rngs):
    """The per-path layout: each path's grid is np.unique of the base grid,
    its regime events and its jumps; theta and y come from state_at."""
    horizon = regime_paths[0].horizon
    base = np.linspace(0.0, horizon, int(round(horizon / dt)) + 1)
    rows = []
    for rp, rng in zip(regime_paths, rngs):
        jt = np.sort(rng.uniform(0.0, horizon,
                                 size=rng.poisson(dyn.marks.rate * horizon)))
        jm = dyn.marks.sample(rng, jt.size)
        events = np.array([s for s, _ in rp.events], dtype=float)
        grid = np.unique(np.concatenate((base, events, jt)))
        tail = (dyn.dim,) if dyn.dim > 1 else ()
        rows.append((grid, rng.standard_normal((grid.size - 1,) + tail),
                     jt, jm, rp))
    n, K = len(rows), max(row[0].size for row in rows)
    t, dW = np.full((n, K), horizon), np.zeros((n, K - 1) + tail)
    mask, marks = np.zeros((n, K), dtype=bool), np.zeros((n, K))
    theta, y = np.empty((n, K), dtype=int), np.empty((n, K))
    for p, (grid, Z, jt, jm, rp) in enumerate(rows):
        t[p, :grid.size] = grid
        steps = np.sqrt(np.diff(grid))
        dW[p, :grid.size - 1] = Z * (steps if dyn.dim == 1 else steps[:, None])
        mask[p, np.searchsorted(grid, jt)] = True
        marks[p, np.searchsorted(grid, jt)] = jm
        theta[p], y[p] = rp.state_at(t[p], side="right")
    return t, dW, mask, marks, theta, y


class TestPlanLayout:
    """The ensemble-wide layout against the per-path one, on hand-made
    regime paths and jump times that hit its edge cases."""

    BASE = np.linspace(0.0, 1.0, 21)   # dt = 0.05 on [0, 1]
    CASES = [
        # an event on a base node, a jump at an event time, a jump at 0.0
        # and two equal jump times
        ([(BASE[5], 1), (0.33, 0)], RegimeState(0, 0.0),
         [0.71, 0.33, 0.0, 0.71]),
        # no events, aged origin, no jumps: the shortest row
        ([], RegimeState(1, 0.4), []),
        # an event at the horizon, a jump on a base node
        ([(0.1234, 1), (1.0, 0)], RegimeState(0, 0.25), [0.9999, BASE[10]]),
        # a run of new times between two base nodes
        ([(0.011, 1), (0.012, 0), (0.013, 1)], RegimeState(0, 0.0),
         [0.014, 0.999, 0.0141]),
    ]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_per_path_layout(self, dim):
        dyn = replace(_jump_dyn(), dim=dim)
        paths = [RegimePath(ev, origin, 1.0) for ev, origin, _ in self.CASES]
        stubs = lambda: [_StubRng(jt, 1.0 + 100.0 * p)
                         for p, (_, _, jt) in enumerate(self.CASES)]
        plan = _draw_plan(dyn, paths, 0.05, stubs())
        ref = _per_path_plan(dyn, paths, 0.05, stubs())
        for name, want in zip(("t", "dW", "jump_mask", "jump_marks", "theta",
                               "y"), ref):
            got = getattr(plan, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        # rows of unequal length: padding is the horizon, zero steps and
        # the final regime values
        n, K = plan.t.shape
        lengths = [21 + 2, 21, 21 + 2, 21 + 6]
        assert K == max(lengths)
        for p, L in enumerate(lengths):
            assert plan.t[p, L - 1] == 1.0 and np.all(plan.t[p, L:] == 1.0)
            pad = plan.dW[p, L - 1:]
            assert np.all(pad == 0.0) and not np.signbit(pad).any()
            assert np.all(plan.dW[p, :L - 1] != 0.0)
            end = paths[p].state_at(1.0, side="right")
            assert np.all(plan.theta[p, L - 1:] == end[0])
            assert np.all(plan.y[p, L - 1:] == end[1])
        assert plan.y[1, 0] == 0.4 and plan.theta[1, 0] == 1
        assert plan.jump_mask[0, 0] and plan.jump_mask.sum() == 8
        col = np.searchsorted(plan.t[0], 0.33)
        assert plan.jump_mask[0, col] and plan.theta[0, col] == 0


class TestPlanBytes:
    """``build_plan``'s arrays, pinned and replayed from the streams."""

    # SHA-256 of t, dW, jump_mask, jump_marks, theta and y, generated with
    # the per-path layout that the ensemble-wide one replaced
    DIGESTS = {
        "scalar-atoms":
            "1628baa95b1d85b9ade88ddf554fbd8215782fb3b580990f3a675ee0d24ec5f8",
        "dim2-density":
            "b23c9145a52c1debf5cb88b37e96b34c788dcc4279068202338e85e991499700",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_plan_digest(self, exp2_model, weibull3_model, name):
        if name == "scalar-atoms":
            plan = build_plan(_jump_dyn(),
                              _paths(exp2_model, 40, 1.0, 29, y0=0.2), 0.02,
                              29)
        else:
            marks = MarkMeasure(rate=4.0, density=lambda g: np.full_like(g, 2.0),
                                support=(0.0, 0.5))
            plan = build_plan(replace(_jump_dyn(marks), dim=2),
                              _paths(weibull3_model, 15, 1.0, 37, i0=1,
                                     y0=0.4), 0.05, 37, "other")
        h = hashlib.sha256()
        for a in (plan.t, plan.dW, plan.jump_mask, plan.jump_marks,
                  plan.theta, plan.y):
            h.update(a.tobytes())
        assert h.hexdigest() == self.DIGESTS[name]

    def test_rows_replay_their_streams(self, exp2_model):
        """Path p draws from stream (seed, tag, p): Poisson count, jump
        times, marks, then one normal per step of its grid."""
        dyn = _jump_dyn()
        regimes = _paths(exp2_model, 30, 1.0, 41, y0=0.1)
        plan = build_plan(dyn, regimes, 0.05, 41, "replay")
        base = np.linspace(0.0, 1.0, 21)
        n_jumps = 0
        for p in (0, 7, 18, 29):
            rng = stream(41, "replay", p)
            count = rng.poisson(3.0)
            jt = np.sort(rng.uniform(0.0, 1.0, size=count))
            jm = rng.choice(dyn.marks.atoms, size=count, p=dyn.marks.weights)
            events = [s for s, _ in regimes[p].events]
            grid = np.unique(np.concatenate((base, events, jt)))
            Z = rng.standard_normal(grid.size - 1)
            L = grid.size
            assert np.array_equal(plan.t[p, :L], grid)
            cols = np.searchsorted(grid, jt)
            assert np.array_equal(np.nonzero(plan.jump_mask[p])[0], cols)
            assert np.array_equal(plan.jump_marks[p, cols], jm)
            assert (plan.dW[p, :L - 1].tobytes()
                    == (Z * np.sqrt(np.diff(grid))).tobytes())
            n_jumps += count
        assert n_jumps > 0

    def test_a_row_draws_from_its_stream_in_any_chunk(self, weibull3_model):
        """Row p of ``build_plan`` draws from stream (seed, tag, p) and reads
        only regime path p: planned alone or with any run of consecutive
        paths, each on its own stream, it is the same row."""
        dyn = _jump_dyn()
        regimes = sample_regime_paths(weibull3_model, RegimeState(1, 0.3), 1.0,
                                      24, 43)
        plan = build_plan(dyn, regimes, 0.05, 43, "chunks")
        for a, b in ((0, 24), (0, 1), (5, 6), (3, 11), (11, 24)):
            part = _draw_plan(dyn, regimes[a:b], 0.05,
                              [stream(43, "chunks", p) for p in range(a, b)])
            for name in ("t", "dW", "jump_mask", "jump_marks", "theta", "y"):
                got, full = getattr(part, name), getattr(plan, name)[a:b]
                K = got.shape[1]
                assert got.dtype == full.dtype, name
                assert got.tobytes() == full[:, :K].copy().tobytes(), name
                # past the part's width the full plan holds padding only
                pad = got[:, -1:] if name in ("t", "theta", "y") else 0
                assert np.all(full[:, K:] == pad), name


# ---------------------------------------------------------------------------
# objective estimation
# ---------------------------------------------------------------------------

def _objective_mean(dyn, obj, model, x0, n_paths, dt, seed):
    """Mean and SE of the objective of the zero policy from (0, 0.0) on
    [0, 1]: regime paths from streams (seed, "regime", p), state noise from
    (seed, "paths", p)."""
    paths = sample_regime_paths(model, RegimeState(0, 0.0), 1.0, n_paths, seed)
    J = objective_paths(simulate_ensemble(dyn, _zero_policy(), paths, x0, dt,
                                          seed), obj)
    return J.mean(), J.std(ddof=1) / np.sqrt(n_paths)


class TestObjective:
    def test_constant_running_cost_exact(self, single_regime, frozen_dyn):
        obj = ObjectiveSpec(running=lambda t, x, u, i, y: np.ones_like(x),
                            terminal=None)
        est, se = _objective_mean(frozen_dyn, obj, single_regime, x0=0.0,
                                  n_paths=50, dt=0.02, seed=3)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_terminal_loss(self, single_regime):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: 0.05 * x,
                                 vol=lambda t, x, u, i: np.zeros_like(x))
        obj = ObjectiveSpec(running=None,
                            terminal=lambda x, i, y: -(x - 1.0) ** 2)
        est, _ = _objective_mean(dyn, obj, single_regime, x0=1.0, n_paths=10,
                                 dt=1e-3, seed=5)
        assert est == pytest.approx(-(np.exp(0.05) - 1.0) ** 2, abs=2e-5)

    def test_martingale_terminal_mean(self, single_regime):
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: np.zeros_like(x),
                                 vol=lambda t, x, u, i: 0.2 * x)
        obj = ObjectiveSpec(running=None, terminal=lambda x, i, y: x)
        est, se = _objective_mean(dyn, obj, single_regime, x0=1.0,
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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_running_cost_is_one_call_on_all_points(self, exp2_model, dim):
        if dim == 1:
            dyn, x0 = _jump_dyn(), 1.0
            rule = lambda t, x, i, y: 0.5 - 0.3 * x + 0.1 * y
            cost = lambda t, x, u, i, y: (-0.2 * u ** 2 + 0.05 * (1 + i) * x
                                          + 0.01 * t * y)
        else:
            dyn = replace(_jump_dyn(), dim=2,
                          drift=lambda t, x, u, i: 0.05 * x,
                          vol=lambda t, x, u, i: (0.2 * x[..., :, None]
                                                  * np.eye(2)),
                          jump=lambda t, x, u, i, gam: 0.1 * gam[..., None] * x)
            x0 = np.array([1.0, 0.5])
            rule = lambda t, x, i, y: 0.3 * x[..., 0]
            cost = lambda t, x, u, i, y: -0.1 * u ** 2 + 0.01 * x[..., 1]
        ens = simulate_ensemble(dyn, ControlPolicy(rule=rule),
                                _paths(exp2_model, 9, 1.0, 31), x0, 0.05, 31)
        shapes = []

        def running(t, x, u, i, y):
            shapes.append(x.shape)
            return cost(t, x, u, i, y)

        J = running_cost_paths(ens, ObjectiveSpec(running=running,
                                                  terminal=None))
        n, K = ens.t.shape
        assert shapes == [(n * K,) + ((dim,) if dim > 1 else ())]
        # the per-column loop the one call replaced
        vals = np.empty((n, K))
        for k in range(K):
            vals[:, k] = cost(ens.t[:, k], ens.x[:, k], ens.u[:, k],
                              ens.theta[:, k], ens.y[:, k])
        ref = np.sum(0.5 * (vals[:, 1:] + vals[:, :-1]) * np.diff(ens.t, axis=1),
                     axis=1)
        assert J.tobytes() == ref.tobytes()


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

    @pytest.mark.parametrize("marks, nodes", [
        (MarkMeasure(rate=1.5, atoms=np.array([-0.1, 0.2]),
                     weights=np.array([0.3, 0.7])),
         ([-0.1, 0.2], [0.3, 0.7])),
        (MarkMeasure(rate=1.5, density=lambda g: np.full_like(g, 5.0),
                     support=(0.0, 0.2)),
         (0.1 * np.polynomial.legendre.leggauss(64)[0] + 0.1,
          0.5 * np.polynomial.legendre.leggauss(64)[1]))],
        ids=["atoms", "density"])
    def test_jump_only_constants_by_hand(self, marks, nodes):
        # zero drift and vol: c1 and c2 are the jump terms alone, rebuilt
        # here from the same stream's samples and the law's nodes
        jump = lambda t, x, u, i, g: (1.0 + i) * g * x + 0.1 * np.sin(t + u)
        dyn = ControlledDynamics(dim=1,
                                 drift=lambda t, x, u, i: np.zeros_like(x),
                                 vol=lambda t, x, u, i: np.zeros_like(x),
                                 jump=jump, marks=marks)
        rep = coefficient_regularity_probe(dyn, (-2.0, 2.0), 400,
                                           stream(5, "probe"), u_box=(0.0, 1.0),
                                           states=[0, 1])
        rng = stream(5, "probe")
        xs, ys = rng.uniform(-2.0, 2.0, 400), rng.uniform(-2.0, 2.0, 400)
        ts, us = rng.uniform(0.0, 1.0, 400), rng.uniform(0.0, 1.0, 400)
        ii = rng.choice(np.array([0, 1]), 400)
        g2 = sum(w * jump(ts, xs, us, ii, gam) ** 2 for gam, w in zip(*nodes))
        dg2 = sum(w * (jump(ts, xs, us, ii, gam) - jump(ts, ys, us, ii, gam)) ** 2
                  for gam, w in zip(*nodes))
        c1 = np.max(1.5 * g2 / (1.0 + xs ** 2))
        c2 = np.max(1.5 * dg2 / (xs - ys) ** 2)
        assert rep.c1_hat == pytest.approx(c1, rel=1e-12)
        assert rep.c2_hat == pytest.approx(c2, rel=1e-12)
        # g(x) - g(y) = (1 + i) gamma (x - y): c2 is lam 4 int gamma^2 dpi
        assert rep.c2_hat == pytest.approx(
            1.5 * 4.0 * marks.integrate(lambda g: g ** 2), rel=1e-12)

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
