"""Regime process: hazards, intensity matrices, samplers, and the generator."""
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from smjd import semi_markov
from smjd.errors import AgeBeyondSupport, BoundViolation, InfiniteHazard
from smjd.jump_diffusion import MarkMeasure
from smjd.rng import stream
from smjd.semi_markov import (CustomHolding, ExponentialHolding, RegimeModel,
                              RegimePath, RegimePaths, RegimeState,
                              WeibullHolding,
                              apply_generator_L, dynkin_statistics,
                              hazard_rate, intensity_matrix,
                              regime_switch_sum, sample_holding_time, sample_regime_paths,
                              simulate_ctmc, simulate_regime_direct,
                              simulate_regime_thinning)


# ---------------------------------------------------------------------------
# hazard_rate
# ---------------------------------------------------------------------------

class TestHazardRate:
    def test_exponential_hazard_is_constant(self, exp2_model):
        assert hazard_rate(exp2_model, 0, 0.7) == pytest.approx(2.0)
        assert hazard_rate(exp2_model, 0, 0.0) == pytest.approx(2.0)
        assert hazard_rate(exp2_model, 1, 1.3) == pytest.approx(3.0)

    def test_weibull_shape_one_is_exponential(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(WeibullHolding(1.0, 1.0),
                                     WeibullHolding(1.0, 1.0)))
        for y in (0.0, 0.3, 2.5):
            assert hazard_rate(model, 0, y) == pytest.approx(1.0)

    def test_weibull_hazard_against_scipy(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(WeibullHolding(2.0, 1.0),
                                     WeibullHolding(2.0, 1.0)))
        # analytic hazard (k/s)(y/s)^{k-1}
        assert hazard_rate(model, 0, 0.5) == pytest.approx(1.0)
        dist = st.weibull_min(2.0, scale=1.0)
        for y in (0.2, 0.5, 1.1):
            oracle = dist.pdf(y) / dist.sf(y)
            assert hazard_rate(model, 0, y) == pytest.approx(oracle, rel=1e-10)

    def test_age_beyond_support_raises(self):
        # holding time uniform on [0,1]: cdf hits 1 at y=1
        uni = CustomHolding(
            pdf=lambda y: np.where((np.asarray(y) >= 0) & (np.asarray(y) <= 1),
                                   1.0, 0.0),
            cdf=lambda y: np.clip(np.asarray(y, dtype=float), 0.0, 1.0),
            hazard_bound_value=1e6, window=0.999)
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(uni, uni))
        assert hazard_rate(model, 0, 0.5) == pytest.approx(2.0)  # 1/(1-0.5)
        with pytest.raises(AgeBeyondSupport):
            hazard_rate(model, 0, 1.5)

    def test_weibull_shape_below_one_is_infinite_at_age_zero(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(WeibullHolding(1.5, 0.5),
                                     WeibullHolding(0.7, 0.8)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in (0.0, np.array([0.3, 0.0])):
                with pytest.raises(InfiniteHazard, match="shape 0.7 < 1"):
                    hazard_rate(model, 1, y)
            assert hazard_rate(model, 1, 0.3) > 0.0
            assert hazard_rate(model, 0, 0.0) == 0.0

    def test_scalar_path_matches_vector_path(self, weibull3_model):
        ys = stream(3, "ages").random(500) * 4.0
        for i in range(3):
            vec = hazard_rate(weibull3_model, i, ys)
            assert [hazard_rate(weibull3_model, i, y) for y in ys.tolist()] \
                == vec.tolist()


# ---------------------------------------------------------------------------
# intensity_matrix
# ---------------------------------------------------------------------------

class TestIntensityMatrix:
    def test_two_state_exponential(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(ExponentialHolding(2.0),
                                     ExponentialHolding(2.0)))
        Q = intensity_matrix(model, 0.3)
        assert np.allclose(Q, [[-2.0, 2.0], [2.0, -2.0]], atol=1e-12)

    def test_three_state_uniform_kernel_unit_hazard(self):
        kernel = np.full((3, 3), 0.5)
        np.fill_diagonal(kernel, 0.0)
        model = RegimeModel(kernel=kernel,
                            holding=tuple(ExponentialHolding(1.0)
                                          for _ in range(3)))
        Q = intensity_matrix(model, 0.0)
        assert np.allclose(np.diag(Q), -1.0, atol=1e-12)
        off = Q[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(y=hst.floats(min_value=0.0, max_value=3.0))
    def test_row_sums_vanish(self, y):
        kernel = np.array([[0.0, 0.25, 0.75],
                           [0.6, 0.0, 0.4],
                           [0.1, 0.9, 0.0]])
        model = RegimeModel(kernel=kernel,
                            holding=(WeibullHolding(1.5, 0.8),
                                     WeibullHolding(2.0, 1.0),
                                     ExponentialHolding(0.7)))
        Q = intensity_matrix(model, y)
        assert np.max(np.abs(Q.sum(axis=1))) < 1e-12
        assert np.all(Q[~np.eye(3, dtype=bool)] >= 0)


class TestRegimeSwitchSum:
    @pytest.mark.parametrize("one_state", [True, False])
    def test_stacked_changes_give_each_sums_bits(self, weibull3_model,
                                                 one_state):
        # a change and its square stacked on a leading axis: one pass gives
        # the bits of the two one-quantity sums
        rng = np.random.default_rng(4)
        y = rng.uniform(0.0, 2.0, (5, 7))
        i = 1 if one_state else rng.integers(0, 3, (5, 7))
        to = rng.normal(size=(3, 5, 7))

        def diff(j, sel):
            return to[j][sel] - y[sel]

        stacked = regime_switch_sum(weibull3_model, i, y, lambda j, sel: (
            np.stack((diff(j, sel), diff(j, sel) ** 2))))
        assert stacked.shape == (2, 5, 7)
        for power, got in zip((1, 2), stacked):
            want = regime_switch_sum(weibull3_model, i, y,
                                     lambda j, sel: diff(j, sel) ** power)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("states", [1, 2])
    @pytest.mark.parametrize("query", ["scalar-state", "states", "empty"])
    def test_leading_axes_kept_with_or_without_a_term(
            self, single_regime, exp2_model, states, query):
        # one state adds no term, nor does an empty query: the change's
        # leading axes are kept all the same
        model = single_regime if states == 1 else exp2_model
        shape = (0,) if query == "empty" else (3, 4)
        y = np.linspace(0.0, 1.0, 12)[:int(np.prod(shape))].reshape(shape)
        i = 0 if query == "scalar-state" else np.zeros(shape, dtype=int)
        got = regime_switch_sum(model, i, y, lambda j, sel: np.stack(
            (y[sel] + j, y[sel] - j)))
        assert got.shape == (2,) + shape
        if states == 1:
            assert not got.any()

# ---------------------------------------------------------------------------

class TestModelValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            RegimeModel(kernel=np.array([[0.0, 0.5], [1.0, 0.0]]),
                        holding=(ExponentialHolding(1.0),
                                 ExponentialHolding(1.0)))

    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValueError):
            RegimeModel(kernel=np.array([[0.5, 0.5], [1.0, 0.0]]),
                        holding=(ExponentialHolding(1.0),
                                 ExponentialHolding(1.0)))

    def test_kernel_must_be_irreducible(self):
        kernel = np.array([[0.0, 1.0, 0.0],
                           [1.0, 0.0, 0.0],
                           [0.5, 0.5, 0.0]])  # state 2 unreachable
        with pytest.raises(ValueError):
            RegimeModel(kernel=kernel,
                        holding=tuple(ExponentialHolding(1.0)
                                      for _ in range(3)))

    def test_single_state_degenerate_model_allowed(self, single_regime):
        path = simulate_regime_direct(single_regime, RegimeState(0, 0.0), 5.0,
                                      stream(0, "t"))
        assert path.events == []


# ---------------------------------------------------------------------------
# sample_holding_time
# ---------------------------------------------------------------------------

class _FixedUniform:
    """Duck-typed generator returning a fixed uniform draw."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSampleHoldingTime:
    def test_exponential_inverse_cdf(self, exp2_model):
        tau = sample_holding_time(exp2_model, 0, _FixedUniform(0.5))
        assert tau == pytest.approx(np.log(2.0) / 2.0, rel=1e-12)

    def test_small_draw_gives_small_holding(self, exp2_model):
        tau = sample_holding_time(exp2_model, 0, _FixedUniform(1e-12))
        assert 0.0 <= tau < 1e-11

    def test_weibull_inverse_cdf(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(WeibullHolding(2.0, 1.0),
                                     WeibullHolding(2.0, 1.0)))
        tau = sample_holding_time(model, 0, _FixedUniform(1.0 - np.exp(-1.0)))
        assert tau == pytest.approx(1.0, rel=1e-10)

    def test_custom_distribution_bisection_against_scipy(self):
        gam = st.gamma(2.0, scale=0.5)
        hold = CustomHolding(pdf=gam.pdf, cdf=gam.cdf,
                             hazard_bound_value=10.0, window=10.0)
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(hold, hold))
        for u in (0.1, 0.5, 0.9):
            tau = sample_holding_time(model, 0, _FixedUniform(u))
            assert tau == pytest.approx(gam.ppf(u), abs=1e-8)

    def test_residual_life_conditioning(self, exp2_model):
        # memoryless: residual law at any age equals the unconditional law
        tau0 = sample_holding_time(exp2_model, 0, _FixedUniform(0.5), age=0.0)
        tau1 = sample_holding_time(exp2_model, 0, _FixedUniform(0.5), age=2.0)
        assert tau1 == pytest.approx(tau0, rel=1e-9)

    def test_samples_match_distribution(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(WeibullHolding(1.7, 0.9),
                                     ExponentialHolding(1.0)))
        rng = stream(123, "holding")
        draws = np.array([sample_holding_time(model, 0, rng)
                          for _ in range(4000)])
        d, p = st.kstest(draws, st.weibull_min(1.7, scale=0.9).cdf)
        assert p > 0.01


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

class TestSamplers:
    def test_zero_hazard_means_no_events(self):
        frozen = CustomHolding(
            pdf=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            cdf=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            hazard_bound_value=1e-12, window=100.0)
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(frozen, frozen))
        path = simulate_regime_thinning(model, RegimeState(0, 0.0), 10.0,
                                        stream(1, "t"))
        assert path.events == []

    def test_mean_sojourn_exponential(self, exp2_model):
        rng = stream(7, "sojourn")
        sojourns = []
        t_origin = RegimeState(0, 0.0)
        while len(sojourns) < 4000:
            path = simulate_regime_direct(exp2_model, t_origin, 50.0, rng)
            prev_t, prev_s = 0.0, 0
            for t, s in path.events:
                if prev_s == 0:
                    sojourns.append(t - prev_t)
                prev_t, prev_s = t, s
        sojourns = np.array(sojourns[:4000])
        se = sojourns.std(ddof=1) / np.sqrt(len(sojourns))
        assert abs(sojourns.mean() - 0.5) < 3 * se

    def test_first_jump_time_ks(self, exp2_model):
        rng = stream(11, "firstjump")
        firsts = np.array([simulate_regime_direct(
            exp2_model, RegimeState(0, 0.0), 100.0, rng).events[0][0]
            for _ in range(5000)])
        d, p = st.kstest(firsts, st.expon(scale=0.5).cdf)
        assert d < 0.025 and p > 0.01

    def test_thinning_accepts_exponential_without_rejection(self, exp2_model):
        # constant hazard: direct and thinning agree in law; smoke-compare
        rng_a, rng_b = stream(3, "a"), stream(3, "b")
        ta = [simulate_regime_thinning(exp2_model, RegimeState(0, 0.0), 50.0,
                                       rng_a) for _ in range(50)]
        counts = [len(p.events) for p in ta]
        assert np.mean(counts) > 0

    @pytest.mark.parametrize("theta", [-1, 3])
    @pytest.mark.parametrize("sampler", ["direct", "table", "thinning",
                                         "ctmc"])
    def test_origin_state_outside_the_model_is_refused(
            self, weibull3_model, sampler, theta):
        rng = stream(73, "origin")
        before = repr(rng.bit_generator.state)
        origin = RegimeState(theta, 0.2)
        call = {
            "direct": lambda: simulate_regime_direct(weibull3_model, origin,
                                                     5.0, rng),
            "table": lambda: sample_regime_paths(weibull3_model, origin, 5.0,
                                                 4, 73),
            "thinning": lambda: simulate_regime_thinning(weibull3_model,
                                                         origin, 5.0, rng),
            "ctmc": lambda: simulate_ctmc([1.0, 2.0, 3.0],
                                          weibull3_model.kernel, origin, 5.0,
                                          rng),
        }[sampler]
        with pytest.raises(ValueError, match=rf"origin state {theta} is "
                           r"outside 0\.\.2 of a 3-state model"):
            call()
        assert repr(rng.bit_generator.state) == before

    @pytest.mark.parametrize("theta", [1.5, True, np.True_, float("nan")],
                             ids=["1.5", "True", "np.True_", "nan"])
    @pytest.mark.parametrize("sampler", ["direct", "table", "thinning",
                                         "ctmc"])
    def test_non_integer_origin_state_is_refused(self, weibull3_model,
                                                 sampler, theta):
        rng = stream(73, "origin")
        before = repr(rng.bit_generator.state)
        call = {
            "direct": lambda o: simulate_regime_direct(weibull3_model, o, 5.0,
                                                       rng),
            "table": lambda o: sample_regime_paths(weibull3_model, o, 5.0, 2,
                                                   1),
            "thinning": lambda o: simulate_regime_thinning(weibull3_model, o,
                                                           5.0, rng),
            "ctmc": lambda o: simulate_ctmc([1.0, 2.0, 3.0],
                                            weibull3_model.kernel, o, 5.0,
                                            rng),
        }[sampler]
        with pytest.raises(ValueError, match=rf"regime state {theta!r} is "
                           "not an integer"):
            call(RegimeState(theta, 0.2))
        assert repr(rng.bit_generator.state) == before

    @pytest.mark.parametrize("age", [-0.5, float("nan"), float("inf")])
    def test_age_that_is_not_finite_and_nonnegative_is_refused(self, age):
        with pytest.raises(ValueError, match=rf"age {age!r} is not a finite "
                           "number >= 0"):
            RegimeState(0, age)

    @pytest.mark.parametrize("theta", [1, 1.0, np.int64(1), np.float64(1.0)],
                             ids=["int", "float", "np.int64", "np.float64"])
    def test_integral_origin_state_is_stored_as_int(self, weibull3_model,
                                                    theta):
        origin = RegimeState(theta, 0.2)
        assert type(origin.theta) is int and origin.theta == 1
        paths = sample_regime_paths(weibull3_model, origin, 5.0, 3, 11)
        want = sample_regime_paths(weibull3_model, RegimeState(1, 0.2), 5.0,
                                   3, 11)
        for a, b in ((paths.times, want.times), (paths.states, want.states),
                     (paths.theta0, want.theta0)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("rates, message", [
        ([1.0, 2.0], r"rates: 2 given for a 3-state kernel"),
        ([1.0, 2.0, 3.0, 4.0], r"rates: 4 given for a 3-state kernel"),
        ([1.0, -2.0, 3.0], r"rates\[1\] = -2\.0 must be finite and > 0"),
        ([1.0, 2.0, 0.0], r"rates\[2\] = 0\.0 must be finite and > 0"),
        ([np.inf, 2.0, 3.0], r"rates\[0\] = inf must be finite and > 0"),
        ([1.0, np.nan, 3.0], r"rates\[1\] = nan must be finite and > 0"),
    ])
    def test_ctmc_refuses_bad_rates_before_any_draw(self, weibull3_model,
                                                    rates, message):
        rng = stream(1, "ctmc-rates")
        before = repr(rng.bit_generator.state)
        with pytest.raises(ValueError, match=message):
            simulate_ctmc(rates, weibull3_model.kernel, RegimeState(0), 50.0,
                          rng)
        assert repr(rng.bit_generator.state) == before

    def test_negative_path_count_is_refused(self, weibull3_model):
        with pytest.raises(ValueError, match="n must be >= 0, got -2"):
            sample_regime_paths(weibull3_model, RegimeState(0), 5.0, -2, 73)

    def test_thinning_vs_direct_holding_times(self, weibull3_model):
        def sojourn_sample(simulate, tag):
            rng = stream(17, tag)
            out = []
            while len(out) < 4000:
                path = simulate(weibull3_model, RegimeState(0, 0.0), 30.0, rng)
                prev = 0.0
                for t, _ in path.events:
                    out.append(t - prev)
                    prev = t
            return np.array(out[:4000])

        a = sojourn_sample(simulate_regime_direct, "direct")
        b = sojourn_sample(simulate_regime_thinning, "thin")
        d, p = st.ks_2samp(a, b)
        assert p > 0.01

    @pytest.mark.parametrize("theta,y0", [(0, 0.55), (1, 1.3)])
    def test_thinning_vs_direct_first_jump_from_aged_origin(
            self, weibull3_model, theta, y0):
        # the first majorant window opens at age y0, off the window grid
        horizon = 3.0

        def first_jumps(simulate, tag):
            rng = stream(23, tag, theta)
            out = np.empty(3000)
            for n in range(out.size):
                path = simulate(weibull3_model, RegimeState(theta, y0),
                                horizon, rng)
                out[n] = path.events[0][0] if path.events else horizon
            return out

        a = first_jumps(simulate_regime_direct, "aged-direct")
        b = first_jumps(simulate_regime_thinning, "aged-thin")
        d, p = st.ks_2samp(a, b)
        assert p > 0.01

    def test_thinning_refuses_weibull_shape_below_one(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(WeibullHolding(2.0, 1.0),
                                     WeibullHolding(0.7, 1.0)))
        rng = stream(31, "refuse")
        with pytest.raises(BoundViolation, match="shape 0.7 < 1"):
            simulate_regime_thinning(model, RegimeState(0, 0.0), 5.0, rng)
        # refused before any draw
        assert rng.random() == stream(31, "refuse").random()

    def test_thinning_refuses_custom_window_shorter_than_run(self):
        gam = st.gamma(2.0, scale=0.5)
        hold = CustomHolding(pdf=gam.pdf, cdf=gam.cdf,
                             hazard_bound_value=10.0, window=10.0)
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(hold, hold))
        rng = stream(37, "refuse")
        # horizon + origin age = 11 reaches past the declared window of 10
        with pytest.raises(BoundViolation, match=r"needs \[0, 11"):
            simulate_regime_thinning(model, RegimeState(0, 3.0), 8.0, rng)
        # refused before any draw
        assert rng.random() == stream(37, "refuse").random()
        path = simulate_regime_thinning(model, RegimeState(0, 2.0), 8.0, rng)
        assert path.events

    def test_transition_frequencies_match_kernel(self, weibull3_model):
        rng = stream(19, "trans")
        counts = np.zeros((3, 3))
        for _ in range(400):
            path = simulate_regime_thinning(weibull3_model,
                                            RegimeState(0, 0.0), 30.0, rng)
            prev = 0
            for _, s in path.events:
                counts[prev, s] += 1
                prev = s
        freq = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
        off = ~np.eye(3, dtype=bool)
        assert np.max(np.abs(freq[off] - weibull3_model.kernel[off])) < 0.03

    def test_ctmc_matches_direct_exponential(self, exp2_model):
        # same law: compare time-average occupancy of state 0
        def occupancy(simulate, *args):
            rng = stream(29, args[0])
            tot = 0.0
            for _ in range(300):
                if args[0] == "ctmc":
                    path = simulate_ctmc([2.0, 3.0], exp2_model.kernel,
                                         RegimeState(0, 0.0), 20.0, rng)
                else:
                    path = simulate_regime_direct(exp2_model,
                                                  RegimeState(0, 0.0), 20.0,
                                                  rng)
                ts = np.linspace(0.0, 20.0, 400)
                th, _ = path.state_at(ts)
                tot += np.mean(th == 0)
            return tot / 300

        a = occupancy(simulate_regime_direct, "direct")
        b = occupancy(simulate_ctmc, "ctmc")
        assert abs(a - b) < 0.02
        assert abs(a - 0.6) < 0.02  # stationary occupancy 3/(2+3)


# ---------------------------------------------------------------------------
# draw protocol
# ---------------------------------------------------------------------------

class _CountingRng:
    """Generator proxy counting ``random()`` calls; delegates every draw."""

    def __init__(self, rng):
        self._rng = rng
        self.randoms = 0

    def random(self, *args, **kwargs):
        self.randoms += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _exp3_model():
    return RegimeModel(kernel=np.array([[0.0, 0.25, 0.75],
                                        [0.6, 0.0, 0.4],
                                        [0.1, 0.9, 0.0]]),
                       holding=(ExponentialHolding(0.7),
                                ExponentialHolding(1.3),
                                ExponentialHolding(2.0)))


def _paths_digest(sample):
    h = hashlib.sha256()
    for p in range(300):
        path = sample(stream(41, "protocol", p))
        h.update(np.array([t for t, _ in path.events]).tobytes())
        h.update(np.array([s for _, s in path.events],
                          dtype=np.int64).tobytes())
        h.update(b";")
    return h.hexdigest()


class TestDrawProtocol:
    """Every draw is pinned: refactors of the samplers keep the bits."""

    @pytest.mark.parametrize("kernel", [
        [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],  # criterion 1
        [[0.0, 1.0], [1.0, 0.0]],
    ])
    def test_table_draw_equals_generator_choice(self, kernel):
        model = RegimeModel(kernel=np.array(kernel),
                            holding=(ExponentialHolding(1.0),) * len(kernel))
        M = model.n_states
        for i in range(M):
            a, b = stream(43, "table", i), stream(43, "table", i)
            table = [semi_markov._next_state(model.kernel_cdf, i, a)
                     for _ in range(2000)]
            ref = [int(b.choice(M, p=model.kernel[i])) for _ in range(2000)]
            assert table == ref
            assert a.random() == b.random()  # generators still in lockstep

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_mark_sample_equals_generator_choice(self, n):
        marks = MarkMeasure(rate=2.0, atoms=np.array([-0.05, 0.08, 0.02]),
                            weights=np.array([0.4, 0.35, 0.25]))
        a, b = stream(47, "marks", n), stream(47, "marks", n)
        got = marks.sample(a, n)
        want = b.choice(marks.atoms, size=n, p=marks.weights)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert a.random() == b.random()

    # SHA-256 of 300 paths (event times and states), origin (1, 0.3),
    # horizon 10, streams (41, "protocol", p); recorded before the samplers
    # drew from cumulative tables, with Generator.choice
    @pytest.mark.parametrize("model,sampler,digest", [
        ("weibull3", "direct",
         "21495f357211acfa59b58af19bb91321f341dd0ad0e620b402070c3f00852454"),
        ("weibull3", "thinning",
         "14bfc5536d9576652999787056f807e1eb1b377e796d2912a22cad246efb98e4"),
        ("exp3", "direct",
         "ec18096ec2d51a715a3a4435ab71829c4741b73072c1e3e6626f1f2ad94d0255"),
        ("exp3", "thinning",
         "6d94ba797b474f5719e161d028469800fe12285a4256d52579f3cb0edb622b8f"),
        ("exp3", "ctmc",
         "38f4c16e1808de3f2cdddf2a2299db7bcd8ebf9d8f1537da91578148f4344802"),
    ])
    def test_sampler_paths_are_pinned(self, weibull3_model, model, sampler,
                                      digest):
        rm = weibull3_model if model == "weibull3" else _exp3_model()
        origin = RegimeState(1, 0.3)
        if sampler == "ctmc":
            def sample(rng):
                return simulate_ctmc([0.7, 1.3, 2.0], rm.kernel, origin,
                                     10.0, rng)
        else:
            simulate = {"direct": simulate_regime_direct,
                        "thinning": simulate_regime_thinning}[sampler]

            def sample(rng):
                return simulate(rm, origin, 10.0, rng)
        assert _paths_digest(sample) == digest

    def test_thinning_draws_one_random_per_hazard_call(self, weibull3_model,
                                                       monkeypatch):
        calls = []
        inner = semi_markov.hazard_rate

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(semi_markov, "hazard_rate", counted)
        rng = _CountingRng(stream(53, "proposals"))
        events = sum(len(simulate_regime_thinning(
            weibull3_model, RegimeState(0, 0.0), 30.0, rng).events)
            for _ in range(5))
        assert events > 0 and rng.randoms == len(calls) > events


def _direct_reference(model, origin, horizon, rng):
    """The renewal loop the array sampler replaced: per sojourn one
    ``random()`` for the holding time, then one ``uniform()`` for the
    target state."""
    events, t, i, age = [], 0.0, origin.theta, origin.y
    if model.n_states == 1:
        return events
    while True:
        dist, u = model.holding[i], rng.random()
        if age == 0.0:
            tau = float(dist.inverse_cdf(u))
        else:
            F_age = float(np.asarray(dist.cdf(age), dtype=float))
            if F_age >= 1.0 - 1e-15:
                raise AgeBeyondSupport(i, age)
            tau = float(dist.inverse_cdf(F_age + u * (1.0 - F_age))) - age
        t += tau
        if t >= horizon or not math.isfinite(t):
            return events
        i = int(model.kernel_cdf[i].searchsorted(rng.uniform(), side="right"))
        events.append((t, i))
        age = 0.0


def _custom_model():
    """A gamma law next to a defective one (mass 0.4 never exits)."""
    gam = st.gamma(2.0, scale=0.5)
    gamma = CustomHolding(pdf=gam.pdf, cdf=gam.cdf, hazard_bound_value=10.0,
                          window=10.0)
    defective = CustomHolding(
        pdf=lambda y: 0.6 * np.exp(-np.asarray(y, dtype=float)),
        cdf=lambda y: 0.6 * -np.expm1(-np.asarray(y, dtype=float)),
        hazard_bound_value=1.0, window=10.0)
    return RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       holding=(gamma, defective))


def _single_model():
    return RegimeModel(kernel=np.array([[0.0]]),
                       holding=(ExponentialHolding(1.0),))


def _assert_same_path(path, events):
    assert path.events == events
    assert all(type(t) is float and type(s) is int for t, s in path.events)
    assert path._times.tobytes() == np.array([t for t, _ in events],
                                             dtype=float).tobytes()
    assert path._states.tobytes() == np.array([s for _, s in events],
                                              dtype=np.int64).tobytes()


class TestDirectSamplerMatchesLoop:
    """Both entry points of the array sampler against the renewal loop."""

    CASES = [(model, origin, horizon, n)
             for model, origin, n in (("exp2", (0, 0.0), 60),
                                      ("weibull3", (0, 0.0), 60),
                                      ("weibull3", (1, 0.3), 60),
                                      ("custom", (0, 0.0), 12),
                                      ("custom", (1, 0.7), 12),
                                      ("single", (0, 0.4), 5),
                                      ("exp2", (1, 0.0), 0))
             for horizon in (1.0, 50.0)]

    @staticmethod
    def _model(name, exp2_model, weibull3_model):
        return {"exp2": exp2_model, "weibull3": weibull3_model,
                "custom": _custom_model(), "single": _single_model()}[name]

    @pytest.mark.parametrize("name,origin,horizon,n", CASES)
    def test_sample_regime_paths_bit_for_bit(self, exp2_model, weibull3_model,
                                             name, origin, horizon, n):
        model = self._model(name, exp2_model, weibull3_model)
        origin = RegimeState(*origin)
        paths = sample_regime_paths(model, origin, horizon, n, 61, "equiv")
        assert len(paths) == n
        for p, path in enumerate(paths):
            assert path.origin == origin and path.horizon == horizon
            _assert_same_path(path, _direct_reference(
                model, origin, horizon, stream(61, "equiv", p)))

    @pytest.mark.parametrize("name,origin,horizon,n", CASES)
    def test_table_slices_and_stacks_back(self, exp2_model, weibull3_model,
                                          name, origin, horizon, n):
        model = self._model(name, exp2_model, weibull3_model)
        paths = sample_regime_paths(model, RegimeState(*origin), horizon, n,
                                    61, "equiv")
        stacked = RegimePaths.of(list(paths))
        for field in ("offsets", "times", "states", "theta0", "y0"):
            got, want = getattr(stacked, field), getattr(paths, field)
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        a, b = n // 3, n - n // 4
        part = paths[a:b]
        assert len(part) == b - a and part.horizon == horizon
        for q, path in enumerate(part):
            want = paths[a + q]
            assert path == want  # events, origin and horizon
            _assert_same_path(path, want.events)

    @pytest.mark.parametrize("name,origin,horizon,n", CASES)
    def test_shared_stream_left_where_the_loop_leaves_it(
            self, exp2_model, weibull3_model, name, origin, horizon, n):
        model = self._model(name, exp2_model, weibull3_model)
        origin = RegimeState(*origin)
        a, b = stream(67, "shared", n), stream(67, "shared", n)
        for _ in range(max(n, 3)):
            _assert_same_path(simulate_regime_direct(model, origin, horizon, a),
                              _direct_reference(model, origin, horizon, b))
            assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
        assert a.random() == b.random()

    def test_age_beyond_support_raised_at_the_same_call(self):
        uniform = CustomHolding(
            pdf=lambda y: np.where((np.asarray(y) >= 0) & (np.asarray(y) <= 1),
                                   1.0, 0.0),
            cdf=lambda y: np.clip(np.asarray(y, dtype=float), 0.0, 1.0),
            hazard_bound_value=1e6, window=0.999)
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(uniform, ExponentialHolding(1.0)))
        a, b = stream(71, "support"), stream(71, "support")

        def failing_call(sample, rng):
            for call, y in enumerate((0.2, 0.9, 1.5, 0.1)):
                try:
                    sample(model, RegimeState(0, y), 3.0, rng)
                except AgeBeyondSupport as exc:
                    return call, exc.state, exc.age
            return None

        assert failing_call(simulate_regime_direct, a) == failing_call(
            _direct_reference, b) == (2, 0, 1.5)
        with pytest.raises(AgeBeyondSupport):
            sample_regime_paths(model, RegimeState(0, 1.5), 3.0, 4, 71)


def _spy_blocks(monkeypatch):
    """(paths, sojourns per path) of every block the direct sampler draws."""
    blocks, inner = [], semi_markov._direct_paths

    def spied(model, theta0, y0, horizon, draw):
        def recorded(rows, k):
            blocks.append((rows.size, k))
            return draw(rows, k)
        return inner(model, theta0, y0, horizon, recorded)

    monkeypatch.setattr(semi_markov, "_direct_paths", spied)
    return blocks


def _force_first_block(monkeypatch, k):
    """Open every direct-sampler path with ``k`` sojourns, or with as many
    as one block may hold (``"cap"``); returns that count for ``n`` paths."""
    rate = math.inf if k == "cap" else 0.0
    if k != "cap":
        monkeypatch.setattr(semi_markov, "_FIRST_BLOCK", k)
    monkeypatch.setattr(RegimeModel, "event_rate", property(lambda _: rate))
    return lambda n: (semi_markov._BLOCK_SOJOURNS // n if k == "cap" else k)


class TestDirectSamplerBlocks:
    """The first block's size, and that no block size changes a sample."""

    CASES = [("weibull3", (0, 0.0), 50.0, 2000),
             ("exp2", (0, 0.0), 1.0, 2000),
             ("weibull3", (1, 0.3), 50.0, 2000),
             ("custom", (1, 0.7), 10.0, 12)]

    @staticmethod
    def _model(name, exp2_model, weibull3_model, monkeypatch):
        if name == "custom":  # custom laws invert one uniform at a time
            monkeypatch.setattr(semi_markov, "_BLOCK_SOJOURNS", 1 << 9)
        return {"exp2": exp2_model, "weibull3": weibull3_model,
                "custom": _custom_model()}[name]

    @pytest.mark.parametrize("k", [1, 8, "cap"])
    @pytest.mark.parametrize("name,origin,horizon,n", CASES)
    def test_block_size_never_changes_a_table(
            self, exp2_model, weibull3_model, monkeypatch, name, origin,
            horizon, n, k):
        model = self._model(name, exp2_model, weibull3_model, monkeypatch)
        origin = RegimeState(*origin)
        want = sample_regime_paths(model, origin, horizon, n, 79, "blocks")
        first = _force_first_block(monkeypatch, k)
        blocks = _spy_blocks(monkeypatch)
        got = sample_regime_paths(model, origin, horizon, n, 79, "blocks")
        assert blocks[0] == (n, first(n))
        for field in ("offsets", "times", "states", "theta0", "y0"):
            assert getattr(got, field).tobytes() == getattr(
                want, field).tobytes(), field

    @pytest.mark.parametrize("k", [1, 8, "cap"])
    @pytest.mark.parametrize("name,origin,horizon,n", CASES)
    def test_block_size_never_changes_a_path_or_the_stream(
            self, exp2_model, weibull3_model, monkeypatch, name, origin,
            horizon, n, k):
        model = self._model(name, exp2_model, weibull3_model, monkeypatch)
        origin = RegimeState(*origin)
        first = _force_first_block(monkeypatch, k)
        blocks = _spy_blocks(monkeypatch)
        a, b = stream(83, "blocks"), stream(83, "blocks")
        for _ in range(4):
            blocks.clear()
            _assert_same_path(simulate_regime_direct(model, origin, horizon, a),
                              _direct_reference(model, origin, horizon, b))
            assert repr(a.bit_generator.state) == repr(b.bit_generator.state)
            assert blocks[0] == (1, first(1))
        assert a.random() == b.random()

    def test_weibull_horizon_50_takes_one_block_per_path(
            self, weibull3_model, monkeypatch):
        blocks = _spy_blocks(monkeypatch)
        rng = stream(89, "one-block")
        for _ in range(300):
            simulate_regime_direct(weibull3_model, RegimeState(0), 50.0, rng)
        assert len(blocks) == 300
        blocks.clear()
        sample_regime_paths(weibull3_model, RegimeState(0), 50.0, 500, 89)
        assert len(blocks) == 1

    def test_event_rate_is_lazy_and_stationary(self, exp2_model):
        assert "event_rate" not in vars(exp2_model)  # set-up pays nothing
        sample_regime_paths(exp2_model, RegimeState(0), 1.0, 3, 97)
        assert "event_rate" in vars(exp2_model)
        # forced alternation: pi = (1/2, 1/2), medians ln 2 / rate
        assert exp2_model.event_rate == pytest.approx(
            1.0 / (0.5 * math.log(2.0) / 2.0 + 0.5 * math.log(2.0) / 3.0),
            rel=1e-12)
        rm = _exp3_model()  # pi from the balance equations and sum(pi) = 1
        pi = np.linalg.lstsq(np.vstack([rm.kernel.T - np.eye(3), np.ones(3)]),
                             [0.0, 0.0, 0.0, 1.0], rcond=None)[0]
        assert rm.event_rate == pytest.approx(
            1.0 / (pi @ (math.log(2.0) / np.array([0.7, 1.3, 2.0]))),
            rel=1e-12)

    @pytest.mark.parametrize("model,horizon,n,cap", [
        ("weibull3", 50.0, 64, None),
        ("exp2", 1.0, 64, None),
        ("rare-fast", 50.0, 64, None),
        ("fast", 5.0, 16, 1 << 10),  # the estimate, 1,804, is past the cap
    ])
    def test_blocks_stay_between_floor_and_cap(
            self, exp2_model, weibull3_model, monkeypatch, model, horizon, n,
            cap):
        if cap is not None:
            monkeypatch.setattr(semi_markov, "_BLOCK_SOJOURNS", cap)
        fast = ExponentialHolding(200.0)
        rm = {"weibull3": weibull3_model, "exp2": exp2_model,
              # state 2 is entered about once in 200 switches, and left
              # 10,000 times faster than the others
              "rare-fast": RegimeModel(
                  kernel=np.array([[0.0, 0.995, 0.005],
                                   [0.995, 0.0, 0.005],
                                   [0.5, 0.5, 0.0]]),
                  holding=(ExponentialHolding(1.0), ExponentialHolding(1.0),
                           ExponentialHolding(1e4))),
              "fast": RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                                  holding=(fast, fast))}[model]
        blocks = _spy_blocks(monkeypatch)
        sample_regime_paths(rm, RegimeState(0), horizon, n, 101)
        rows, k = blocks[0]
        assert rows == n and k == min(
            max(semi_markov._FIRST_BLOCK,
                math.ceil(1.25 * horizon * rm.event_rate)),
            semi_markov._BLOCK_SOJOURNS // n)
        for rows, k in blocks:
            assert (semi_markov._FIRST_BLOCK <= k
                    <= semi_markov._BLOCK_SOJOURNS // rows)

    def test_single_state_model_draws_nothing(self, monkeypatch):
        blocks = _spy_blocks(monkeypatch)
        rng = stream(103, "single")
        before = repr(rng.bit_generator.state)
        path = simulate_regime_direct(_single_model(), RegimeState(0, 0.4),
                                      5.0, rng)
        paths = sample_regime_paths(_single_model(), RegimeState(0), 5.0, 6,
                                    103)
        assert path.events == [] and paths.times.size == 0
        assert blocks == [] and repr(rng.bit_generator.state) == before

    def test_defective_median_opens_with_the_floor(self, monkeypatch):
        # the cdf stays below 0.4, so the median is infinite
        stuck = CustomHolding(
            pdf=lambda y: 0.4 * np.exp(-np.asarray(y, dtype=float)),
            cdf=lambda y: 0.4 * -np.expm1(-np.asarray(y, dtype=float)),
            hazard_bound_value=1.0, window=10.0)
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(ExponentialHolding(1.0), stuck))
        blocks = _spy_blocks(monkeypatch)
        sample_regime_paths(model, RegimeState(0), 50.0, 20, 107)
        assert model.event_rate == 0.0
        assert blocks[0] == (20, semi_markov._FIRST_BLOCK)


def _count_inversions(monkeypatch):
    """A one-element list holding the number of custom-law root finds."""
    calls, inner = [0], CustomHolding._invert_one

    def counted(self, target):
        calls[0] += 1
        return inner(self, target)

    monkeypatch.setattr(CustomHolding, "_invert_one", counted)
    return calls


class TestOriginTable:
    """One direct-sampler pass over paths that start at their own origins."""

    @staticmethod
    def _gamma2():
        gam = st.gamma(2.0, scale=0.5)
        law = CustomHolding(pdf=gam.pdf, cdf=gam.cdf, hazard_bound_value=10.0,
                            window=10.0)
        return RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                           holding=(law, law))

    @pytest.mark.parametrize("age", [0.0, 1.0])
    def test_custom_law_inverts_only_the_sojourns_it_uses(self, monkeypatch,
                                                          age):
        # 50 paths of horizon 10 inverted 782 (age 0, event rate included)
        # and 810 (age 1) uniforms for 530 and 546 sojourns used, before
        # the columns past each path's cut were skipped
        model = self._gamma2()
        model.event_rate  # its two medians are root finds too
        calls = _count_inversions(monkeypatch)
        paths = sample_regime_paths(model, RegimeState(0, age), 10.0, 50, 3)
        used = len(paths) + paths.times.size  # E + 1 sojourns per path
        assert used == {0.0: 530, 1.0: 546}[age]
        assert calls[0] == used
        for p in (0, 17, 49):
            _assert_same_path(paths[p], _direct_reference(
                model, RegimeState(0, age), 10.0, stream(3, "regime", p)))

    def test_mixed_origins_equal_their_own_samples(self, weibull3_model,
                                                   monkeypatch):
        # rows from four origins, interleaved, each on its own stream;
        # custom rows pay one root find per sojourn used, an aged first
        # sojourn included
        origins = [(0, 0.0), (1, 0.3), (2, 1.1), (1, 0.0)]
        for model in (weibull3_model, self._gamma2()):
            model.event_rate
            M = model.n_states
            rows = [RegimeState(i % M, y) for i, y in origins] * 3
            rngs = [stream(113, "mixed", p) for p in range(len(rows))]
            calls = _count_inversions(monkeypatch)
            table = semi_markov._direct_paths(
                model, np.array([o.theta for o in rows]),
                np.array([o.y for o in rows]), 4.0,
                semi_markov._stream_draw(rngs))
            custom = isinstance(model.holding[0], CustomHolding)
            assert calls[0] == (len(table) + table.times.size) * custom
            for p, origin in enumerate(rows):
                want = simulate_regime_direct(model, origin, 4.0,
                                              stream(113, "mixed", p))
                assert table[p] == want
                _assert_same_path(table[p], want.events)

    def test_age_cdf_once_per_distinct_origin_in_row_order(
            self, weibull3_model, monkeypatch):
        calls, inner = [], semi_markov._age_cdf

        def counted(model, i, age):
            calls.append((i, age))
            return inner(model, i, age)

        monkeypatch.setattr(semi_markov, "_age_cdf", counted)
        theta0 = np.repeat([2, 0, 1, 0], 5)
        y0 = np.repeat([0.4, 0.0, 0.4, 1.1], 5)
        semi_markov._direct_paths(weibull3_model, theta0, y0, 2.0,
                                  semi_markov._stream_draw(
                                      [stream(127, "cdf", p)
                                       for p in range(20)]))
        assert calls == [(2, 0.4), (1, 0.4), (0, 1.1)]

    def test_first_origin_past_its_support_is_named(self):
        def uniform(width):
            return CustomHolding(
                pdf=lambda y: np.where((np.asarray(y) >= 0)
                                       & (np.asarray(y) <= width),
                                       1.0 / width, 0.0),
                cdf=lambda y: np.clip(np.asarray(y, dtype=float) / width,
                                      0.0, 1.0),
                hazard_bound_value=1e6, window=0.999 * width)

        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(uniform(2.0), uniform(1.0)))
        rng = stream(131, "support")
        before = repr(rng.bit_generator.state)
        # node order (0, 0.5), (0, 2.5), (1, 0.5), (1, 2.5): (1, 2.5) is
        # past its support too, (0, 2.5) comes first
        with pytest.raises(AgeBeyondSupport) as exc:
            semi_markov._direct_paths(
                model, np.repeat([0, 1], 2), np.tile([0.5, 2.5], 2), 1.0,
                semi_markov._stream_draw([rng] * 4))
        assert (exc.value.state, exc.value.age) == (0, 2.5)
        assert repr(rng.bit_generator.state) == before


# ---------------------------------------------------------------------------
# path structure / age dynamics
# ---------------------------------------------------------------------------

class TestRegimePath:
    def test_event_times_strictly_increasing(self, weibull3_model):
        rng = stream(5, "inc")
        for _ in range(20):
            path = simulate_regime_direct(weibull3_model, RegimeState(1, 0.0),
                                          10.0, rng)
            times = [t for t, _ in path.events]
            assert all(b > a for a, b in zip(times, times[1:]))
            states = [path.origin.theta] + [s for _, s in path.events]
            assert all(b != a for a, b in zip(states, states[1:]))

    def test_age_unit_slope_and_reset(self, exp2_model):
        rng = stream(9, "age")
        path = simulate_regime_direct(exp2_model, RegimeState(0, 0.4), 10.0,
                                      rng)
        assert len(path.events) > 0
        t1 = path.events[0][0]
        # before the first event, age = initial age + elapsed time
        th, y = path.state_at(np.array([0.0, t1 / 2]))
        assert np.allclose(y, [0.4, 0.4 + t1 / 2])
        # right-continuous evaluation just after an event: age resets to ~0
        th2, y2 = path.state_at(np.array([t1]), side="right")
        assert y2[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("events,origin", [
        ([(0.5, 1), (0.5, 0)], 0),  # repeated time
        ([(0.6, 1), (0.4, 0)], 0),  # decreasing times
        ([(0.0, 1)], 0),  # time at 0
        ([(1.5, 1)], 0),  # time past the horizon
        ([(0.3, 0)], 0),  # state repeats the origin's
        ([(0.3, 1), (0.7, 1)], 0),  # state repeats the previous event's
    ])
    def test_bad_events_refused(self, events, origin):
        with pytest.raises(ValueError):
            RegimePath(events, RegimeState(origin, 0.0), 1.0)
        # the array check, as a table row after a good one; what lies past
        # a row's event count is not read
        good = [(0.2, 1), (0.9, 0)]
        pad = len(good) - len(events) if len(events) < len(good) else 0
        times = np.array([[t for t, _ in good],
                          [t for t, _ in events] + [np.nan] * pad])
        chain = np.array([[0] + [s for _, s in good],
                          [origin] + [s for _, s in events] + [origin] * pad])
        with pytest.raises(ValueError):
            semi_markov._check_events(times, chain, np.array([2, len(events)]),
                                      1.0)
        semi_markov._check_events(times, chain, np.array([2, 0]), 1.0)

    def test_state_at_with_no_events(self, single_regime):
        path = simulate_regime_direct(single_regime, RegimeState(0, 0.3), 2.0,
                                      stream(0, "z"))
        th, y = path.state_at(np.array([0.0, 1.0, 2.0]))
        assert np.all(th == 0)
        assert np.allclose(y, [0.3, 1.3, 2.3])


# ---------------------------------------------------------------------------
# apply_generator_L
# ---------------------------------------------------------------------------

class TestGeneratorL:
    def test_constant_function_annihilated(self, weibull3_model):
        for i in range(3):
            for y in (0.0, 0.5, 1.5):
                val = apply_generator_L(weibull3_model,
                                        lambda i_, y_: 4.2, i, y,
                                        dphi_dy=lambda i_, y_: 0.0)
                assert val == pytest.approx(0.0, abs=1e-12)

    def test_linear_age_function(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(WeibullHolding(2.0, 1.0),
                                     WeibullHolding(2.0, 1.0)))
        y = 0.7
        val = apply_generator_L(model, lambda i, yy: yy, 0, y,
                                dphi_dy=lambda i, yy: 1.0)
        # drift 1 minus hazard * (age lost on reset)
        assert val == pytest.approx(1.0 - hazard_rate(model, 0, y) * y,
                                    rel=1e-10)

    def test_pure_switch_term(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(ExponentialHolding(2.0),
                                     ExponentialHolding(2.0)))
        val = apply_generator_L(model, lambda i, y: 1.0 if i == 0 else 3.0,
                                0, 0.9, dphi_dy=lambda i, y: 0.0)
        assert val == pytest.approx(4.0, rel=1e-12)  # 2 * (3 - 1)

    def test_finite_difference_age_derivative(self):
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(ExponentialHolding(1.0),
                                     ExponentialHolding(1.0)))
        analytic = apply_generator_L(model, lambda i, y: np.sin(y), 0, 0.4,
                                     dphi_dy=lambda i, y: np.cos(y))
        fd = apply_generator_L(model, lambda i, y: np.sin(y), 0, 0.4)
        assert fd == pytest.approx(analytic, abs=1e-8)

    def test_exponential_holding_gives_age_independent_generator(self,
                                                                 exp2_model):
        def phi(i, y):
            return float(i + 1) * 1.7

        vals = [apply_generator_L(exp2_model, phi, 0, y,
                                  dphi_dy=lambda i, y: 0.0)
                for y in np.linspace(0.0, 3.0, 40)]
        assert np.ptp(vals) < 1e-9


# ---------------------------------------------------------------------------
# dynkin_statistics
# ---------------------------------------------------------------------------

def _dynkin_reference(model, paths, phi, dphi_dy, dt):
    """One generator call and one trapezoid sum per sojourn."""
    stats = np.empty(len(paths))
    for p, rp in enumerate(paths):
        seg_t = [0.0] + [t for t, _ in rp.events] + [rp.horizon]
        seg_s = [rp.origin.theta] + [s for _, s in rp.events]
        seg_y0 = [rp.origin.y] + [0.0] * len(rp.events)
        integral = 0.0
        for s0, s1, st_, ya in zip(seg_t[:-1], seg_t[1:], seg_s, seg_y0):
            n_sub = max(int(np.ceil((s1 - s0) / dt)), 1)
            ys = ya + np.linspace(0.0, s1 - s0, n_sub + 1)
            vals = apply_generator_L(model, phi, st_, ys, dphi_dy=dphi_dy)
            integral += np.trapezoid(vals, dx=(s1 - s0) / n_sub)
        th_T, y_T = rp.state_at(rp.horizon, side="right")
        stats[p] = (phi(th_T, y_T) - phi(rp.origin.theta, rp.origin.y)
                    - integral)
    return stats


class TestDynkinStatistics:
    @pytest.mark.parametrize("block", [1_000_000, 500])
    @pytest.mark.parametrize("analytic", [True, False])
    def test_blocks_match_per_sojourn_loop(self, monkeypatch, block,
                                           analytic):
        monkeypatch.setattr(semi_markov, "_DYNKIN_BLOCK", block)
        model = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            holding=(WeibullHolding(1.5, 0.5),
                                     ExponentialHolding(1.0)))
        paths = sample_regime_paths(model, RegimeState(1, 0.4), 2.0, 150, 59)

        def phi(i, y):
            return np.cos(y) + i

        def dphi(i, y):
            return -np.sin(y)

        dphi_dy = dphi if analytic else None
        got = dynkin_statistics(model, paths, phi, dphi_dy, 1e-2)
        want = _dynkin_reference(model, paths, phi, dphi_dy, 1e-2)
        assert got.tobytes() == want.tobytes()
