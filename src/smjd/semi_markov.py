"""Semi-Markov regime process: model, samplers, and joint generator.

A regime model is a finite state space, an embedded transition kernel with
zero diagonal, and one holding-time distribution per state.  The pair
(state, age-since-last-jump) is jointly Markov; its generator acts on
functions phi(state, age) as

    L phi(i, y) = d/dy phi(i, y)
                + hazard(i, y) * sum_{j != i} kernel[i, j] * (phi(j, 0) - phi(i, y))

where hazard(i, y) = f(y|i) / (1 - F(y|i)).

Three samplers are provided: a renewal-style direct sampler (draw a holding
time, then a target state), a thinning sampler that realizes the driving
Poisson-measure representation, and :func:`simulate_ctmc`, a plain
continuous-time Markov chain that cross-checks the exponential case.  The
direct sampler runs as one array pass over a whole ensemble, on blocks of
uniforms per path, and consumes exactly the 2E + 1 uniforms of a per-event
loop for a path with E events; its first block is sized from the model's
event rate, so most paths take one.  Thinning proposes against a hazard
majorant: for nondecreasing hazards (exponential, Weibull with shape >= 1)
a piecewise-constant one, the hazard at the end of each age window of fixed
length (Lewis & Shedler 1979); for custom distributions the declared global
bound.  The samplers agree in law; tests compare them with two-sample
statistics.

An ensemble is one :class:`RegimePaths` table (flat event arrays with
per-path offsets and origins), which the sampler returns and the noise
plan, the Dynkin statistics and the regime functionals read.  The direct
sampler may start each path of a table at its own (state, age) origin.

Categorical draws (next states, discrete marks) read a cumulative table
built once, as ``Generator.choice`` builds it, with one uniform per draw:
they are identical to ``Generator.choice``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (AgeBeyondSupport, BoundViolation, InfiniteHazard,
                     InvalidParameter)
from .rng import stream

__all__ = ["ExponentialHolding", "WeibullHolding", "CustomHolding",
           "RegimeModel", "RegimeState", "RegimePath", "RegimePaths",
           "hazard_rate", "regime_switch_sum", "intensity_matrix",
           "simulate_regime_direct", "sample_regime_paths",
           "simulate_regime_thinning", "simulate_ctmc", "apply_generator_L",
           "dynkin_statistics"]

_CDF_ONE = 1.0 - 1e-15
_INV_TOL = 1e-10  # absolute tolerance on the time axis for numeric inversion


# ---------------------------------------------------------------------------
# Holding-time distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialHolding:
    """Exponential holding time with rate > 0 (constant hazard)."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(
                f"exponential rate must be finite and > 0, got {self.rate}")

    def cdf(self, y):
        return -np.expm1(-self.rate * np.asarray(y, dtype=float))

    def hazard(self, y):
        return np.broadcast_to(self.rate, np.shape(y)).copy() if np.ndim(y) else self.rate

    def inverse_cdf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def hazard_bound(self, window: float) -> float:
        """Bound on the hazard over ages [0, window]: the constant rate."""
        return self.rate


@dataclass(frozen=True)
class WeibullHolding:
    """Weibull holding time with shape k > 0 and scale s > 0.

    Hazard is (k/s) (y/s)^(k-1): increasing for k > 1, constant for k = 1,
    unbounded at 0+ for k < 1 (thinning refuses k < 1).
    """

    shape: float
    scale: float

    def __post_init__(self):
        for name in ("shape", "scale"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise ValueError(f"Weibull {name} must be finite and > 0, got {v}")

    def cdf(self, y):
        z = np.asarray(y, dtype=float) / self.scale
        return -np.expm1(-np.power(z, self.shape))

    def hazard(self, y):
        return (self.shape / self.scale) * np.power(y / self.scale,
                                                    self.shape - 1)

    def inverse_cdf(self, u):
        return self.scale * np.power(-np.log1p(-u), 1.0 / self.shape)

    def hazard_bound(self, window: float) -> float:
        """Bound on the hazard over ages [0, window].

        For shape >= 1 the hazard is nondecreasing, so this is its value at
        ``window``: the supremum on [0, window] and on every [a, window].
        """
        if self.shape < 1.0:
            raise BoundViolation(
                f"Weibull shape {self.shape} < 1 has unbounded hazard at 0+; "
                "thinning is unavailable for this distribution"
            )
        return float(self.hazard(window)) if self.shape > 1.0 else 1.0 / self.scale


@dataclass(frozen=True)
class CustomHolding:
    """User-supplied density/cdf pair with a declared hazard majorant.

    The majorant must dominate pdf/(1-cdf) on [0, window]; this is
    spot-checked on a grid at model construction.  Defective distributions
    (cdf never reaching 1) are allowed and simply produce no exit.
    """

    pdf: Callable[[float], float]
    cdf: Callable[[float], float]
    hazard_bound_value: float
    window: float

    def hazard(self, y):
        y_arr = np.asarray(y, dtype=float)
        f = np.asarray(self.pdf(y_arr), dtype=float)
        F = np.asarray(self.cdf(y_arr), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return f / (1.0 - F)

    def inverse_cdf(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty_like(u_arr)
        for n, target in enumerate(u_arr):
            out[n] = self._invert_one(float(target))
        return out[0] if np.ndim(u) == 0 else out

    def _invert_one(self, target: float) -> float:
        if target <= 0.0:
            return 0.0
        hi = max(self.window, 1.0)
        while not float(self.cdf(hi)) >= target:
            hi *= 2.0
            if hi > 1e18:
                return np.inf  # defective: mass target never reached
        return brentq(lambda y: float(self.cdf(y)) - target, 0.0, hi,
                      xtol=_INV_TOL)

    def hazard_bound(self, window: float) -> float:
        """Bound on the hazard over ages [0, window]: the declared value,
        refused when ``window`` reaches past the declared window."""
        if window > self.window:
            raise BoundViolation(
                f"hazard bound declared on [0, {self.window}] but the "
                f"sampler needs [0, {window}]"
            )
        return self.hazard_bound_value


HoldingDistribution = ExponentialHolding | WeibullHolding | CustomHolding


# ---------------------------------------------------------------------------
# Model and path types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeModel:
    """Finite-state semi-Markov law: kernel plus per-state holding times.

    Invariants checked at construction: entries of ``kernel`` are finite and
    >= 0, its rows sum to 1 within 1e-12 with exact zero diagonal, the
    kernel is irreducible, and custom holding distributions respect their
    declared hazard bound on a spot grid.
    A single-state model (M=1, kernel [[0]]) is allowed as a degenerate case
    with no transitions.  ``kernel_cdf`` is the kernel's cumulative table.
    """

    kernel: np.ndarray
    holding: tuple[HoldingDistribution, ...]
    kernel_cdf: np.ndarray | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "holding", tuple(self.holding))
        M = kernel.shape[0]
        if kernel.shape != (M, M):
            raise InvalidParameter("kernel", "kernel must be square")
        if len(self.holding) != M:
            raise InvalidParameter("holding",
                                   "need one holding distribution per state")
        if np.any(np.diag(kernel) != 0.0):
            raise InvalidParameter("kernel", "kernel diagonal must be exactly 0")
        if not np.all((kernel >= 0) & (kernel < math.inf)):
            raise InvalidParameter("kernel",
                                   "kernel entries must be finite and >= 0")
        if M > 1:
            rows = kernel.sum(axis=1)
            if np.any(np.abs(rows - 1.0) > 1e-12):
                raise InvalidParameter(
                    "kernel", f"kernel rows must sum to 1, got {rows}")
            if not _irreducible(kernel):
                raise InvalidParameter("kernel", "kernel is not irreducible")
            object.__setattr__(self, "kernel_cdf", _cdf_table(kernel))
        for i, dist in enumerate(self.holding):
            if isinstance(dist, CustomHolding):
                _spot_check_bound(dist, i)

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @cached_property
    def event_rate(self) -> float:
        """Estimated regime events per unit time, 1 / sum_i pi_i med_i with
        pi the kernel's stationary law and med_i state i's median holding
        time; 0 for one state or a median that is not finite."""
        M = self.n_states
        if M == 1:
            return 0.0
        # pi is each row of q**(2**64) for the aperiodic q = (kernel + I) / 2,
        # squared by einsum: a first BLAS or LAPACK call grows RSS by ~1 MB
        q = (self.kernel + np.eye(M)) / 2.0
        for _ in range(64):
            q = np.einsum("ij,jk->ik", q, q)
            q /= q.sum(axis=1, keepdims=True)
        med = np.array([float(d.inverse_cdf(0.5)) for d in self.holding])
        sojourn = float(np.sum(q[0] * med))
        return 1.0 / sojourn if 0.0 < sojourn < math.inf else 0.0

    @cached_property
    def _custom_states(self) -> tuple:  # the states with a custom law
        return tuple(s for s, dist in enumerate(self.holding)
                     if isinstance(dist, CustomHolding))


def _irreducible(kernel: np.ndarray) -> bool:
    adj = kernel > 0
    reach = np.eye(kernel.shape[0], dtype=bool)
    for _ in range(kernel.shape[0]):
        reach = reach | (reach @ adj)
    return bool(reach.all())


def _spot_check_bound(dist: CustomHolding, state: int, n_grid: int = 257) -> None:
    ys = np.linspace(0.0, dist.window, n_grid)[:-1]
    F = np.asarray(dist.cdf(ys), dtype=float)
    f = np.asarray(dist.pdf(ys), dtype=float)
    if np.any(f < -1e-12):
        raise ValueError(f"state {state}: density takes negative values")
    if np.any(np.diff(F) < -1e-12) or abs(float(dist.cdf(0.0))) > 1e-12:
        raise ValueError(f"state {state}: cdf must be nondecreasing with F(0)=0")
    ok = F < _CDF_ONE
    haz = np.where(ok, f / np.maximum(1.0 - F, 1e-300), 0.0)
    if np.any(haz > dist.hazard_bound_value * (1 + 1e-9)):
        raise ValueError(
            f"state {state}: declared hazard bound {dist.hazard_bound_value} "
            f"is exceeded on [0, {dist.window}] (max {haz.max():.6g})"
        )


@dataclass(frozen=True)
class RegimeState:
    """Current regime index (0-based) and age since the last regime jump;
    an integral index is stored as int, a bool or any other raises
    ValueError, and so does an age that is not a finite number >= 0."""

    theta: int
    y: float = 0.0

    def __post_init__(self):
        theta = self.theta
        if (isinstance(theta, bool) or not isinstance(theta, numbers.Real)
                or not float(theta).is_integer()):
            raise ValueError(f"regime state {theta!r} is not an integer")
        object.__setattr__(self, "theta", int(theta))
        if not 0.0 <= self.y < math.inf:
            raise ValueError(f"age {self.y!r} is not a finite number >= 0")


@dataclass
class RegimePath:
    """Piecewise-constant regime trajectory on [0, horizon].

    ``events`` holds (jump time, new state) with strictly increasing times;
    the age grows at unit rate between events and resets to exactly 0 at
    each event.  ``_times`` and ``_states`` hold the same events as arrays.
    """

    events: list[tuple[float, int]]
    origin: RegimeState
    horizon: float
    _times: np.ndarray = field(init=False, repr=False, compare=False)
    _states: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.array([t for t, _ in self.events], dtype=float)
        chain = np.array([self.origin.theta, *(s for _, s in self.events)],
                         dtype=int)
        _check_events(times[None], chain[None], np.array([times.size]),
                      self.horizon)
        self._times, self._states = times, chain[1:]

    @classmethod
    def _from_arrays(cls, times: np.ndarray, states: np.ndarray,
                     origin: RegimeState, horizon: float) -> RegimePath:
        """A path on event arrays that :func:`_check_events` has passed."""
        path = cls.__new__(cls)
        path.events = list(zip(times.tolist(), states.tolist()))
        path.origin, path.horizon = origin, horizon
        path._times, path._states = times, states
        return path

    def state_at(self, t, side: str = "left"):
        """Regime index and age at time t (vectorized).

        side="left" returns (theta(t-), Y(t-)); side="right" the cadlag value.
        """
        t_arr = np.asarray(t, dtype=float)
        if self._times.size == 0:
            theta = np.full(t_arr.shape, self.origin.theta, dtype=int)
            age = t_arr + self.origin.y
        else:
            idx = np.searchsorted(self._times, t_arr,
                                  side="left" if side == "left" else "right")
            theta = np.where(idx == 0, self.origin.theta,
                             self._states[np.maximum(idx - 1, 0)])
            last = np.where(idx == 0, -self.origin.y,
                            self._times[np.maximum(idx - 1, 0)])
            age = t_arr - last
        if np.ndim(t) == 0:
            return int(theta), float(age)
        return theta.astype(int), age


def _check_events(times: np.ndarray, chain: np.ndarray, counts: np.ndarray,
                  horizon: float) -> None:
    """Refuse event tables with a bad row.

    Row p holds ``counts[p]`` events: times ``times[p, :counts[p]]`` and
    states ``chain[p, 1:counts[p] + 1]``, with ``chain[p, 0]`` the origin's
    state; entries past them are ignored.  The times must be strictly
    increasing in (0, horizon] and each state must differ from the one
    before it.
    """
    live = np.arange(times.shape[1]) < counts[:, None]
    bad = (times <= 0) | (times > horizon)
    bad[:, 1:] |= times[:, 1:] <= times[:, :-1]
    if (live & bad).any():
        raise ValueError("event times must be strictly increasing in (0, horizon]")
    if (live & (chain[:, 1:] == chain[:, :-1])).any():
        raise ValueError("consecutive states must differ")


@dataclass(frozen=True, eq=False)
class RegimePaths(Sequence):
    """Regime paths on one horizon in compressed rows: path p starts in
    state ``theta0[p]`` at age ``y0[p]`` and enters ``states[j]`` at
    ``times[j]`` for j in ``offsets[p]:offsets[p + 1]``.  ``paths[p]`` is
    path p as a :class:`RegimePath`, ``paths[a:b]`` a table on views."""

    offsets: np.ndarray  # (n + 1,) int, from 0
    times: np.ndarray    # (E,) float
    states: np.ndarray   # (E,) int
    theta0: np.ndarray   # (n,) int
    y0: np.ndarray       # (n,) float
    horizon: float

    @classmethod
    def of(cls, paths: Sequence[RegimePath]) -> RegimePaths:
        """A table as it is, or a sequence of paths stacked in order; an
        empty one has a NaN horizon, and mixed horizons raise ValueError."""
        if isinstance(paths, RegimePaths):
            return paths
        horizon = paths[0].horizon if len(paths) else math.nan
        for p, rp in enumerate(paths):
            if rp.horizon != horizon:
                raise ValueError(
                    f"regime paths 0 and {p} have different horizons, "
                    f"{horizon} and {rp.horizon}; a table has one")
        return cls(np.cumsum([0] + [rp._times.size for rp in paths]),
                   np.concatenate([np.empty(0)] + [rp._times for rp in paths]),
                   np.concatenate([np.empty(0, np.intp)]
                                  + [rp._states for rp in paths]),
                   np.array([rp.origin.theta for rp in paths], np.intp),
                   np.array([rp.origin.y for rp in paths], float), horizon)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, key):
        p = range(len(self))[key]
        if isinstance(p, range):
            if p.step != 1:
                raise ValueError("a slice of a regime-path table takes "
                                 "consecutive paths")
            a, b = p.start, p.start + len(p)
            lo, hi = self.offsets[a], self.offsets[b]
            return RegimePaths(self.offsets[a:b + 1] - lo, self.times[lo:hi],
                               self.states[lo:hi], self.theta0[a:b],
                               self.y0[a:b], self.horizon)
        lo, hi = self.offsets[p:p + 2]
        return RegimePath._from_arrays(
            self.times[lo:hi], self.states[lo:hi],
            RegimeState(int(self.theta0[p]), float(self.y0[p])), self.horizon)

    def _cadlag(self, t, col: np.ndarray):
        """``self[p].state_at(t[p], side="right")`` for every row p of the
        sorted (n, K) nodes ``t`` (or one (K,) row for all), where ``col[j]``
        is the first node at or after event j, K if there is none."""
        n, K = len(self), np.shape(t)[-1]
        row = np.repeat(np.arange(n), np.diff(self.offsets))
        on = col < K  # an event past the last node counts at none
        seen = np.bincount(row[on] * K + col[on], minlength=n * K).reshape(n, K)
        np.cumsum(seen, axis=1, out=seen)  # the row's events up to a node
        first = self.offsets[:-1]
        # slot first[p] + p is row p's origin (last event at -y0)
        seen += (first + np.arange(n))[:, None]
        y = np.take(np.insert(self.times, first, -self.y0), seen)
        np.subtract(t, y, out=y)
        return np.take(np.insert(self.states, first, self.theta0), seen), y


# ---------------------------------------------------------------------------
# Hazard, intensity, holding-time sampling
# ---------------------------------------------------------------------------

def hazard_rate(model: RegimeModel, i: int, y):
    """Instantaneous exit rate f(y|i)/(1 - F(y|i)) from state i at age y.

    Vectorizes over y.  Raises AgeBeyondSupport where F(y|i) >= 1 - 1e-15
    or the hazard is not finite and nonnegative, and InfiniteHazard at age 0
    of a Weibull state with shape < 1.
    """
    dist = model.holding[i]
    if (isinstance(dist, WeibullHolding) and dist.shape < 1.0
            and np.any(np.equal(y, 0.0))):
        raise InfiniteHazard(i, dist.shape)
    if type(y) is float and not isinstance(dist, CustomHolding):  # lean path
        h = float(dist.hazard(y))
        if math.isfinite(h) and h >= 0.0:
            return h
        raise AgeBeyondSupport(i, y)
    y_arr = np.asarray(y, dtype=float)
    if isinstance(dist, CustomHolding):
        F = np.asarray(dist.cdf(y_arr), dtype=float)
        if np.any(F >= _CDF_ONE):
            bad = y_arr if np.ndim(y) == 0 else y_arr[F >= _CDF_ONE].min()
            raise AgeBeyondSupport(i, float(bad))
    h = np.asarray(dist.hazard(y_arr), dtype=float)
    if np.any(~np.isfinite(h)) or np.any(h < 0):
        raise AgeBeyondSupport(i, float(np.max(y_arr)))
    return float(h) if np.ndim(y) == 0 else h


def regime_switch_sum(model: RegimeModel, i, y, change):
    """Hazard-weighted regime-switch term, elementwise over states and ages:

        hazard(i, y) * sum_{j != i} kernel[i, j] * change(j, sel)

    ``change(j, sel)`` is the change of a quantity on a switch to state j,
    such as phi(j, 0) - phi(i, y), at the points that index ``sel`` picks
    out of arrays shaped like the query: the boolean mask of the points with
    kernel[i, j] > 0, or ``...`` (every point) when ``i`` is one state.
    ``change`` may carry leading axes in front of the points, the same for
    every j, to sum several quantities in one pass; the term keeps them.
    The term appears in the (state, age) generator, in the generator of
    (t, X, theta, Y) and in the regime-jump compensators of the adjoints.
    """
    one = np.ndim(i) == 0  # one kernel entry per j, one hazard call
    i, y = ((int(i), np.asarray(y, dtype=float)) if one else
            np.broadcast_arrays(np.asarray(i, dtype=int),
                                np.asarray(y, dtype=float)))
    acc = None
    for j in range(model.n_states):
        w = model.kernel[i, j]
        mask = w != 0.0
        if mask.any():
            sel = ... if one else mask
            term = w[sel] * change(j, sel)
            lead = term.shape[:term.ndim - (y.ndim if one else 1)]
            if acc is None:  # change's leading axes
                acc = np.zeros(lead + y.shape)
            rows = acc.reshape((-1,) + y.shape)  # leading axes flat
            parts = term.reshape((-1,) + term.shape[len(lead):])
            for r, part in enumerate(parts):  # a mask indexes one row far
                rows[r, ...][sel] += part     # faster than acc[..., mask]
    if acc is None:  # no term (one state, or no point): change's axes
        acc = np.zeros(np.shape(change(0, np.zeros(y.shape, dtype=bool)))[:-1]
                       + y.shape)
    return acc * (hazard_rate(model, i, y) if one else _per_state(
        model.n_states, i, lambda s, mask: hazard_rate(model, s, y[mask])))


def _per_state(n_states: int, i: np.ndarray, value) -> np.ndarray:
    """Array shaped like the regimes ``i`` holding ``value(s, mask)`` at the
    points ``mask`` where i == s; one call per state present, in order."""
    out = np.empty(np.shape(i))
    for s in range(n_states):
        mask = i == s
        if mask.any():
            out[mask] = value(s, mask)
    return out


def intensity_matrix(model: RegimeModel, y: float) -> np.ndarray:
    """Age-dependent intensity matrix: off-diagonals kernel[i,j]*hazard(i,y),
    diagonal chosen so every row sums to zero."""
    M = model.n_states
    Q = np.zeros((M, M))
    for i in range(M):
        h = hazard_rate(model, i, y)
        Q[i, :] = model.kernel[i, :] * h
        Q[i, i] = -Q[i].sum()
    return Q


def _age_cdf(model: RegimeModel, i: int, age: float) -> float:
    """F(age | i), refused with AgeBeyondSupport where it reaches 1."""
    F_age = float(np.asarray(model.holding[i].cdf(age), dtype=float))
    if F_age >= _CDF_ONE:
        raise AgeBeyondSupport(i, age)
    return F_age


def _holding_times(model: RegimeModel, i: np.ndarray, u: np.ndarray,
                   age=None, F_age=None, skip: tuple = ()) -> np.ndarray:
    """Holding times of the states ``i`` for the uniforms ``u`` (same shape):
    one inverse-cdf call per state (a root find per element for a custom
    law), NaN for the states in ``skip``.  With the arrays ``age`` and
    ``F_age`` = F(age | i), the residual law (F(age+t) - F(age)) / (1 -
    F(age)) is sampled."""
    def invert(s, mask):
        if s in skip:
            return np.nan
        dist = model.holding[s]
        if age is None:
            return dist.inverse_cdf(u[mask])
        F = F_age[mask]
        return dist.inverse_cdf(F + u[mask] * (1.0 - F)) - age[mask]
    return _per_state(model.n_states, i, invert)


def _cdf_table(p: np.ndarray) -> np.ndarray:
    """Cumulative table of the probability rows ``p``, built as
    ``Generator.choice`` builds it, so ``searchsorted(table, u, "right")``
    returns what ``choice(len(p), p=p)`` returns for the uniform u."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _next_state(kernel_cdf: np.ndarray, i: int,
                rng: np.random.Generator) -> int:
    """Target state of a switch out of i: equals ``rng.choice(M,
    p=kernel[i])``, since ``uniform()`` returns the double ``random()``
    would; thinning's one ``random()`` per proposal is its acceptance test."""
    return int(kernel_cdf[i].searchsorted(rng.uniform(), side="right"))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

_FIRST_BLOCK = 8  # floor on the sojourns per path of the first block
_BLOCK_SOJOURNS = 1 << 18  # cap on the sojourns of one block
_BLOCK_MARGIN = 1.25  # a block asks for this many times the sojourns expected


def _check_horizon(horizon: float) -> None:
    """Refuse, before any draw, a horizon that is not finite and > 0."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")


def _check_origin(origin: RegimeState, M: int) -> None:
    if not 0 <= origin.theta < M:
        raise ValueError(f"origin state {origin.theta} is outside 0..{M - 1} "
                         f"of a {M}-state model")


def _direct_paths(model: RegimeModel, theta0: np.ndarray, y0: np.ndarray,
                  horizon: float, draw) -> RegimePaths:
    """Direct-sampler paths, drawn as one array pass: path p starts in state
    ``theta0[p]`` at age ``y0[p]``.

    ``draw(rows, k)`` returns the next 2k uniforms of each path in ``rows``
    as a (len(rows), 2k) table, in the order 2k ``random()`` calls would
    return them.  Column 2j drives the holding time of a block's sojourn j
    and column 2j + 1 the kernel draw that ends it, so a path with E events
    reads 2E + 1 uniforms, as the renewal loop does (a single-state model
    reads none).

    A block is sampled in three array steps over all its paths:

    - the embedded chain.  The state after column j, entered from state s,
      is the count of ``kernel_cdf[s] <= u``, which is what
      ``Generator.choice`` draws.  These one-column maps are composed into
      prefixes by doubling, log2(k) gathers, and the prefixes are applied
      to each path's entry state;
    - the holding times, one inverse-cdf call per state (the residual law
      for the first sojourn from an origin age above 0).  A custom law is a
      root find per uniform, so it inverts one column at a time, on the
      paths not yet cut at the horizon;
    - the event times: a cumulative sum along each row, sequential like the
      loop's ``t += tau``, cut at the horizon or at the first non-finite
      time.

    The first block holds the sojourns the model's event rate puts in the
    horizon, within [``_FIRST_BLOCK``, cap]; only paths that reach the end
    of a block before the cut draw another, sized from their pace so far.
    Block sizes set how many uniforms are drawn ahead, never which ones a
    path uses.  The callers check the origin states; the first origin age
    past its law's support raises AgeBeyondSupport, before any draw.
    """
    _check_horizon(horizon)
    M, n = model.n_states, len(theta0)
    rows = np.arange(n if M > 1 else 0)
    old = np.flatnonzero(y0 > 0.0) if rows.size else rows  # aged origins
    if old.size:  # F(age) once per distinct (state, age), in row order
        F = cache(lambda i, age: _age_cdf(model, i, age))
        F_old = np.array([F(i, age) for i, age in zip(theta0[old].tolist(),
                                                      y0[old].tolist())])
    lazy = model._custom_states
    if rows.size:  # the sojourns the event rate puts in the horizon
        k = max(_FIRST_BLOCK, math.ceil(min(
            _BLOCK_MARGIN * horizon * model.event_rate, _BLOCK_SOJOURNS // n)))
    state, t = theta0, 0.0
    counts = np.zeros(n, dtype=np.intp)
    blocks, width = [], 0
    while rows.size:
        u = draw(rows, k)
        odd = u[:, 1::2]
        # succ[p, j, s]: state after column j of path p, entered from s
        succ = np.empty((rows.size, k, M), dtype=np.intp)
        for s, cdf in enumerate(model.kernel_cdf):
            succ[..., s] = cdf.searchsorted(odd, side="right")
        flat, at = succ.reshape(-1), np.arange(0, succ.size, M).reshape(
            rows.size, k, 1)  # flat index of succ[p, j, 0]
        d = 1
        while d < k:  # succ[:, j] becomes the map across columns 0..j
            succ[:, d:] = flat[at[:, d:] + succ[:, :-d]]
            d *= 2
        chain = np.empty((rows.size, k + 1), dtype=np.intp)
        chain[:, 0] = state
        chain[:, 1:] = flat[at[..., 0] + chain[:, :1]]
        tau = _holding_times(model, chain[:, :k], u[:, ::2], skip=lazy)
        if width == 0 and old.size:
            tau[old, 0] = _holding_times(model, chain[old, 0], u[old, 0],
                                         y0[old], F_old)
        if lazy:  # NaN marks a custom sojourn still to invert
            start = np.zeros(rows.size) + t  # each path's time so far
            for j in range(k):
                due = np.flatnonzero(np.isnan(tau[:, j]) & (start < horizon))
                tau[due, j] = _holding_times(model, chain[due, j],
                                             u[due, 2 * j])
                start = start + tau[:, j]
        tau[:, 0] += t
        times = tau.cumsum(axis=1)
        cut = ~(times < horizon)  # NaN and inf included; none is -inf
        ended = cut.any(axis=1)
        counts[rows] += np.where(ended, cut.argmax(axis=1), k)
        blocks.append((rows, width, times, chain))
        width += k
        if ended.all():
            break
        rows, state, t = rows[~ended], chain[~ended, k], times[~ended, -1]
        with np.errstate(divide="ignore"):  # next block: from the pace so far
            pace = float(np.mean((horizon - t) / t)) * width
        cap = max(_BLOCK_SOJOURNS // rows.size, 1)
        k = int(min(max(2 * k, _BLOCK_MARGIN * pace), cap))
    if len(blocks) == 1 and blocks[0][0].size == n:  # one block: no copy
        times, chain = blocks[0][2:]
    else:
        times = np.zeros((n, width))
        chain = np.repeat(theta0[:, None], width + 1, axis=1)
        for r, c, tt, ch in blocks:
            times[r, c:c + tt.shape[1]] = tt
            chain[r, c + 1:c + tt.shape[1] + 1] = ch[:, 1:]
    _check_events(times, chain, counts, horizon)
    live = np.arange(width) < counts[:, None]
    return RegimePaths(np.concatenate(([0], counts.cumsum())), times[live],
                       chain[:, 1:][live], theta0, y0, horizon)


def _stream_draw(rngs: Sequence[np.random.Generator]):
    """The ``draw`` of :func:`_direct_paths` in which path p reads its
    uniforms from ``rngs[p]``."""
    def draw(rows, k):
        u = np.empty((rows.size, 2 * k))
        for row, p in zip(u, rows.tolist()):
            rngs[p].random(out=row)
        return u
    return draw


def simulate_regime_direct(model: RegimeModel, origin: RegimeState,
                           horizon: float, rng: np.random.Generator) -> RegimePath:
    """Renewal-style sampler: alternate holding-time and kernel draws.

    The first holding time is drawn from the age-conditioned residual law
    when origin.y > 0.  ``rng`` is left exactly where a loop of
    ``random()`` calls would leave it: after 2E + 1 uniforms for a path
    with E events, none for a single-state model.  The path is sampled by
    :func:`_direct_paths` from blocks of uniforms; the state of ``rng`` is
    then restored and the used count drawn again.
    """
    _check_origin(origin, model.n_states)
    bits = rng.bit_generator
    start = bits.state
    paths = _direct_paths(model, np.array([origin.theta]),
                          np.array([origin.y], dtype=float), horizon,
                          lambda rows, k: rng.random((1, 2 * k)))
    bits.state = start
    if model.n_states > 1:
        rng.random(2 * paths.times.size + 1)
    return RegimePath._from_arrays(paths.times, paths.states, origin, horizon)


def sample_regime_paths(model: RegimeModel, origin: RegimeState,
                        horizon: float, n: int, seed: int,
                        tag: str = "regime") -> RegimePaths:
    """``n`` direct-sampler paths; path p draws from stream (seed, tag, p).

    Path p is the one :func:`simulate_regime_direct` draws from that
    stream; all ``n`` are sampled into one table by :func:`_direct_paths`.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _check_origin(origin, model.n_states)
    return _direct_paths(model, np.full(n, origin.theta, np.intp),
                         np.full(n, origin.y, float), horizon,
                         _stream_draw([stream(seed, tag, p)
                                       for p in range(n)]))


def _majorant_step(dist: HoldingDistribution) -> float:
    """Length of the age windows of the piecewise-constant majorant.

    Only a Weibull hazard with shape > 1 grows with age; its scale sets the
    window.  Every other law keeps one bound for the whole run (inf).
    """
    if isinstance(dist, WeibullHolding) and dist.shape > 1.0:
        return dist.scale
    return np.inf


def simulate_regime_thinning(model: RegimeModel, origin: RegimeState,
                             horizon: float, rng: np.random.Generator) -> RegimePath:
    """Poisson-measure sampler: propose at a piecewise-constant hazard
    majorant, accept by the hazard ratio, then pick the target state
    proportionally to the kernel row.

    On the age window [a, a + step] of a nondecreasing hazard (Weibull with
    shape > 1, ``step`` its scale) proposals come at rate
    ``hazard_bound(a + step)``, the supremum of the hazard on the window.  A
    proposal past the window's end is discarded and proposing restarts at
    the end, which is exact because exponential waits are memoryless; an
    acceptance resets the age to 0 and opens a new window.  Exponential and
    shape-1 Weibull laws propose at their constant hazard, custom laws at
    their declared bound, each over the whole run.

    Every law's bound on [0, horizon + origin.y] is requested up front, so a
    Weibull shape < 1 or a custom window shorter than that raises
    BoundViolation before any draw.  Distributionally identical to the direct
    sampler; raises BoundViolation if a realized hazard exceeds the bound in
    force.
    """
    _check_horizon(horizon)
    _check_origin(origin, model.n_states)
    events: list[tuple[float, int]] = []
    t, i = 0.0, origin.theta
    if model.n_states == 1:
        return RegimePath(events, origin, horizon)
    window = horizon + origin.y
    bounds = [dist.hazard_bound(window) for dist in model.holding]
    steps = [_majorant_step(dist) for dist in model.holding]
    last = -origin.y  # time of the last event; the origin carries age origin.y
    end = -np.inf  # end of the current majorant window
    while True:
        if t >= end:  # open a window at the current age
            end = t + steps[i]
            bound = (bounds[i] if math.isinf(end)
                     else model.holding[i].hazard_bound(end - last))
        if bound <= 0.0:
            break
        cand = t + rng.exponential(1.0 / bound)
        if cand > end:  # no proposal on the window: restart at its end
            t = end
            if t >= horizon:
                break
            continue
        t = cand
        if t >= horizon:
            break
        age = t - last
        h = hazard_rate(model, i, age)
        if h > bound * (1 + 1e-12):
            raise BoundViolation(
                f"hazard {h:.6g} exceeds declared bound {bound:.6g} in state "
                f"{i} at age {age:.6g}"
            )
        if rng.random() < h / bound:
            i = _next_state(model.kernel_cdf, i, rng)
            events.append((t, i))
            last, end = t, -np.inf
    return RegimePath(events, origin, horizon)


def simulate_ctmc(rates: Sequence[float], kernel: np.ndarray, origin: RegimeState,
                  horizon: float, rng: np.random.Generator) -> RegimePath:
    """Plain continuous-time Markov chain sampler (exponential waits).

    Independent code path used to cross-check the semi-Markov machinery in
    the exponential-holding special case.  ``rates`` other than M finite
    positive numbers raise ValueError naming them, before any draw.
    """
    _check_horizon(horizon)
    events: list[tuple[float, int]] = []
    kernel = np.asarray(kernel, dtype=float)
    M = kernel.shape[0]
    _check_origin(origin, M)
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (M,):
        raise ValueError(f"rates: {rates.size} given for a {M}-state kernel")
    bad = np.flatnonzero(~(np.isfinite(rates) & (rates > 0)))
    if bad.size:
        raise ValueError(f"rates[{bad[0]}] = {rates[bad[0]]} must be finite "
                         "and > 0")
    t, i = 0.0, origin.theta
    if M == 1:
        return RegimePath(events, origin, horizon)
    kernel_cdf = _cdf_table(kernel)
    while True:
        t += rng.exponential(1.0 / rates[i])
        if t >= horizon:
            break
        i = _next_state(kernel_cdf, i, rng)
        events.append((t, i))
    return RegimePath(events, origin, horizon)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

_L_FD_STEP = 1e-6  # age step of apply_generator_L's central difference
_DYNKIN_BLOCK = 1_000_000  # age nodes per block of dynkin_statistics


def apply_generator_L(model: RegimeModel, phi: Callable[[int, float], float],
                      i: int, y,
                      dphi_dy: Callable[[int, float], float] | None = None):
    """Generator of the joint (state, age) process applied to phi at (i, y).

    L phi = d phi/dy + hazard(i,y) * sum_{j != i} kernel[i,j] (phi(j,0) - phi(i,y))

    The age derivative is taken from ``dphi_dy`` when supplied, else by a
    central difference with step ``_L_FD_STEP``.  Vectorizes over y when phi
    broadcasts.
    """
    y_arr = np.asarray(y, dtype=float)
    if dphi_dy is not None:
        dval = dphi_dy(i, y_arr)
    else:
        h = _L_FD_STEP
        step = np.where(y_arr >= h, h, y_arr)  # stay inside y >= 0
        lo = np.asarray(phi(i, y_arr - step), dtype=float)
        hi = np.asarray(phi(i, y_arr + h), dtype=float)
        dval = (hi - lo) / (h + step)
    here = np.broadcast_to(np.asarray(phi(i, y_arr), dtype=float), y_arr.shape)
    out = np.asarray(dval, dtype=float) + regime_switch_sum(
        model, i, y_arr, lambda j, sel: phi(j, 0.0) - here[sel])
    return float(out) if np.ndim(y) == 0 else out


def dynkin_statistics(model: RegimeModel, paths: Sequence[RegimePath],
                      phi: Callable[[int, float], float],
                      dphi_dy: Callable[[int, float], float] | None,
                      dt: float) -> np.ndarray:
    """Per-path Dynkin statistic phi(end) - phi(start) - int_0^T L phi ds.

    Along each sojourn the age runs at unit rate from its entry value (the
    origin age, then 0 after every switch), and L phi is integrated by the
    trapezoid rule on ceil(length / dt) equal steps.  The statistic has mean
    zero up to that quadrature error.  Blocks of consecutive paths with
    about ``_DYNKIN_BLOCK`` age nodes make one L phi call per state.
    """
    paths = RegimePaths.of(paths)
    nodes = np.cumsum(paths.horizon / dt + 2 * np.diff(paths.offsets) + 2)
    starts = np.flatnonzero(np.diff(nodes // _DYNKIN_BLOCK, prepend=-1))
    stats = np.empty(len(paths))
    for a, b in zip(starts.tolist(), starts[1:].tolist() + [len(paths)]):
        stats[a:b] = _dynkin_block(model, paths[a:b], phi, dphi_dy, dt)
    return stats


def _dynkin_block(model, paths: RegimePaths, phi, dphi_dy, dt) -> np.ndarray:
    """Dynkin statistics of a block of paths, node for node and sum for sum
    as with one np.linspace and one np.trapezoid per sojourn."""
    n, starts = len(paths), paths.offsets[:-1]
    first = starts + np.arange(n)  # sojourn index of each path's first
    states = np.insert(paths.states, starts, paths.theta0)
    length = (np.insert(paths.times, paths.offsets[1:], paths.horizon)
              - np.insert(paths.times, starts, 0.0))
    y0 = np.insert(np.zeros(paths.times.size), starts, paths.y0)
    n_sub = np.maximum(np.ceil(length / dt).astype(int), 1)
    counts, step = n_sub + 1, length / n_sub
    last = np.cumsum(counts) - 1  # last node of each sojourn
    ages = ((np.arange(last[-1] + 1) - np.repeat(last - n_sub, counts))
            * np.repeat(step, counts))
    ages[last] = length
    ages += np.repeat(y0, counts)
    node_state = np.repeat(states, counts)
    L = _per_state(model.n_states, node_state, lambda s, mask: (
        apply_generator_L(model, phi, s, ages[mask], dphi_dy=dphi_dy)))
    # trapezoid terms, without the pairs that straddle two sojourns
    terms = np.delete(np.repeat(step, counts)[1:] * (L[1:] + L[:-1]) / 2.0,
                      last[:-1])
    ends = np.cumsum(n_sub)
    out = np.empty(n)
    for p, (a, b) in enumerate(zip(first, np.append(first[1:], length.size))):
        integral = 0.0
        for end, m in zip(ends[a:b], n_sub[a:b]):
            integral += terms[end - m:end].sum()
        out[p] = (phi(int(states[b - 1]), float(ages[last[b - 1]]))
                  - phi(int(paths.theta0[p]), float(paths.y0[p])) - integral)
    return out
