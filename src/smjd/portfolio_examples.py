"""Closed-form controls and adjoint processes for two portfolio problems.

Two worked problems drive the verification experiments:

* Risk-sensitive growth: maximize E[X(T)^gamma / gamma] for wealth
  dX = (r X + u sigma mbar) dt + u sigma dW under regime switching, with
  mbar the per-regime market price of risk.  The optimal rule is the
  fractional Merton allocation u = mbar / ((1 - gamma) sigma) * x, and the
  candidate adjoint is p = X^{gamma-1} * (regime functional), where the
  regime functional E[int_t^T a(theta) ds] or E[exp int_t^T a(theta) ds]
  is taken along the (state, age) process.

* Quadratic hedging: minimize E[(X(T) - d)^2] for wealth with the same
  diffusion part plus multiplicative asset jumps u * g(i, mark).  The
  optimal rule is linear, u = (Lam_t / Lam) (x + psi/phi), with phi, psi
  exponential Feynman-Kac functionals of the regime path.  They take one
  Monte Carlo pass over the regime paths: exact over the sojourns when the
  slope Lam_t / Lam is free of phi, and a backward sweep over the t grid
  when phi enters Lam, each column solving a scalar fixed point for its
  own phi.

Every phi/psi builder calls one of two estimators of these functionals:
Monte Carlo over regime paths (``_fk_moments``), for any holding law, in
``rs_phi_functional`` and ``ql_phi_psi`` (the CLI's builders), which read
one table of paths from every (regime, age) start node of the grid,
sampled in one direct-sampler pass (``_start_node_paths``); and
powers of one step exponential on a uniform t grid (``_expm_functional``),
exact and age-free but for exponential holding times only, in
``rs_phi_markov`` and ``ql_phi_psi_markov``, the oracles the tests check
Monte Carlo against.

Both adjoints are emitted in the step-indexed layout consumed by
``adjoint_residual``, including jump integrands evaluated at realized
events and their compensator rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import (DegenerateVol, FixedPointDiverged, InvalidParameter,
                     SingularDenominator, SingularPhi)
from .jump_diffusion import (ControlledDynamics, ControlPolicy, Ensemble,
                             MarkMeasure, ObjectiveSpec)
from .maximum_principle import AdjointPath
from .rng import stream
from .semi_markov import (ExponentialHolding, RegimeModel, RegimePath,
                          RegimePaths, _direct_paths, _per_state,
                          _stream_draw, intensity_matrix, regime_switch_sum)

__all__ = [
    "RiskSensitiveModel", "QuadraticLossModel", "RegimeFunctional",
    "rs_optimal_control", "rs_policy", "rs_dynamics", "rs_objective",
    "rs_phi_functional", "rs_phi_markov", "rs_adjoint",
    "rs_u_coefficient", "ql_phi_psi_markov",
    "ql_lambda_factors", "ql_phi_psi", "ql_optimal_control", "ql_policy",
    "ql_dynamics", "ql_objective", "ql_adjoint", "ql_u_coefficient",
]

_SINGULAR_TOL = 1e-12


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskSensitiveModel:
    """Per-regime market constants for the risk-sensitive growth problem.

    ``r``, ``mu``, ``sigma`` are arrays indexed by regime; coefficients are
    time-constant.  The market price of risk (mu - r) / sigma must be
    nonnegative and sigma bounded away from zero.
    """

    r: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    gamma: float
    horizon: float

    def __post_init__(self):
        _check_market(self, ("r", "mu", "sigma"))
        if self.gamma == 1.0 or self.gamma <= 0.0:
            raise InvalidParameter("gamma", "gamma must lie in (0,1) or (1,inf)")

    @property
    def mbar(self) -> np.ndarray:
        return (self.mu - self.r) / self.sigma

    @property
    def n_regimes(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class QuadraticLossModel:
    """Per-regime market constants for quadratic hedging toward target d.

    The asset-jump coefficient ``g(i, marks)`` is independent of the wealth
    level by construction (its signature has no state argument); the linear
    adjoint ansatz p = phi X + psi only closes in that case.  ``marks``
    carries the jump rate and mark distribution; both may be None for the
    no-jump problem.  ``lambda_variant`` selects the factors of the rule
    slope Lam_t / Lam, tabulated once per model in :attr:`slope_terms`:

    * "literal": Lam_t = -mbar sigma + int g dpi, Lam = sigma^2
      + phi int g^2 dpi (phi enters the denominator);
    * "consistent": Lam_t = -(sigma mbar + rate int g dpi), Lam = sigma^2
      + rate int g^2 dpi, the first-order condition of the Hamiltonian for
      these dynamics (phi cancels): uncompensated jumps add rate int g dpi
      of drift per unit of control, so the jump moments enter with the
      rate and the sign of the diffusion excess return.
    """

    r: np.ndarray
    mbar: np.ndarray
    sigma: np.ndarray
    d: float
    horizon: float
    marks: MarkMeasure | None = None
    jump_coeff: Callable[[int, np.ndarray], np.ndarray] | None = None
    lambda_variant: str = "literal"

    def __post_init__(self):
        _check_market(self, ("r", "mbar", "sigma"))
        if (self.marks is None) != (self.jump_coeff is None):
            raise ValueError("marks and jump_coeff go together")
        if self.lambda_variant not in ("literal", "consistent"):
            raise ValueError("lambda_variant must be 'literal' or 'consistent'")
        if self.marks is not None:
            gam = (self.marks.atoms if self.marks.discrete
                   else np.linspace(*self.marks.support, 257))
            if np.any(1.0 + self.jump_sizes(np.arange(len(self.r))[:, None],
                                            gam) <= 0.0):
                raise InvalidParameter(
                    "jump_coeff", "jump coefficient must satisfy 1 + g > 0 "
                    "(wealth positivity)")

    @property
    def n_regimes(self) -> int:
        return len(self.r)

    def jump_sizes(self, i, gam) -> np.ndarray:
        """g(i, gamma) elementwise over broadcast regimes and marks, with
        one ``jump_coeff`` call per regime present."""
        i, gam = np.broadcast_arrays(np.asarray(i, dtype=int),
                                     np.asarray(gam, dtype=float))
        return _per_state(self.n_regimes, i,
                          lambda s, mask: self.jump_coeff(s, gam[mask]))

    @cached_property
    def jump_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-regime pi-moments (int g(i, .) dpi, int g(i, .)^2 dpi), built
        once per model; zero without jumps."""
        if self.marks is None:
            return np.zeros(self.n_regimes), np.zeros(self.n_regimes)
        return tuple(np.array([self.marks.integrate(
            lambda gam: np.asarray(self.jump_coeff(i, gam), dtype=float) ** k)
            for i in range(self.n_regimes)]) for k in (1, 2))

    @cached_property
    def gain(self) -> np.ndarray:
        """Per-regime drift gain per unit of control, sigma mbar + rate
        int g dpi (rate 0 without jumps)."""
        rate = self.marks.rate if self.marks is not None else 0.0
        return self.sigma * self.mbar + rate * self.jump_moments[0]

    @cached_property
    def slope_terms(self) -> tuple:
        """Per-regime (Lam_t, Lam without phi, phi's coefficient in Lam),
        built once per model; the coefficient is None unless phi enters Lam
        (the literal variant with jumps)."""
        m1, m2 = self.jump_moments
        s2 = self.sigma ** 2
        if self.lambda_variant == "consistent":
            rate = self.marks.rate if self.marks is not None else 0.0
            return -self.gain, s2 + rate * m2, None
        return (-(self.mbar * self.sigma) + m1, s2,
                None if self.marks is None else m2)


def _check_market(model, names: tuple):
    """Coerce a market model's per-regime arrays ``names`` (r, the source
    of mbar, sigma) and refuse unequal lengths, sigma near 0, mbar < 0 and
    a nonpositive horizon."""
    for name in names:
        object.__setattr__(model, name, np.atleast_1d(
            np.asarray(getattr(model, name), dtype=float)))
    if len({len(getattr(model, name)) for name in names}) != 1:
        raise ValueError(f"{', '.join(names)} must share one length per regime")
    if np.any(np.abs(model.sigma) < _SINGULAR_TOL):
        raise DegenerateVol("sigma must be bounded away from zero")
    if np.any(model.mbar < -1e-12):
        raise InvalidParameter(names[1],
                               "market price of risk must be nonnegative")
    if not model.horizon > 0:
        raise InvalidParameter("horizon", "horizon must be positive")


def _wealth_dynamics(model, jump=None) -> ControlledDynamics:
    """dX = (r X + u sigma mbar) dt + u sigma dW (+ the asset jump ``jump``
    on ``model.marks``), the wealth of both worked problems."""
    r, s, m = model.r, model.sigma, model.mbar
    return ControlledDynamics(
        dim=1,
        drift=lambda t, x, u, i: r[i] * x + u * s[i] * m[i],
        vol=lambda t, x, u, i: u * s[i],
        jump=jump,
        marks=None if jump is None else model.marks,
        drift_dx=lambda t, x, u, i: r[i] * np.ones_like(x),
        vol_dx=lambda t, x, u, i: np.zeros_like(x),
        jump_dx=(None if jump is None else
                 lambda t, x, u, i, gam: np.zeros_like(np.asarray(x, dtype=float))),
    )


# ---------------------------------------------------------------------------
# Regime functional on a (t, regime, age) grid
# ---------------------------------------------------------------------------

@dataclass
class RegimeFunctional:
    """Scalar functional of (t, regime, age) with bilinear interpolation.

    ``values`` has shape (..., n_t, M, n_y), leading axes stacking
    functionals one query reads together; ``se`` is the Monte Carlo SE per
    node and ``n_paths`` the sample size.  A call clamps t and y to the
    grid, finds each query's lower node and weight on both axes (the node
    gaps are built once per functional) and sums the four corners at
    regime i.  It returns the leading axes, then the broadcast (t, i, y)
    shape, at least 1-D.
    """

    t_nodes: np.ndarray
    y_nodes: np.ndarray
    values: np.ndarray
    se: np.ndarray
    n_paths: int

    def __call__(self, t, i, y):
        parts = []
        for (nodes, inner, gaps), q in zip(self._axes, (t, y)):
            # np.atleast_1d(np.asarray(q, dtype=float)) in one C call
            q = np.array(q, dtype=float, copy=None, ndmin=1)
            if len(nodes) == 1:
                w = np.zeros(q.shape)
                parts.append((np.zeros(q.shape, dtype=int), 1 - w, w))
                continue
            # np.clip without its Python-level dispatch; this argument order
            # gives np.clip's result bit for bit, signed zeros and NaN included
            qc = np.minimum(nodes[-1], np.maximum(nodes[0], q))
            # interior nodes at or below qc: the lower index, in 0..len - 2
            idx = inner.searchsorted(qc, side="right")
            w = (qc - nodes[idx]) / gaps[idx]
            parts.append((idx, 1 - w, w))
        (it, wt0, wt1), (iy, wy0, wy1) = parts
        i = np.array(i, dtype=int, copy=None, ndmin=1)
        *lead, n_t, M, n_y = self.values.shape
        if i.size and (i.min() < 0 or i.max() >= M):
            raise IndexError(f"regime index outside 0..{M - 1}")
        # flat positions of the lower corners and the steps to the upper t
        # and y neighbours (0 on a one-node axis)
        v = self.values.reshape(*lead, -1)
        dt = M * n_y * (n_t > 1)
        k00 = it * (M * n_y) + iy + i * n_y
        k01 = k00 + int(n_y > 1)
        return (wt0 * wy0 * v.take(k00, axis=-1)
                + wt1 * wy0 * v.take(k00 + dt, axis=-1)
                + wt0 * wy1 * v.take(k01, axis=-1)
                + wt1 * wy1 * v.take(k01 + dt, axis=-1))

    @cached_property
    def _axes(self) -> tuple:
        """(nodes, interior nodes, node gaps) of the t and of the y axis."""
        return tuple((nodes, nodes[1:-1], np.diff(nodes))
                     for nodes in (self.t_nodes, self.y_nodes))


# ---------------------------------------------------------------------------
# Regime functionals: the Monte Carlo and matrix-exponential estimators
# ---------------------------------------------------------------------------

def _sojourn_cumulative(paths: Sequence[RegimePath], c_states: np.ndarray,
                        taus: np.ndarray) -> np.ndarray:
    """cum[..., p, a] = integral of c(theta_s) over s in [0, tau_a], exactly.

    ``c_states`` is indexed by regime along its last axis; leading axes
    stack several rates, integrated in the same pass over the sojourns.
    The integrand is piecewise constant in the regime, so the integral is a
    sum of sojourn overlaps; no time-discretization error.  The sum runs
    over the sojourn index, all paths at once; a path with fewer sojourns
    is padded with empty ones at its horizon, which add an exact 0.0 for
    finite rates.
    """
    paths = RegimePaths.of(paths)
    n, n_ev = len(paths), np.diff(paths.offsets)
    n_soj = int(n_ev.max(initial=0)) + 1
    live = np.arange(n_soj) <= n_ev[:, None]  # each path's own sojourns
    bounds = np.full((n, n_soj + 1), paths.horizon)
    bounds[:, :-1][live] = np.insert(paths.times, paths.offsets[:-1], 0.0)
    states = np.zeros((n, n_soj), dtype=int)
    states[live] = np.insert(paths.states, paths.offsets[:-1], paths.theta0)
    cum = np.zeros(np.shape(c_states)[:-1] + (n, len(taus)))
    for k in range(n_soj):
        s0, s1 = bounds[:, k, None], bounds[:, k + 1, None]
        cum += (c_states[..., states[:, k], None]
                * np.clip(taus - s0, 0.0, s1 - s0))
    return cum


def _check_grid(model, regime_model: RegimeModel, t_nodes, y_nodes):
    """A functional builder's (t, age) grid as float arrays (ages default to
    [0]).  Refuses a regime count mismatch, a t grid of fewer than two nodes
    or that does not end at the horizon, t or y nodes that are not strictly
    increasing, and an empty or negative age grid."""
    if model.n_regimes != regime_model.n_states:
        raise ValueError(
            f"model regime count {model.n_regimes} != regime model state "
            f"count {regime_model.n_states}")
    t_nodes = np.asarray(t_nodes, dtype=float)
    y_nodes = np.asarray([0.0] if y_nodes is None else y_nodes, dtype=float)
    if t_nodes.size < 2:
        raise ValueError(f"t grid needs at least two nodes, got {t_nodes.size}")
    if abs(t_nodes[-1] - model.horizon) > 1e-12:
        raise ValueError("t grid must end at the horizon")
    for name, nodes in (("t", t_nodes), ("y", y_nodes)):
        if not np.all(np.diff(nodes) > 0):
            raise ValueError(f"{name} nodes must be strictly increasing")
    if not (y_nodes.size and y_nodes[0] >= 0.0):
        raise ValueError("y grid needs at least one node, and ages >= 0")
    return t_nodes, y_nodes


def _start_node_paths(regime_model: RegimeModel, y_nodes: np.ndarray,
                      tau: float, n_paths: int, seed: int, prefix: str):
    """One table of ``n_paths`` regime paths of length ``tau`` from each
    start node (i, y_b), node-major: row (i n_y + b) n_paths + p is path p
    of node (i, b), on stream (seed, ``prefix/i/b``, p).  By time
    homogeneity one table serves every t node."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    M, n_y = regime_model.n_states, len(y_nodes)
    tags = [f"{prefix}/{i}/{b}" for i in range(M) for b in range(n_y)]
    rngs = [stream(seed, tag, p) for tag in tags for p in range(n_paths)]
    return _direct_paths(regime_model, np.repeat(np.arange(M), n_y * n_paths),
                         np.tile(np.repeat(y_nodes, n_paths), M), float(tau),
                         _stream_draw(rngs))


def _fk_moments(cum: np.ndarray, scale, variant: str):
    """Mean and SE over the paths axis of scale * cum (variant "integral")
    or scale * exp(cum) ("literal"), for ``cum`` laid out (rates..., paths,
    t nodes) as :func:`_sojourn_cumulative` returns it.  The SE of a single
    path is zero."""
    vals = cum if variant == "integral" else np.exp(cum)
    n = vals.shape[-2]
    mean = scale * vals.mean(axis=-2)
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, np.abs(scale) * vals.std(axis=-2, ddof=1) / np.sqrt(n)


def _fk_grid(cum: np.ndarray, nodes: tuple, scale, variant: str):
    """Values and SEs (rates..., n_t, M, n_y): the :func:`_fk_moments` of
    each start node's rows of ``cum`` (rates..., paths, n_t), the integrals
    over a :func:`_start_node_paths` table of the ``nodes`` (M, n_y);
    ``scale`` broadcasts against (rates..., M, n_y, n_t)."""
    cum = cum.reshape(cum.shape[:-2] + nodes + (-1, cum.shape[-1]))
    return tuple(np.ascontiguousarray(np.moveaxis(a, -1, -3))
                 for a in _fk_moments(cum, scale, variant))


def _uniform_step(t_nodes: np.ndarray) -> float:
    """The step of a uniform t grid; a grid that is not uniform is refused
    with a ValueError naming its node furthest off the step."""
    n, span = len(t_nodes), t_nodes[-1] - t_nodes[0]
    h = span / max(n - 1, 1)
    off = np.abs(t_nodes - (t_nodes[0] + h * np.arange(n)))
    if np.any(off > 1e-12 * span):
        j = int(np.argmax(off))
        raise ValueError(f"t grid must be uniform: node {j} is {off[j]:.3g} "
                         f"off the step {h:.6g}")
    return h


def _expm_functional(regime_model: RegimeModel, rates: np.ndarray, scale,
                     variant: str, t_nodes: np.ndarray,
                     y_nodes: np.ndarray) -> list:
    """Exact age-independent functionals, one per row c of ``rates`` (R, M),
    under exponential holding times; their SEs are zero.

    With Q the chain generator lam_i (kernel_ij - delta_ij), variant
    "literal" gives scale * E_i[exp(int_t^T c ds)], the row sums of
    exp((Q + diag c) tau), and "integral" E_i[int_t^T c ds], the last column
    of exp([[Q, c], [0, 0]] tau).  The values are powers of one step
    exponential on a uniform t grid: with E = exp(gen h), node t_k reads
    E^(n-1-k) applied to the read-out vector, filled by doubling (about
    log2 n batched matrix-vector products); a grid that is not uniform is
    refused (:func:`_uniform_step`).  ``scale`` broadcasts against
    (R, n_t, M).
    """
    if not all(isinstance(h, ExponentialHolding) for h in regime_model.holding):
        raise ValueError("matrix-exponential functionals require exponential "
                         "holding times in every state")
    n, h = len(t_nodes), _uniform_step(t_nodes)
    M = regime_model.n_states
    Q = intensity_matrix(regime_model, 0.0)
    if variant == "literal":
        gen, read = Q + rates[:, :, None] * np.eye(M), np.ones(M)
    else:
        gen = np.zeros((len(rates), M + 1, M + 1))
        gen[:, :M, :M], gen[:, :M, M] = Q, rates
        read = np.eye(M + 1)[M]
    # pw[:, :, k] = E^k read: E^m maps columns 0..m-1 to m..2m-1, then squares
    power = expm(gen * h)
    pw = np.empty(gen.shape[:2] + (n,))
    pw[:, :, 0] = read
    m = 1
    while m < n:
        k = min(m, n - m)
        pw[:, :, m:m + k] = power @ pw[:, :, :k]
        power, m = power @ power, 2 * m
    vals = scale * pw[:, :M, ::-1].transpose(0, 2, 1)
    values = np.repeat(vals[..., None], len(y_nodes), axis=-1)
    return [RegimeFunctional(t_nodes, y_nodes, v, np.zeros_like(v), 0)
            for v in values]


# ---------------------------------------------------------------------------
# Risk-sensitive problem
# ---------------------------------------------------------------------------

def rs_optimal_control(model: RiskSensitiveModel, t, x, i):
    """Fractional allocation u = mbar / ((1 - gamma) sigma) * x."""
    i = np.asarray(i, dtype=int)
    frac = model.mbar[i] / ((1.0 - model.gamma) * model.sigma[i])
    return frac * np.asarray(x, dtype=float)


def rs_policy(model: RiskSensitiveModel) -> ControlPolicy:
    return ControlPolicy(rule=lambda t, x, i, y: rs_optimal_control(model, t, x, i))


def rs_dynamics(model: RiskSensitiveModel) -> ControlledDynamics:
    return _wealth_dynamics(model)


def rs_objective(model: RiskSensitiveModel) -> ObjectiveSpec:
    g = model.gamma
    return ObjectiveSpec(
        running=None,
        terminal=lambda x, i, y: np.asarray(x, dtype=float) ** g / g,
        terminal_dx=lambda x, i, y: np.asarray(x, dtype=float) ** (g - 1.0),
    )


def rs_source_rate(model: RiskSensitiveModel,
                   rate_variant: str = "literal") -> np.ndarray:
    """Per-regime rate a_i driving the risk-sensitive regime functional.

    rate_variant="literal":
        a = gamma r - mbar^2 + ((2-gamma)/(1-gamma)) * mbar^2 / (2 sigma^2),
    the reference formula (pinned value 5.865 at gamma=0.5, r=0.05,
    mbar=0.4, sigma=0.2).

    rate_variant="consistent":
        a = gamma r - mbar^2 + ((2-gamma)/(1-gamma)) * mbar^2 / 2,
    the rate obtained by applying Ito's formula to p = X^{gamma-1} * Phi
    under the candidate rule: the wealth volatility is mbar X/(1-gamma),
    so sigma cancels and the literal formula's extra 1/sigma^2 leaves an
    O(1) drift mismatch in the backward equation whenever mbar > 0
    (the two coincide when mbar = 0 or sigma = 1).
    """
    if rate_variant not in ("literal", "consistent"):
        raise ValueError("rate_variant must be 'literal' or 'consistent'")
    g, m, s = model.gamma, model.mbar, model.sigma
    scale = 2.0 * s ** 2 if rate_variant == "literal" else 2.0
    return g * model.r - m ** 2 + ((2.0 - g) / (1.0 - g)) * m ** 2 / scale


def rs_phi_functional(model: RiskSensitiveModel, regime_model: RegimeModel,
                      t_nodes: np.ndarray, y_nodes: np.ndarray, n_paths: int,
                      seed: int, variant: str = "integral",
                      rate_variant: str = "literal") -> RegimeFunctional:
    """Monte Carlo regime functional on a full (t, regime, age) grid.

    Terminal values are exact on the grid (empty integral): 0 for the
    integral variant, 1 for the literal variant.
    """
    _check_variant(variant)
    t_nodes, y_nodes = _check_grid(model, regime_model, t_nodes, y_nodes)
    a = rs_source_rate(model, rate_variant)
    taus = model.horizon - t_nodes
    paths = _start_node_paths(regime_model, y_nodes, taus[0], n_paths, seed,
                              "rsphi")
    values, se = _fk_grid(_sojourn_cumulative(paths, a, taus),
                          (regime_model.n_states, len(y_nodes)), 1.0, variant)
    return RegimeFunctional(t_nodes, y_nodes, values, se, n_paths)


def rs_phi_markov(model: RiskSensitiveModel, regime_model: RegimeModel,
                  t_nodes: np.ndarray, variant: str = "integral",
                  y_nodes: np.ndarray | None = None,
                  rate_variant: str = "literal") -> RegimeFunctional:
    """Exact risk-sensitive functional for exponential holding times.

    Age-independent (the regime process is then a Markov chain), so this
    serves both as a fast closed form on dense grids and as an independent
    oracle for the Monte Carlo estimator.  The values are powers of one
    step exponential on a uniform t grid; ``t_nodes`` must be uniform.
    """
    _check_variant(variant)
    t_nodes, y_nodes = _check_grid(model, regime_model, t_nodes, y_nodes)
    return _expm_functional(regime_model,
                            rs_source_rate(model, rate_variant)[None], 1.0,
                            variant, t_nodes, y_nodes)[0]


def _check_variant(variant: str):
    if variant not in ("integral", "literal"):
        raise ValueError("variant must be 'integral' or 'literal'")


def rs_adjoint(model: RiskSensitiveModel, ens: Ensemble,
               phi: RegimeFunctional, regime_model: RegimeModel | None = None,
               variant: str = "integral") -> AdjointPath:
    """Candidate adjoint along an ensemble for the risk-sensitive problem.

    p = X^{gamma-1} e^{phi} (integral variant) or X^{gamma-1} * Phi
    (literal variant, the exact multiplicative form);
    q = (gamma - 1) (u / X) sigma p.  Regime-jump integrands are the p
    difference across the (state, age) reset, evaluated at the event time;
    their compensators use hazard(i, y) * kernel[i, j].  There are no asset
    jumps in this problem.
    """
    _check_variant(variant)
    g = model.gamma
    t, x, th, y, u = ens.t, ens.x, ens.theta, ens.y, ens.u

    def p_of(tv, xv, iv, yv):
        F = phi(tv, iv, yv)
        return xv ** (g - 1.0) * (np.exp(F) if variant == "integral" else F)

    p = p_of(t, x, th, y)
    frac = np.divide(u, x, out=np.zeros_like(u), where=x != 0.0)
    q = (g - 1.0) * frac * model.sigma[th] * p
    grad_H = model.r[th[:, :-1]] * p[:, :-1]
    etj, etc, ets = _regime_jump_slots(regime_model, ens, p_of, p)
    return AdjointPath(p=p, q=q, etatilde_jump=etj, etatilde_comp=etc,
                       etatilde_sq_comp=ets, grad_H=grad_H)


def _regime_jump_slots(regime_model: RegimeModel | None, ens: Ensemble, p_of, p):
    """Regime-event jump integrand, compensator rate, and squared rate.

    The realized jump integrand is evaluated at the event time with the
    left-limit age; the compensator at the left node.  ``p_of(t, x, i, y)``
    evaluates the adjoint ansatz at broadcast points, ``p`` on the grid.
    """
    t, x, th, y = ens.t, ens.x, ens.theta, ens.y
    n, K = t.shape
    etj = np.zeros((n, K - 1))
    if regime_model is None or regime_model.n_states == 1:
        return etj, np.zeros((n, K - 1)), np.zeros((n, K - 1))
    tl, xl, thl, yl = t[:, :-1], x[:, :-1], th[:, :-1], y[:, :-1]
    dts = np.diff(t, axis=1)
    p_here = p[:, :-1]
    diffs = {}  # change of p on a switch to j; both sums use the same masks

    def jump_to(j, mask):
        if j not in diffs:
            diffs[j] = p_of(tl[mask], xl[mask], j, 0.0) - p_here[mask]
        return diffs[j]

    etc = regime_switch_sum(regime_model, thl, yl, jump_to)
    ets = regime_switch_sum(regime_model, thl, yl,
                            lambda j, mask: jump_to(j, mask) ** 2)
    switched = th[:, 1:] != thl
    rows, cols = np.nonzero(switched)
    if rows.size:
        te, xe = t[rows, cols + 1], x[rows, cols + 1]
        left_age = yl[rows, cols] + dts[rows, cols]
        p_new = p_of(te, xe, th[rows, cols + 1], 0.0)
        p_old = p_of(te, xe, thl[rows, cols], left_age)
        etj[rows, cols] = p_new - p_old
    return etj, etc, ets


def rs_u_coefficient(model: RiskSensitiveModel, ens: Ensemble,
                     adj: AdjointPath) -> float:
    """Max |mbar p + q| over real nodes: the Hamiltonian u-slope at the rule.

    Vanishes identically when q carries the closed-form control.
    """
    return _max_on_real_nodes(model.mbar[ens.theta] * adj.p + adj.q, ens)


def _max_on_real_nodes(coef: np.ndarray, ens: Ensemble) -> float:
    """Max |coef| over the first node and every node after a step of
    positive length (the padding of shorter paths is skipped)."""
    real = np.ones_like(coef, dtype=bool)
    real[:, 1:] = np.diff(ens.t, axis=1) > 0
    return float(np.max(np.abs(coef[real])))


# ---------------------------------------------------------------------------
# Quadratic-loss problem
# ---------------------------------------------------------------------------

def ql_lambda_factors(model: QuadraticLossModel, t, i, y,
                      phi_value) -> tuple:
    """Factors Lam_t and Lam of the hedging rule's slope, as
    :class:`QuadraticLossModel` defines them per variant, read from its
    table ``slope_terms``.  Vectorizes over the regime ``i`` and
    ``phi_value`` (the factors do not depend on t or y given phi); scalar
    arguments give floats.  SingularDenominator when |Lam| < 1e-12.
    """
    i = np.asarray(i, dtype=int)
    shape = np.broadcast_shapes(i.shape, np.shape(phi_value))
    if not shape:
        return tuple(float(a) for a in _ql_factors(model, i, phi_value))
    return tuple(a if a.shape == shape else np.broadcast_to(a, shape)
                 for a in _ql_factors(model, i, phi_value))


def _ql_factors(model: QuadraticLossModel, i, phi_value) -> tuple:
    """:func:`ql_lambda_factors` in the shapes its gathers give."""
    lam_t, lam_0, lam_phi = model.slope_terms
    i = np.asarray(i, dtype=int)
    lam = lam_0[i] if lam_phi is None else lam_0[i] + phi_value * lam_phi[i]
    if (np.abs(lam) < _SINGULAR_TOL).any():
        raise SingularDenominator(
            f"|Lam| = {np.min(np.abs(lam)):.3g} below 1e-12")
    return lam_t[i], lam


def _ql_rates(model: QuadraticLossModel, i, phi_value) -> tuple:
    """Feynman-Kac rates (c_phi, c_psi) = (2r, r) + k (sigma mbar + rate
    int g dpi) in regime ``i`` with k = Lam_t / Lam at ``phi_value``;
    vectorizes over ``i`` and ``phi_value``."""
    k = np.divide(*_ql_factors(model, i, phi_value))
    kterm = k * model.gain[i]
    return 2.0 * model.r[i] + kterm, model.r[i] + kterm


def ql_dynamics(model: QuadraticLossModel) -> ControlledDynamics:
    return _wealth_dynamics(model, None if model.marks is None else (
        lambda t, x, u, i, gam: np.asarray(u, dtype=float)
        * model.jump_sizes(i, gam)))


def ql_objective(model: QuadraticLossModel) -> ObjectiveSpec:
    d = model.d
    return ObjectiveSpec(
        running=None,
        terminal=lambda x, i, y: -(np.asarray(x, dtype=float) - d) ** 2,
        terminal_dx=lambda x, i, y: -2.0 * (np.asarray(x, dtype=float) - d),
    )


_SWEEP_ROUNDS = 50  # cap on the rounds of one column's scalar fixed point


def ql_phi_psi(model: QuadraticLossModel, regime_model: RegimeModel,
               t_nodes: np.ndarray, y_nodes: np.ndarray, n_paths: int,
               seed: int):
    """Monte Carlo hedging functionals phi and psi on a (t, regime, age) grid.

    phi(t,i,y) = -2 E[exp(int_t^T c_phi ds)] and psi = 2d E[exp(int c_psi)]
    with multiplicative rates c_phi = 2r + k (sigma mbar + rate int g dpi)
    and c_psi = r + the same k-term, where k = Lam_t / Lam.  One table,
    ``n_paths`` regime paths from each start node (i, y), serves every t
    node.

    When k is free of phi (the consistent variant, or no jumps), the rates
    are per-regime constants: one exact pass over the sojourns gives both
    functionals.  When phi enters Lam (the literal variant with jumps), the
    rates are integrated by the trapezoid rule on the t grid, which must be
    uniform, in one backward sweep over its columns.  At column t_a the
    rates at the later nodes read phi from columns already solved; the
    node's own phi enters only the rule's first half-weight term, so it
    solves the scalar equation phi = -2 e^{h/2 c_phi(i, phi)} E[e^{rest}],
    iterated until the column stops changing to 1e-12 relative
    (FixedPointDiverged, naming the node, after ``_SWEEP_ROUNDS`` rounds).
    psi then follows.

    Returns (phi, psi, info) with info = {"iterations": 1}: one pass over
    the paths in either case.
    """
    t_nodes, y_nodes = _check_grid(model, regime_model, t_nodes, y_nodes)
    feedback = model.slope_terms[2] is not None  # phi's coefficient in Lam
    h = _uniform_step(t_nodes) if feedback else None
    M, n_y, n_t = regime_model.n_states, len(y_nodes), len(t_nodes)
    taus = model.horizon - t_nodes
    paths = _start_node_paths(regime_model, y_nodes, taus[0], n_paths, seed,
                              "qlfk")

    # phi and psi are stacked along a leading axis of length 2
    scale = np.array([[-2.0], [2.0 * model.d]])
    shape = (2, n_t, M, n_y)
    if not feedback:
        rates = np.stack(_ql_rates(model, np.arange(M), -2.0))
        vals, se = _fk_grid(_sojourn_cumulative(paths, rates, taus), (M, n_y),
                            scale[..., None, None], "literal")
    else:
        # th[j, k, p], yy[j, k, p]: regime and age of path p from start node
        # k = (i, b), flattened, at elapsed time t_j - t_0, viewed on a
        # C-ordered (p, k, j) copy: the layout sets the order of the sums
        v = t_nodes - t_nodes[0]
        th, yy = (a.reshape(M * n_y, n_paths, n_t).transpose(1, 0, 2).copy().T
                  for a in paths._cadlag(v, np.searchsorted(v, paths.times)))
        node_i = np.repeat(np.arange(M), n_y)
        vals = np.empty(shape)
        vals[...] = scale[..., None, None]  # the exact terminal column
        se = np.zeros(shape)
        phi_now = RegimeFunctional(t_nodes, y_nodes, vals[0], se[0], 0)
        for a in range(n_t - 2, -1, -1):
            # rest[r, p, k]: the trapezoid's terms after t_a, whose phi is
            # solved, for the rates (c_phi, c_psi)
            th_a, yy_a = th[1:n_t - a], yy[1:n_t - a]
            c = np.stack(_ql_rates(model, th_a,
                                   phi_now(t_nodes[a + 1:, None, None], th_a,
                                           yy_a)))
            rest = h * (c.sum(axis=1) - 0.5 * c[:, -1]).transpose(0, 2, 1)
            phi_a = vals[0, a + 1].ravel()  # the later column as first guess
            for _ in range(_SWEEP_ROUNDS):
                own = np.stack(_ql_rates(model, node_i, phi_a))
                col, col_se = _fk_moments(rest + 0.5 * h * own[:, None],
                                          scale, "literal")
                change, phi_a = np.abs(col[0] - phi_a), col[0]
                # stop at the rounding of the mean over the paths, which
                # jitters the map by some 1e-14 relative
                if np.all(change <= 1e-12 * np.abs(phi_a)):
                    break
            else:
                i, b = divmod(int(np.argmax(change)), n_y)
                raise FixedPointDiverged(
                    f"phi at node (t={t_nodes[a]:.6g}, regime {i}, "
                    f"age {y_nodes[b]:.6g}) still moves by {change.max():.3g}"
                    f" after {_SWEEP_ROUNDS} rounds")
            vals[:, a], se[:, a] = (v.reshape(2, M, n_y) for v in (col, col_se))
    phi = RegimeFunctional(t_nodes, y_nodes, vals[0], se[0], n_paths)
    psi = RegimeFunctional(t_nodes, y_nodes, vals[1], se[1], n_paths)
    return phi, psi, {"iterations": 1}


def ql_phi_psi_markov(model: QuadraticLossModel, regime_model: RegimeModel,
                      t_nodes: np.ndarray,
                      y_nodes: np.ndarray | None = None):
    """Exact hedging functionals for exponential holding times.

    Valid whenever the rule slope Lam_t / Lam is free of phi (the
    consistent variant, or any model without jumps); the phi-dependent
    literal denominator has no matrix-exponential form and is rejected.
    The values are powers of one step exponential on a uniform t grid;
    ``t_nodes`` must be uniform.
    """
    t_nodes, y_nodes = _check_grid(model, regime_model, t_nodes, y_nodes)
    if model.slope_terms[2] is not None:
        raise ValueError("phi enters the literal denominator with jumps; "
                         "only the Monte Carlo fixed point applies")
    rates = np.stack(_ql_rates(model, np.arange(model.n_regimes), -2.0))
    return tuple(_expm_functional(
        regime_model, rates, np.array([-2.0, 2.0 * model.d])[:, None, None],
        "literal", t_nodes, y_nodes))


def ql_optimal_control(model: QuadraticLossModel, t, x, i, y, functionals):
    """Linear hedging rule u = (Lam_t / Lam) (x + psi / phi), vectorized.

    ``functionals`` is the (phi, psi) pair, which must share one
    (t, regime, y) grid (ValueError otherwise), or the two stacked in one
    :class:`RegimeFunctional`, as :func:`ql_policy` stacks them once per
    policy (a pair is stacked on every call).  Per call: one interpolation
    of phi and psi together, SingularPhi when phi is numerically zero
    there, and the slope Lam_t / Lam of :func:`ql_lambda_factors` at the
    queried regimes and phi values.
    """
    pv, sv = _ql_table(functionals)(t, i, y)
    if (np.abs(pv) < _SINGULAR_TOL).any():
        raise SingularPhi("phi is numerically zero at a queried node")
    return np.divide(*_ql_factors(model, i, pv)) * (x + sv / pv)


def _ql_table(functionals) -> RegimeFunctional:
    """phi and psi stacked on their one grid; a table already stacked,
    values (2, n_t, M, n_y), passes through."""
    if (isinstance(functionals, RegimeFunctional)
            and functionals.values.ndim == 4):
        return functionals
    phi, psi = functionals[0], functionals[1]
    if phi.values.shape != psi.values.shape or any(
            a is not b and not np.array_equal(a, b)
            for a, b in ((phi.t_nodes, psi.t_nodes),
                         (phi.y_nodes, psi.y_nodes))):
        raise ValueError("phi and psi must sit on one (t, regime, y) grid")
    return RegimeFunctional(phi.t_nodes, phi.y_nodes,
                            np.stack([phi.values, psi.values]),
                            np.stack([phi.se, psi.se]), phi.n_paths)


def ql_policy(model: QuadraticLossModel, functionals) -> ControlPolicy:
    """The hedging rule as a policy; the grid check (ValueError for (phi,
    psi) on different grids) and the stacked table are built once here,
    and each grid column makes one :func:`ql_optimal_control` call."""
    table = _ql_table(functionals)
    return ControlPolicy(
        rule=lambda t, x, i, y: ql_optimal_control(model, t, x, i, y, table))


def ql_adjoint(model: QuadraticLossModel, ens: Ensemble, functionals,
               regime_model: RegimeModel | None = None) -> AdjointPath:
    """Candidate adjoint along an ensemble for the quadratic-loss problem.

    p = phi X + psi, q = u phi sigma, asset-jump integrand eta = u phi g
    evaluated at realized marks, regime-jump integrand the (X-weighted phi
    difference + psi difference) across the event.  Compensator rates use
    the path's left-node values.  ``functionals`` is read like
    :func:`ql_optimal_control`'s; each evaluation reads phi and psi with
    one stacked lookup.
    """
    table = _ql_table(functionals)
    t, x, th, y, u = ens.t, ens.x, ens.theta, ens.y, ens.u

    def phi_p(tv, xv, iv, yv):  # phi and p = phi x + psi
        F, S = table(tv, iv, yv)
        return F, F * xv + S

    phiv, p = phi_p(t, x, th, y)
    q = u * phiv * model.sigma[th]
    grad_H = model.r[th[:, :-1]] * p[:, :-1]
    etj, etc, ets = _regime_jump_slots(regime_model, ens,
                                       lambda *a: phi_p(*a)[1], p)

    eta_jump = eta_comp = eta_sq = None
    if model.marks is not None:
        n, K = t.shape
        rate = model.marks.rate
        ul, phil, thl = u[:, :-1], phiv[:, :-1], th[:, :-1]
        m1, m2 = model.jump_moments
        eta_comp = rate * ul * phil * m1[thl]
        eta_sq = rate * (ul * phil) ** 2 * m2[thl]
        eta_jump = np.zeros((n, K - 1))
        jm = ens.jump_mask[:, 1:]
        rows, cols = np.nonzero(jm)
        if rows.size:
            eta_jump[rows, cols] = (u[rows, cols] * phiv[rows, cols + 1]
                                    * model.jump_sizes(
                                        th[rows, cols],
                                        ens.jump_marks[rows, cols + 1]))
    return AdjointPath(p=p, q=q, eta_jump=eta_jump, eta_comp=eta_comp,
                       eta_sq_comp=eta_sq, etatilde_jump=etj,
                       etatilde_comp=etc, etatilde_sq_comp=ets, grad_H=grad_H)


def ql_u_coefficient(model: QuadraticLossModel, ens: Ensemble,
                     adj: AdjointPath) -> float:
    """Max |dH/du| along the path with the adjoints held fixed.

    dH/du = (sigma mbar + rate int g dpi) p + sigma q + rate int g eta dpi,
    with eta = u phi g.  The positive sign on the first jump moment is the
    variational derivative of the gain under uncompensated jump dynamics
    (each unit of control adds rate * int g dpi of expected jump drift).
    Vanishes identically for the consistent variant's closed-form rule.
    """
    th = ens.theta
    rate = model.marks.rate if model.marks is not None else 0.0
    phiv = np.where(ens.u != 0.0, np.divide(adj.q, ens.u * model.sigma[th],
                                            out=np.zeros_like(adj.q),
                                            where=ens.u != 0.0), 0.0)
    coef = (model.gain[th] * adj.p + model.sigma[th] * adj.q
            + rate * ens.u * phiv * model.jump_moments[1][th])
    return _max_on_real_nodes(coef, ens)
