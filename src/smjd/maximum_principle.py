"""Hamiltonian evaluation, adjoint-equation residuals, and the joint generator.

The Hamiltonian pairs running cost, drift, diffusion, and jump coefficients
with adjoint variables (p, q, eta):

    H = f1 + b p + sigma q + lam int g (eta - p) dpi,

with the mark integral taken on the mark measure's quadrature nodes
(``lam`` is the jump rate).  :func:`hamiltonian` is the one place this
formula is written.  It takes scalar-state points ``(t, x, u, i, y)`` that
broadcast against each other and against the adjoint's ``p`` and ``q``,
and returns an array of their broadcast shape, or a float when every
argument is a scalar; ``adj.eta(gamma)`` gives eta at mark gamma for every
point.  :func:`grad_x_hamiltonian` takes the same arguments and returns
the x-gradient with the adjoints frozen: the Hamiltonian of the ``*_dx``
coefficients (mode "analytic") or a central difference of the Hamiltonian
(mode "fd").  The adjoint backward equation reads

    dp = -grad_x H dt + q' dW + compensated asset-jump terms (eta)
                            + compensated regime-jump terms (eta-tilde),
    p(T) = grad_x f2.

``adjoint_residual`` measures how well a candidate adjoint satisfies the
discrete version of this equation along simulated paths; closed-form
adjoints from the worked examples and value-function-induced adjoints are
both fed through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import UnboundedHamiltonian
from .jump_diffusion import (ControlledDynamics, Ensemble, ObjectiveSpec,
                             simulate_ensemble)
from .semi_markov import (RegimeModel, RegimeState, regime_switch_sum,
                          sample_regime_paths)

__all__ = [
    "AdjointState", "AdjointPath", "ValueFunctionStub", "hamiltonian",
    "grad_x_hamiltonian", "argmax_hamiltonian", "ArgmaxResult",
    "adjoint_residual", "ResidualStats", "integrability_report",
    "IntegrabilityReport", "generator_G", "dynkin_check", "hjb_residual",
    "hjb_terminal_mismatch", "adjoint_from_value",
]


# ---------------------------------------------------------------------------
# Adjoint containers
# ---------------------------------------------------------------------------

@dataclass
class AdjointState:
    """Pointwise adjoint variables of a scalar state.

    ``p`` and ``q`` broadcast against the evaluation points.  ``eta`` maps
    a mark gamma to the asset-jump adjoint at every point (a scalar or an
    array that broadcasts against them); None means eta = 0.
    """

    p: float | np.ndarray
    q: float | np.ndarray
    eta: Callable[[float], float | np.ndarray] | None = None


@dataclass
class AdjointPath:
    """Adjoint variables along an ensemble, ready for residual evaluation.

    All step-indexed arrays have shape (n_paths, K-1) and are evaluated at
    the left node of each step; ``p`` has shape (n_paths, K).

    eta_jump / etatilde_jump hold the adjoint jump integrand at the events
    realized at the right node of each step (0 where no event);
    eta_comp / etatilde_comp hold the corresponding compensator rates
    (lam * int eta dpi and sum_j lam_ij(y) eta_tilde_j).  ``grad_H`` is the
    x-gradient of the Hamiltonian at the left nodes; when None the residual
    evaluator computes it numerically.  The *_sq_comp arrays are second
    moments used by the integrability report.
    """

    p: np.ndarray
    q: np.ndarray
    eta_jump: np.ndarray | None = None
    eta_comp: np.ndarray | None = None
    etatilde_jump: np.ndarray | None = None
    etatilde_comp: np.ndarray | None = None
    grad_H: np.ndarray | None = None
    eta_sq_comp: np.ndarray | None = None
    etatilde_sq_comp: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def _points(*args):
    """Whether every argument (t, x, u, i, y, ...) is a scalar, and the
    arguments as at least 1-D arrays of their broadcast shape: floats, with
    the regime ``i`` (the fourth) as integers."""
    return all(np.ndim(a) == 0 for a in args), np.broadcast_arrays(*(
        np.atleast_1d(np.asarray(a, dtype=int if k == 3 else float))
        for k, a in enumerate(args)))


def hamiltonian(t, x, u, i, y, adj: AdjointState, dyn: ControlledDynamics,
                objective: ObjectiveSpec | None = None):
    """H = f1 + b p + sigma q + lam sum_k w_k g_k (eta_k - p) over the mark
    nodes (gamma_k, w_k), at broadcast points of a scalar state.

    Returns an array of the points' broadcast shape, or a float when every
    argument is a scalar.  With zero jump coefficient this reduces to
    f1 + b p + sigma q.
    """
    if dyn.dim != 1:
        raise NotImplementedError("Hamiltonian implemented for scalar state")
    scalar, (t, x, u, i, y, p, q) = _points(t, x, u, i, y, adj.p, adj.q)
    val = np.zeros(x.shape)
    if objective is not None and objective.running is not None:
        val += np.asarray(objective.running(t, x, u, i, y), dtype=float)
    val += np.asarray(dyn.drift(t, x, u, i), dtype=float) * p
    val += np.asarray(dyn.vol(t, x, u, i), dtype=float) * q
    if dyn.jump is not None:
        acc = np.zeros_like(val)
        for gk, wk in zip(*dyn.marks.nodes()):
            g = np.asarray(dyn.jump(t, x, u, i, np.full_like(x, gk)), dtype=float)
            eta = 0.0 if adj.eta is None else np.asarray(adj.eta(gk), dtype=float)
            acc += wk * (g * (eta - p))
        val += dyn.marks.rate * acc
    return float(val[0]) if scalar else val


def grad_x_hamiltonian(t, x, u, i, y, adj: AdjointState, dyn: ControlledDynamics,
                       objective: ObjectiveSpec | None = None,
                       mode: str = "auto"):
    """x-gradient of the Hamiltonian with (p, q, eta) frozen; same call
    convention as :func:`hamiltonian`.

    mode="analytic" is the Hamiltonian of the derivative coefficients
    attached to the dynamics/objective (``drift_dx``, ``vol_dx``,
    ``jump_dx``, ``running_dx``); mode="fd" central differences with step
    1e-5 * (1 + |x|); "auto" prefers analytic when available.  Forcing
    "analytic" without one of the derivatives it needs raises ValueError
    naming it.
    """
    needed = {"drift_dx": dyn.drift_dx, "vol_dx": dyn.vol_dx}
    if dyn.jump is not None:
        needed["jump_dx"] = dyn.jump_dx
    if objective is not None and objective.running is not None:
        needed["running_dx"] = objective.running_dx
    missing = [name for name, dx in needed.items() if dx is None]
    if mode == "analytic" and missing:
        raise ValueError("analytic x-gradient needs " + ", ".join(missing))
    if mode == "analytic" or (mode == "auto" and not missing):
        d_dyn = replace(dyn, drift=dyn.drift_dx, vol=dyn.vol_dx, jump=dyn.jump_dx)
        d_obj = (None if objective is None or objective.running is None
                 else replace(objective, running=objective.running_dx))
        return hamiltonian(t, x, u, i, y, adj, d_dyn, d_obj)
    h = 1e-5 * (1.0 + np.abs(x))
    return (hamiltonian(t, x + h, u, i, y, adj, dyn, objective)
            - hamiltonian(t, x - h, u, i, y, adj, dyn, objective)) / (2 * h)


def _box_argmax(fun, lo: float, hi: float) -> tuple[float, float]:
    """(argmax, max) of ``fun`` on [lo, hi]: the best of 33 grid points (one
    vectorized call), polished by bounded Brent on its neighbouring cells."""
    grid = np.linspace(lo, hi, 33)
    k = int(np.argmax(fun(grid)))
    res = minimize_scalar(lambda uu: -fun(uu), method="bounded",
                          bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 32)]),
                          options={"xatol": 1e-12})
    return float(res.x), float(-res.fun)


@dataclass
class ArgmaxResult:
    """Outcome of Hamiltonian maximization over the control set.

    mode is "interior" for a proper maximizer, "stationary-line" when the
    Hamiltonian is constant in u (linear with vanishing slope) and every
    control is stationary; ``u_coefficient`` reports the detected linear
    slope in u.
    """

    u_star: float | None
    h_star: float
    mode: str
    u_coefficient: float


def argmax_hamiltonian(t, x, i, y, adj: AdjointState, dyn: ControlledDynamics,
                       objective: ObjectiveSpec | None,
                       control_set: tuple[float, float] | None,
                       stationarity: bool = False) -> ArgmaxResult:
    """Maximize u -> H(t, x, u, ...) over a box, or detect the linear case.

    Unbounded linear-in-u Hamiltonians raise UnboundedHamiltonian unless
    ``stationarity`` is set, in which case a vanishing u-coefficient is
    reported as a whole-line stationary set (the first-order convention
    used by the worked examples).
    """
    fun = lambda uu: hamiltonian(t, x, uu, i, y, adj, dyn, objective)
    # probe curvature on a symmetric stencil
    scale = 1.0 + abs(float(x))
    h0, hp, hm, h2p, h2m = fun(scale * np.array([0.0, 1.0, -1.0, 2.0, -2.0]))
    slope = (hp - hm) / (2 * scale)
    curv = (hp - 2 * h0 + hm) / scale ** 2
    cubic_dev = abs(h2p - 2 * hp + 2 * hm - h2m)
    linear = abs(curv) * scale ** 2 <= 1e-10 * (1 + abs(h0)) and cubic_dev <= 1e-8 * (1 + abs(h0))
    if linear:
        if abs(slope) <= 1e-10 * (1 + abs(h0) / scale):
            return ArgmaxResult(None, float(h0), "stationary-line", float(slope))
        if control_set is None:
            raise UnboundedHamiltonian(
                f"Hamiltonian is linear in u with slope {slope:.3g} on an "
                "unbounded control set")
        u_star = control_set[1] if slope > 0 else control_set[0]
        return ArgmaxResult(float(u_star), fun(u_star), "interior", float(slope))
    if control_set is None:
        if curv < 0:
            # concave: polish the stationary point from the quadratic fit
            u0 = -slope / curv if curv != 0 else 0.0
            res = minimize_scalar(lambda uu: -fun(uu),
                                  bracket=(u0 - scale, u0, u0 + scale))
            return ArgmaxResult(float(res.x), float(-res.fun), "interior", float(slope))
        raise UnboundedHamiltonian("Hamiltonian not concave on an unbounded control set")
    u_star, h_star = _box_argmax(fun, *control_set)
    return ArgmaxResult(u_star, h_star, "interior", float(slope))


# ---------------------------------------------------------------------------
# Adjoint residual along paths
# ---------------------------------------------------------------------------

@dataclass
class ResidualStats:
    """Discrete BSDE residual summary.

    ``mean_path_total`` is the mean over paths of |sum_k R_k| (the statistic
    used for discretization-order checks); ``mean_step`` / ``max_step`` are
    per-step magnitudes; ``terminal_mismatch`` is the mean |p(T) - grad f2|.
    """

    mean_path_total: float
    mean_step: float
    max_step: float
    terminal_mismatch: float

    def to_dict(self):
        return {"mean_path_total": self.mean_path_total,
                "mean_step": self.mean_step, "max_step": self.max_step,
                "terminal_mismatch": self.terminal_mismatch}


def adjoint_residual(ens: Ensemble, adj: AdjointPath, dyn: ControlledDynamics,
                     objective: ObjectiveSpec | None = None) -> ResidualStats:
    """Per-step residuals of the discrete adjoint equation along an ensemble.

    R_k = p_{k+1} - p_k - [ -grad_H_k dt_k + q_k dW_k
                            + eta-jump terms against compensated asset jumps
                            + eta-tilde terms against compensated regime jumps ].

    The terminal check takes grad_x f2 from ``objective.terminal_dx``, or
    by central difference from ``objective.terminal``.
    """
    dts = np.diff(ens.t, axis=1)
    grad_H = adj.grad_H
    if grad_H is None:
        raise ValueError("AdjointPath.grad_H is required (closed-form builders "
                         "and adjoint_from_value supply it)")
    incr = -grad_H * dts + adj.q[:, :-1] * ens.dW
    zeros = np.zeros_like(dts)
    for jump, comp in ((adj.eta_jump, adj.eta_comp),
                       (adj.etatilde_jump, adj.etatilde_comp)):
        incr = incr + (jump if jump is not None else zeros)
        incr = incr - (comp if comp is not None else zeros) * dts
    R = np.diff(adj.p, axis=1) - incr
    real = dts > 0
    mean_step = float(np.mean(np.abs(R[real]))) if real.any() else 0.0
    max_step = float(np.max(np.abs(R[real]))) if real.any() else 0.0
    total = np.sum(np.where(real | (np.abs(R) > 0), R, 0.0), axis=1)
    if objective is not None and objective.terminal_dx is not None:
        pT_target = np.asarray(objective.terminal_dx(ens.x[:, -1], ens.theta[:, -1],
                                                     ens.y[:, -1]), dtype=float)
    elif objective is not None and objective.terminal is not None:
        h = 1e-6 * (1.0 + np.abs(ens.x[:, -1]))
        pT_target = (np.asarray(objective.terminal(ens.x[:, -1] + h, ens.theta[:, -1], ens.y[:, -1]), dtype=float)
                     - np.asarray(objective.terminal(ens.x[:, -1] - h, ens.theta[:, -1], ens.y[:, -1]), dtype=float)) / (2 * h)
    else:
        pT_target = adj.p[:, -1]
    term = float(np.mean(np.abs(adj.p[:, -1] - pT_target)))
    return ResidualStats(mean_path_total=float(np.mean(np.abs(total))),
                         mean_step=mean_step, max_step=max_step,
                         terminal_mismatch=term)


# ---------------------------------------------------------------------------
# Integrability report (Theorem-style moment conditions)
# ---------------------------------------------------------------------------

@dataclass
class IntegrabilityReport:
    """Monte Carlo estimates of the four time-integrated second moments.

    ``estimates[k]`` matches condition index k+1; ``diverging`` lists the
    condition indices whose estimate keeps growing with the path count.
    """

    estimates: list[float]
    diverging: list[int]

    def to_dict(self):
        return {"estimates": self.estimates, "diverging": self.diverging}


def integrability_report(ens_hat: Ensemble, ens_alt: Ensemble,
                         adj: AdjointPath, dyn: ControlledDynamics) -> IntegrabilityReport:
    """Estimate the four adjoint integrability moments for (candidate, alt).

    Both ensembles must be coupled (same grids).  Divergence is flagged when
    the estimate from the full ensemble exceeds twice the estimate from the
    first half.
    """
    dts = np.diff(ens_hat.t, axis=1)
    dx = ens_hat.x - ens_alt.x
    s_hat = _vol_nodes(dyn, ens_hat)
    s_alt = _vol_nodes(dyn, ens_alt)
    terms = [
        ((s_hat - s_alt)[:, :-1] * adj.p[:, :-1]) ** 2,
        (adj.q[:, :-1] * dx[:, :-1]) ** 2,
        (dx[:, :-1] ** 2) * (adj.eta_sq_comp if adj.eta_sq_comp is not None
                             else np.zeros_like(dts)),
        (dx[:, :-1] ** 2) * (adj.etatilde_sq_comp if adj.etatilde_sq_comp is not None
                             else np.zeros_like(dts)),
    ]
    n = ens_hat.n_paths
    estimates, diverging = [], []
    for k, integrand in enumerate(terms):
        per_path = np.sum(integrand * dts, axis=1)
        full = float(np.mean(per_path))
        half = float(np.mean(per_path[: max(n // 2, 1)]))
        estimates.append(full)
        if full > 2.0 * half + 1e-12 and full > 1e-9:
            diverging.append(k + 1)
    return IntegrabilityReport(estimates=estimates, diverging=diverging)


def _vol_nodes(dyn: ControlledDynamics, ens: Ensemble) -> np.ndarray:
    """The diffusion coefficient at every node of a scalar-state ensemble."""
    return np.broadcast_to(np.asarray(
        dyn.vol(ens.t, ens.x, ens.u, ens.theta), dtype=float), ens.t.shape)


# ---------------------------------------------------------------------------
# Value-function stub, generator G, HJB
# ---------------------------------------------------------------------------

_V_FD_STEP = 1e-5  # relative finite-difference step of ValueFunctionStub


@dataclass
class ValueFunctionStub:
    """V(t, x, i, y) with derivatives, analytic or by central differences.

    All callables broadcast over arrays; ``i`` is an integer array.
    Finite-difference steps are ``_V_FD_STEP`` scaled by 1 + |argument|.
    """

    v: Callable
    dt: Callable | None = None
    dx: Callable | None = None
    dxx: Callable | None = None
    dy: Callable | None = None

    def _fd(self, which: str, t, x, i, y):
        h = _V_FD_STEP
        if which == "t":
            step = h * (1.0 + np.abs(t))
            return (self.v(t + step, x, i, y) - self.v(t - step, x, i, y)) / (2 * step)
        if which == "x":
            step = h * (1.0 + np.abs(x))
            return (self.v(t, x + step, i, y) - self.v(t, x - step, i, y)) / (2 * step)
        if which == "xx":
            step = np.sqrt(h) * (1.0 + np.abs(x))
            return (self.v(t, x + step, i, y) - 2 * self.v(t, x, i, y)
                    + self.v(t, x - step, i, y)) / step ** 2
        step = h * (1.0 + np.abs(y))
        lo = np.minimum(step, y)  # stay inside y >= 0
        return (self.v(t, x, i, y + step) - self.v(t, x, i, y - lo)) / (step + lo)

    def v_t(self, t, x, i, y):
        return self.dt(t, x, i, y) if self.dt else self._fd("t", t, x, i, y)

    def v_x(self, t, x, i, y):
        return self.dx(t, x, i, y) if self.dx else self._fd("x", t, x, i, y)

    def v_xx(self, t, x, i, y):
        return self.dxx(t, x, i, y) if self.dxx else self._fd("xx", t, x, i, y)

    def v_y(self, t, x, i, y):
        return self.dy(t, x, i, y) if self.dy else self._fd("y", t, x, i, y)


def generator_G(V: ValueFunctionStub, t, x, i, y, u, dyn: ControlledDynamics,
                model: RegimeModel):
    """Extended generator of (t, X, theta, Y) applied to V (scalar state).

    G V = V_t + 1/2 sigma^2 V_xx + b V_x + V_y
          + hazard(i,y) sum_j kernel[i,j] (V(t,x,j,0) - V(t,x,i,y))
          + lam int [V(t, x+g, i, y) - V(t, x, i, y)] dpi.

    Points broadcast against each other as in :func:`hamiltonian`; returns
    an array of their broadcast shape, or a float when every argument is a
    scalar.  With exponential holding times and y-free V this reduces to
    the Markov-chain generator.
    """
    scalar_in, (ta, xa, ua, ia, ya) = _points(t, x, u, i, y)
    b = np.asarray(dyn.drift(ta, xa, ua, ia), dtype=float)
    s = np.asarray(dyn.vol(ta, xa, ua, ia), dtype=float)
    val = (np.asarray(V.v_t(ta, xa, ia, ya), dtype=float)
           + 0.5 * s ** 2 * np.asarray(V.v_xx(ta, xa, ia, ya), dtype=float)
           + b * np.asarray(V.v_x(ta, xa, ia, ya), dtype=float)
           + np.asarray(V.v_y(ta, xa, ia, ya), dtype=float))
    here = np.asarray(V.v(ta, xa, ia, ya), dtype=float)
    val = val + regime_switch_sum(
        model, ia, ya,
        lambda j, sel: np.asarray(
            V.v(ta[sel], xa[sel], np.full_like(ia[sel], j),
                np.zeros_like(ya[sel])), dtype=float) - here[sel])
    if dyn.jump is not None:
        # every point paired with every quadrature node of the marks, along
        # a trailing axis
        gam, w = dyn.marks.nodes()
        tn, xn, un, iN, yn, gn = np.broadcast_arrays(
            *(a[..., None] for a in (ta, xa, ua, ia, ya)), gam)
        x_jump = xn + np.asarray(dyn.jump(tn, xn, un, iN, gn), dtype=float)
        shifted = (np.asarray(V.v(tn, x_jump, iN, yn), dtype=float)
                   - here[..., None])
        val = val + dyn.marks.rate * np.sum(shifted * w, axis=-1)
    return float(val[0]) if scalar_in else val


def dynkin_check(V: ValueFunctionStub, dyn: ControlledDynamics, policy,
                 model: RegimeModel, x0, i0: int, y0: float, horizon: float,
                 n_paths: int, dt: float, seed: int):
    """Martingale certificate: E[V(end)] - V(start) vs E int G V dt.

    Returns (lhs, rhs, gap, se) where se combines the per-path variance of
    the full Dynkin statistic.
    """
    paths = sample_regime_paths(model, RegimeState(i0, y0), horizon, n_paths,
                                seed)
    ens = simulate_ensemble(dyn, policy, paths, x0, dt, seed)
    gv = generator_G(V, ens.t, ens.x, ens.theta, ens.y, ens.u, dyn, model)
    dts = np.diff(ens.t, axis=1)
    integral = np.sum(0.5 * (gv[:, 1:] + gv[:, :-1]) * dts, axis=1)
    v_end = np.asarray(V.v(ens.t[:, -1], ens.x[:, -1], ens.theta[:, -1],
                           ens.y[:, -1]), dtype=float)
    v_start = float(np.asarray(V.v(np.array([0.0]), np.atleast_1d(np.asarray(x0, dtype=float)),
                                   np.array([i0]), np.array([y0])), dtype=float)[0])
    stat = v_end - v_start - integral
    lhs = float(np.mean(v_end) - v_start)
    rhs = float(np.mean(integral))
    se = float(np.std(stat, ddof=1) / np.sqrt(n_paths))
    return lhs, rhs, float(np.mean(stat)), se


def hjb_residual(V: ValueFunctionStub, objective: ObjectiveSpec,
                 dyn: ControlledDynamics, model: RegimeModel, t, x, i, y,
                 control_set, forced_u: float | None = None) -> float:
    """Residual of dV/dt + sup_u { f1 + A^u V } at a point.

    ``forced_u`` pins the control (useful for deterministic test cases);
    otherwise the supremum is taken over the control box by scalar search.
    """
    def total(u):  # vectorized over u
        val = generator_G(V, t, x, i, y, u, dyn, model)
        if objective.running is None:
            return val
        scalar, points = _points(t, x, u, i, y)
        f1 = np.asarray(objective.running(*points), dtype=float)
        return (float(f1[0]) if scalar else f1) + val

    if forced_u is not None:
        return total(forced_u)
    if control_set is None:
        raise UnboundedHamiltonian("supremum over an unbounded control set; "
                                   "provide a box or forced_u")
    return _box_argmax(total, *control_set)[1]


def hjb_terminal_mismatch(V: ValueFunctionStub, objective: ObjectiveSpec,
                          horizon: float, x, i, y) -> float:
    """|V(T, x, i, y) - f2(x, i, y)| at the terminal time."""
    _, (ta, xa, _, ia, ya) = _points(horizon, x, 0.0, i, y)
    vT = np.asarray(V.v(ta, xa, ia, ya), dtype=float)
    f2 = np.asarray(objective.terminal(xa, ia, ya), dtype=float)
    return float(np.max(np.abs(vT - f2)))


# ---------------------------------------------------------------------------
# Adjoint from a value function (dynamic-programming connection)
# ---------------------------------------------------------------------------

def adjoint_from_value(V: ValueFunctionStub, ens: Ensemble,
                       dyn: ControlledDynamics, model: RegimeModel,
                       objective: ObjectiveSpec | None = None) -> AdjointPath:
    """Build the adjoint induced by a value function along an ensemble.

    p = V_x, q = sigma V_xx; the regime-jump slot is the V_x difference
    across the (state, age) event map; the asset-jump slot is the V_x
    difference across the state shift x -> x + g, the form consistent with
    the generalized Ito formula.  ``grad_H`` is the central-difference
    x-gradient of the Hamiltonian with (p, q, eta) frozen at the left nodes.
    """
    t, x, th, y, u = ens.t, ens.x, ens.theta, ens.y, ens.u
    n, K = t.shape
    p = np.asarray(V.v_x(t, x, th, y), dtype=float)
    svals = _vol_nodes(dyn, ens)
    q = svals * np.asarray(V.v_xx(t, x, th, y), dtype=float)

    tl, xl, thl, yl, ul = (a[:, :-1] for a in (t, x, th, y, u))
    vx_here = p[:, :-1]
    # regime-jump slot
    vx_to = np.stack([np.asarray(V.v_x(tl, xl, np.full_like(thl, j),
                                       np.zeros_like(yl)), dtype=float)
                      for j in range(model.n_states)])
    jump_to = lambda j, mask: vx_to[j][mask] - vx_here[mask]
    etat_comp = regime_switch_sum(model, thl, yl, jump_to)
    etat_sq = regime_switch_sum(model, thl, yl,
                                lambda j, mask: jump_to(j, mask) ** 2)
    etat_jump = np.zeros((n, K - 1))
    rows, cols = np.nonzero(th[:, 1:] != thl)
    etat_jump[rows, cols] = (vx_to[th[rows, cols + 1], rows, cols]
                             - vx_here[rows, cols])

    # asset-jump slot, eta(gamma) = V_x(x + g(x, gamma)) - V_x(x) frozen at
    # the left nodes; computed once per mark node, where the Hamiltonian
    # asks for it
    eta = eta_jump = eta_comp = eta_sq = None
    if dyn.jump is not None:
        eta_at = {}
        eta = eta_at.__getitem__
        eta_jump = np.zeros((n, K - 1))
        rows, cols = np.nonzero(ens.jump_mask[:, 1:])
        te, xe, ie, ye = (a[rows, cols] for a in (t, x, th, y))
        g = np.asarray(dyn.jump(te, xe, u[rows, cols], ie,
                                ens.jump_marks[rows, cols + 1]), dtype=float)
        eta_jump[rows, cols] = (
            np.asarray(V.v_x(te, xe + g, ie, ye), dtype=float)
            - np.asarray(V.v_x(te, xe, ie, ye), dtype=float))
        eta_comp = np.zeros((n, K - 1))
        eta_sq = np.zeros((n, K - 1))
        for gk, wk in zip(*dyn.marks.nodes()):
            g = np.asarray(dyn.jump(tl, xl, ul, thl, np.full_like(tl, gk)),
                           dtype=float)
            ev = eta_at[gk] = (np.asarray(V.v_x(tl, xl + g, thl, yl),
                                          dtype=float) - vx_here)
            eta_comp += wk * ev
            eta_sq += wk * ev ** 2
        eta_comp *= dyn.marks.rate
        eta_sq *= dyn.marks.rate

    grad_H = grad_x_hamiltonian(tl, xl, ul, thl, yl,
                                AdjointState(p[:, :-1], q[:, :-1], eta),
                                dyn, objective, mode="fd")
    return AdjointPath(p=p, q=q, eta_jump=eta_jump, eta_comp=eta_comp,
                       etatilde_jump=etat_jump, etatilde_comp=etat_comp,
                       grad_H=grad_H, eta_sq_comp=eta_sq,
                       etatilde_sq_comp=etat_sq)
