"""Hamiltonian evaluation, adjoint-equation residuals, and the joint generator,
all of a scalar state.

The Hamiltonian pairs running cost, drift, diffusion, and jump coefficients
with adjoint variables (p, q, eta):

    H = f1 + b p + sigma q + lam int g (eta - p) dpi,

with the mark integral taken by ``MarkMeasure.integrate``, one call per
quadrature node, as are the jump terms of G and of the value adjoint
(``lam`` is the jump rate).  :func:`hamiltonian` is the one place this
formula is written.  It takes scalar-state points ``(t, x, u, i, y)`` that
broadcast against each other and against the adjoint's ``p`` and ``q``,
and returns an array of their broadcast shape, as :func:`generator_G` and
:func:`hjb_residual` (f1 + G V at a given control) do; ``adj.eta(gamma)``
gives eta at mark gamma for every point.  :func:`grad_x_hamiltonian` takes
the same arguments and returns the x-gradient with the adjoints frozen, a
central difference of the Hamiltonian.  The adjoint backward equation reads

    dp = -grad_x H dt + q' dW + compensated asset-jump terms (eta)
                            + compensated regime-jump terms (eta-tilde),
    p(T) = grad_x f2  (0 without a terminal cost).

``adjoint_residual`` measures how well a candidate adjoint satisfies the
discrete version of this equation along simulated paths; closed-form
adjoints from the worked examples and value-function-induced adjoints are
both fed through it, and every one of them builds its regime-jump slot
(eta-tilde) in :func:`_regime_jump_slots`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .jump_diffusion import (ControlledDynamics, Ensemble, ObjectiveSpec,
                             simulate_ensemble)
from .semi_markov import (RegimeModel, RegimeState, regime_switch_sum,
                          sample_regime_paths)

__all__ = [
    "AdjointState", "AdjointPath", "ValueFunctionStub", "hamiltonian",
    "grad_x_hamiltonian", "adjoint_residual", "ResidualStats", "generator_G",
    "integrability_report", "IntegrabilityReport", "dynkin_check",
    "hjb_residual", "hjb_terminal_mismatch", "adjoint_from_value",
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
    x-gradient of the Hamiltonian at the left nodes.  The *_sq_comp arrays
    are second moments used by the integrability report.
    """

    p: np.ndarray
    q: np.ndarray
    grad_H: np.ndarray
    eta_jump: np.ndarray | None = None
    eta_comp: np.ndarray | None = None
    etatilde_jump: np.ndarray | None = None
    etatilde_comp: np.ndarray | None = None
    eta_sq_comp: np.ndarray | None = None
    etatilde_sq_comp: np.ndarray | None = None


def _regime_jump_slots(model: RegimeModel, ens: Ensemble, p_of, p):
    """The regime-jump slot of an adjoint along ``ens``: the realized jump
    integrand, its compensator rate and its squared rate, each (n, K-1).

    ``p_of(t, x, i, y)`` evaluates the adjoint p at broadcast points, ``p``
    holds it on the grid.  x does not jump at a regime event, so the
    realized integrand is exact at the event node: p in the new state at
    age 0 less p in the old state at the left-limit age.  The compensators
    sum_j hazard(i, y) kernel[i, j] (p(t, x, j, 0) - p)^k, k = 1, 2, are
    taken at the left node.  All three are 0 on a one-state model."""
    t, x, th, y = ens.t, ens.x, ens.theta, ens.y
    n, K = t.shape
    etj = np.zeros((n, K - 1))
    if model.n_states == 1:
        return etj, np.zeros((n, K - 1)), np.zeros((n, K - 1))
    tl, xl, thl, yl = t[:, :-1], x[:, :-1], th[:, :-1], y[:, :-1]
    p_here = p[:, :-1]

    def jump_to(j, mask):  # change of p on a switch to j, and its square
        diff = p_of(tl[mask], xl[mask], j, 0.0) - p_here[mask]
        return np.stack((diff, diff ** 2))

    etc, ets = regime_switch_sum(model, thl, yl, jump_to)
    rows, cols = np.nonzero(th[:, 1:] != thl)
    te, xe = t[rows, cols + 1], x[rows, cols + 1]
    left_age = yl[rows, cols] + (te - tl[rows, cols])
    etj[rows, cols] = (p_of(te, xe, th[rows, cols + 1], 0.0)
                       - p_of(te, xe, thl[rows, cols], left_age))
    return etj, etc, ets


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def _points(*args):
    """The arguments (t, x, u, i, y, ...) as at least 1-D arrays of their
    broadcast shape: floats, with the regime ``i`` (the fourth) as
    integers."""
    return np.broadcast_arrays(*(
        np.atleast_1d(np.asarray(a, dtype=int if k == 3 else float))
        for k, a in enumerate(args)))


def hamiltonian(t, x, u, i, y, adj: AdjointState, dyn: ControlledDynamics,
                objective: ObjectiveSpec):
    """H = f1 + b p + sigma q + lam sum_k w_k g_k (eta_k - p) over the mark
    nodes (gamma_k, w_k), at broadcast points of a scalar state.

    Returns an array of the points' broadcast shape, at least 1-D.  With
    zero jump coefficient this reduces to f1 + b p + sigma q.
    """
    t, x, u, i, y, p, q = _points(t, x, u, i, y, adj.p, adj.q)
    val = np.zeros(x.shape)
    if objective.running is not None:
        val += np.asarray(objective.running(t, x, u, i, y), dtype=float)
    val += np.asarray(dyn.drift(t, x, u, i), dtype=float) * p
    val += np.asarray(dyn.vol(t, x, u, i), dtype=float) * q
    if dyn.jump is not None:
        def jump_term(gam):
            g = np.asarray(dyn.jump(t, x, u, i, np.full_like(x, gam)), dtype=float)
            eta = 0.0 if adj.eta is None else np.asarray(adj.eta(gam), dtype=float)
            return g * (eta - p)
        val += dyn.marks.rate * dyn.marks.integrate(jump_term)
    return val


def grad_x_hamiltonian(t, x, u, i, y, adj: AdjointState, dyn: ControlledDynamics,
                       objective: ObjectiveSpec):
    """x-gradient of the Hamiltonian with (p, q, eta) frozen, by central
    differences with step 1e-5 * (1 + |x|); same call convention as
    :func:`hamiltonian`."""
    h = 1e-5 * (1.0 + np.abs(x))
    return (hamiltonian(t, x + h, u, i, y, adj, dyn, objective)
            - hamiltonian(t, x - h, u, i, y, adj, dyn, objective)) / (2 * h)


# ---------------------------------------------------------------------------
# Adjoint residual along paths
# ---------------------------------------------------------------------------

@dataclass
class ResidualStats:
    """Discrete BSDE residual summary.

    ``mean_path_total`` is the mean over paths of |sum_k R_k| (the statistic
    used for discretization-order checks); ``terminal_mismatch`` is the
    mean |p(T) - grad f2|.
    """

    mean_path_total: float
    terminal_mismatch: float


def adjoint_residual(ens: Ensemble, adj: AdjointPath, dyn: ControlledDynamics,
                     objective: ObjectiveSpec) -> ResidualStats:
    """Per-step residuals of the discrete adjoint equation along an ensemble.

    R_k = p_{k+1} - p_k - [ -grad_H_k dt_k + q_k dW_k
                            + eta-jump terms against compensated asset jumps
                            + eta-tilde terms against compensated regime jumps ].

    The terminal check takes grad_x f2 from ``objective.terminal_dx``, or
    by central difference from ``objective.terminal``; it is 0 without a
    terminal cost.
    """
    dts = np.diff(ens.t, axis=1)
    incr = -adj.grad_H * dts + adj.q[:, :-1] * ens.dW
    zeros = np.zeros_like(dts)
    for jump, comp in ((adj.eta_jump, adj.eta_comp),
                       (adj.etatilde_jump, adj.etatilde_comp)):
        incr = incr + (jump if jump is not None else zeros)
        incr = incr - (comp if comp is not None else zeros) * dts
    R = np.diff(adj.p, axis=1) - incr
    total = np.sum(np.where((dts > 0) | (np.abs(R) > 0), R, 0.0), axis=1)
    xT, iT, yT = ens.x[:, -1], ens.theta[:, -1], ens.y[:, -1]
    pT_target = 0.0  # grad f2 without a terminal cost
    if objective.terminal_dx is not None:
        pT_target = np.asarray(objective.terminal_dx(xT, iT, yT), dtype=float)
    elif objective.terminal is not None:
        h = 1e-6 * (1.0 + np.abs(xT))
        pT_target = (np.asarray(objective.terminal(xT + h, iT, yT), dtype=float)
                     - np.asarray(objective.terminal(xT - h, iT, yT),
                                  dtype=float)) / (2 * h)
    term = float(np.mean(np.abs(adj.p[:, -1] - pT_target)))
    return ResidualStats(mean_path_total=float(np.mean(np.abs(total))),
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
    an array of their broadcast shape, at least 1-D.  With exponential
    holding times and y-free V this reduces to the Markov-chain generator.
    """
    ta, xa, ua, ia, ya = _points(t, x, u, i, y)
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
        def shifted(gam):
            x_jump = xa + np.asarray(dyn.jump(ta, xa, ua, ia,
                                              np.full_like(xa, gam)), dtype=float)
            return np.asarray(V.v(ta, x_jump, ia, ya), dtype=float) - here
        val = val + dyn.marks.rate * dyn.marks.integrate(shifted)
    return val


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
                 dyn: ControlledDynamics, model: RegimeModel, t, x, i, y, u):
    """Residual f1 + G V of the HJB equation at the control ``u``, on
    points that broadcast as in :func:`generator_G`, with its return."""
    val = generator_G(V, t, x, i, y, u, dyn, model)
    if objective.running is None:
        return val
    return np.asarray(objective.running(*_points(t, x, u, i, y)),
                      dtype=float) + val


def hjb_terminal_mismatch(V: ValueFunctionStub, objective: ObjectiveSpec,
                          horizon: float, x, i, y) -> float:
    """max |V(T, x, i, y) - f2(x, i, y)| at the terminal time, with f2 = 0
    without a terminal cost."""
    ta, xa, _, ia, ya = _points(horizon, x, 0.0, i, y)
    vT = np.asarray(V.v(ta, xa, ia, ya), dtype=float)
    f2 = (0.0 if objective.terminal is None
          else np.asarray(objective.terminal(xa, ia, ya), dtype=float))
    return float(np.max(np.abs(vT - f2)))


# ---------------------------------------------------------------------------
# Adjoint from a value function (dynamic-programming connection)
# ---------------------------------------------------------------------------

def adjoint_from_value(V: ValueFunctionStub, ens: Ensemble,
                       dyn: ControlledDynamics, model: RegimeModel,
                       objective: ObjectiveSpec) -> AdjointPath:
    """Build the adjoint induced by a value function along an ensemble.

    p = V_x, q = sigma V_xx; the regime-jump slot is the closed forms' own
    (:func:`_regime_jump_slots` with p = V_x); the asset-jump slot is the
    V_x difference across the state shift x -> x + g at the left node, the
    form consistent with the generalized Ito formula.  ``grad_H`` is the
    central-difference x-gradient of the Hamiltonian with (p, q, eta)
    frozen at the left nodes.
    """
    t, x, th, y, u = ens.t, ens.x, ens.theta, ens.y, ens.u
    n, K = t.shape
    p = np.asarray(V.v_x(t, x, th, y), dtype=float)
    svals = _vol_nodes(dyn, ens)
    q = svals * np.asarray(V.v_xx(t, x, th, y), dtype=float)

    tl, xl, thl, yl, ul = (a[:, :-1] for a in (t, x, th, y, u))
    vx_here = p[:, :-1]
    etat_jump, etat_comp, etat_sq = _regime_jump_slots(model, ens, V.v_x, p)

    # asset-jump slot, eta(gamma) = V_x(x + g(x, gamma)) - V_x(x) frozen at
    # the left nodes; computed once per mark node, for the compensators and
    # the Hamiltonian alike
    eta = eta_jump = eta_comp = eta_sq = None
    if dyn.jump is not None:
        @cache
        def eta(gam):
            g = np.asarray(dyn.jump(tl, xl, ul, thl, np.full_like(tl, gam)),
                           dtype=float)
            return np.asarray(V.v_x(tl, xl + g, thl, yl), dtype=float) - vx_here

        eta_jump = np.zeros((n, K - 1))
        rows, cols, _, ie, marks = ens.jump_nodes
        cols = cols - 1  # the step that ends in the jump, at its left node
        te, xe, ye = (a[rows, cols] for a in (t, x, y))
        g = np.asarray(dyn.jump(te, xe, u[rows, cols], ie, marks), dtype=float)
        eta_jump[rows, cols] = (
            np.asarray(V.v_x(te, xe + g, ie, ye), dtype=float)
            - np.asarray(V.v_x(te, xe, ie, ye), dtype=float))
        eta_comp = dyn.marks.rate * dyn.marks.integrate(eta)
        eta_sq = dyn.marks.rate * dyn.marks.integrate(lambda gam: eta(gam) ** 2)

    grad_H = grad_x_hamiltonian(tl, xl, ul, thl, yl,
                                AdjointState(p[:, :-1], q[:, :-1], eta),
                                dyn, objective)
    return AdjointPath(p=p, q=q, eta_jump=eta_jump, eta_comp=eta_comp,
                       etatilde_jump=etat_jump, etatilde_comp=etat_comp,
                       grad_H=grad_H, eta_sq_comp=eta_sq,
                       etatilde_sq_comp=etat_sq)
