"""Controlled jump-diffusion simulation under semi-Markov regime switching.

State dynamics between events follow an Euler-Maruyama step; asset jumps
arrive on an independent Poisson clock with marks drawn from the jump
distribution, and every regime-event and jump-event time is inserted into
the time grid exactly, so coefficients switch at the true event times.
The jump integral is uncompensated: at a jump the state moves by
g(t, X(t-), u(t-), theta(t-), mark).

Coefficient call convention: scalar-state callables work element by
element on arguments of one shape (times, states, controls, regime indices,
marks) and return that shape.  The stepping kernel passes (n,) columns
(states (n, r) when dim > 1); the Hamiltonian, the generator G and the
adjoints pass whole ensemble grids, one call per mark node for a jump
integral.  The kernel steps through the policy's column law
(:meth:`ControlPolicy.law`) on the state; it keeps a returned float64
(n,) array as it is, never writing into it, and copies anything else that
broadcasts to (n,) (a Python scalar, a 0-d or integer array) to float;
it calls the coefficients through :meth:`ControlledDynamics.laws`.  The
running cost is called once on all n*K grid points, flattened.

Simulation has two parts.  :func:`build_plan` fixes every path's noise --
jump times and marks, the event grid, the Brownian increments and the
regime values on the grid -- in a read-only :class:`NoisePlan`;
:func:`step_plan` then runs a policy on it.  Only the draws are made path
by path, from the path's own generator; the grids and regime values are
laid out for the whole ensemble at once.  Every policy stepped on one plan
sees the same draws, so shared-noise coupling holds by construction.
:func:`simulate_ensemble` is ``build_plan`` then ``step_plan``.

Stacked call convention: the kernel also steps P policies at once on one
plan (the sufficiency sweeps' perturbation families and bases).  States
are then (P, n) ((P, n, r) when dim > 1) and controls (P, n), while the t,
regime, age and mark columns stay (n,): the stack's law is called once per
column, making one law call per distinct base policy on its rows' stacked
states, and the drift, vol and jump coefficients are called once per
column for all P.  So rules and coefficients used in a stacked pass must
broadcast a leading policy axis against the (n,) columns (for dim > 1,
index state coordinates as ``x[..., j]``); every library rule and
coefficient does.  Elementwise expressions then give each row the bits its
own single-policy run gives.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter, NonFinitePath
from .rng import stream
from .semi_markov import RegimePath, RegimePaths, _cdf_table

__all__ = [
    "MarkMeasure", "ControlledDynamics", "ControlPolicy", "ObjectiveSpec",
    "Ensemble", "NoisePlan", "build_plan", "step_plan", "simulate_ensemble",
    "running_cost_paths", "objective_paths",
]

_BLOCK_FLOATS = 2 ** 16  # floats in the (n, B) column blocks a policy binds


# ---------------------------------------------------------------------------
# Mark measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkMeasure:
    """Jump rate plus mark distribution with a moment oracle.

    Discrete marks are given by (atoms, weights) and integrate exactly;
    continuous marks by a density on a bounded interval, integrated with
    64-node Gauss-Legendre quadrature.
    """

    rate: float
    atoms: np.ndarray | None = None
    weights: np.ndarray | None = None
    density: Callable[[np.ndarray], np.ndarray] | None = None
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("jump rate must be positive")
        if self.atoms is not None:
            atoms = np.asarray(self.atoms, dtype=float)
            weights = np.asarray(self.weights, dtype=float)
            if self.weights is None or weights.shape != atoms.shape:
                raise InvalidParameter("weights", "discrete mark weights "
                                       "must pair up with the atoms")
            if abs(weights.sum() - 1.0) > 1e-12 or np.any(weights < 0):
                raise InvalidParameter(
                    "weights", "discrete mark weights must be nonnegative "
                    "and sum to 1")
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "weights", weights)
        elif self.density is not None:
            if self.support is None:
                raise ValueError("continuous marks need a bounded support")
            if abs(self.integrate(lambda g: 1.0) - 1.0) > 1e-8:
                raise ValueError("mark density must integrate to 1 on its support")
        else:
            raise ValueError("provide discrete atoms/weights or a density")

    @property
    def discrete(self) -> bool:
        return self.atoms is not None

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature points and weights of pi: the atoms and their weights,
        or the Gauss-Legendre(64) points of the support with weights
        0.5 (hi - lo) w density, built once per measure."""
        return self._quadrature

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        if self.discrete:
            return self.atoms, self.weights
        lo, hi = self.support
        x, w = np.polynomial.legendre.leggauss(64)
        g = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        return g, 0.5 * (hi - lo) * w * np.asarray(self.density(g), dtype=float)

    def integrate(self, f: Callable[[float], float | np.ndarray]):
        """Integral of f against pi: sum_k w_k f(gamma_k) over :meth:`nodes`,
        added node by node from 0.0.  ``f`` takes one node and may return an
        array; a scalar integral is returned as a float."""
        total = 0.0
        for g, w in zip(*self.nodes()):
            total = total + w * np.asarray(f(g), dtype=float)
        return float(total) if np.ndim(total) == 0 else total

    @cached_property
    def _sampling_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(cdf, values) of the inverse-cdf draw, built once per measure:
        ``Generator.choice``'s table of the atoms, or the trapezoid cdf of
        the density tabulated on 4097 nodes of the support."""
        if self.discrete:
            return _cdf_table(self.weights), self.atoms
        lo, hi = self.support
        grid = np.linspace(lo, hi, 4097)
        pdf = np.asarray(self.density(grid), dtype=float)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
        cdf /= cdf[-1]
        return cdf, grid

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cdf, values = self._sampling_table
        if self.discrete:  # equals rng.choice(atoms, size=n, p=weights)
            return values[cdf.searchsorted(rng.random(n), side="right")]
        return np.interp(rng.random(n), cdf, values)


# ---------------------------------------------------------------------------
# Dynamics, policies, objectives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlledDynamics:
    """Coefficient functions of the controlled SDE.

    ``drift``/``vol``/``jump`` have signatures (t, x, u, i) -> like x,
    with ``jump`` additionally taking the mark array as the last argument.
    For scalar models (dim == 1) states are shaped like the other arguments
    and ``vol`` returns the single diffusion coefficient; for dim > 1, x is
    (n, r), drift returns (n, r), vol returns (n, r, r) and jump (n, r).

    Optional ``bind(t, i, nodes)`` computes the state-free factors once on
    (n, B) column blocks of a plan's t, theta and jump nodes (times, left
    regimes, marks: :attr:`NoisePlan.jump_nodes`); its laws ``drift(j, x,
    u)``, ``vol(j, x, u)`` and ``jump(s, x, u)`` equal bit for bit the raw
    calls at column j and at the nodes s selects (x, u at their rows).  A
    copy with other coefficients must set ``bind=None``.
    """

    dim: int
    drift: Callable
    vol: Callable
    jump: Callable | None = None
    marks: MarkMeasure | None = None
    bind: Callable | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("state dimension must be >= 1")
        if (self.jump is None) != (self.marks is None):
            raise ValueError("jump coefficient and mark measure go together")

    def laws(self, t, i, nodes) -> tuple:
        """``bind``'s (drift, vol, jump) laws, or raw coefficient calls."""
        nt, ni, nm = nodes
        return self.bind(t, i, nodes) if self.bind else (
            lambda j, x, u: self.drift(t[:, j], x, u, i[:, j]),
            lambda j, x, u: self.vol(t[:, j], x, u, i[:, j]),
            lambda s, x, u: self.jump(nt[s], x, u, ni[s], nm[s]))


@dataclass(frozen=True)
class ControlPolicy:
    """Markov control rule u(t, x, i, y), evaluated with left-limit arguments.

    ``control_set`` is an optional (lo, hi) box used by admissibility checks
    and Hamiltonian maximization; None means all of R^m.  Optional ``bind(t,
    i, y)`` computes the rule's state-free factors on (n, B) column blocks
    once and returns ``law(j, x)``, equal bit for bit to ``rule(t[:, j], x,
    i[:, j], y[:, j])``; it may raise what the rule raises on the block.
    """

    rule: Callable
    control_set: tuple[float, float] | None = None
    bind: Callable | None = None

    def law(self, t, i, y) -> Callable:
        """``bind``'s column law, or without it one rule call per column."""
        return self.bind(t, i, y) if self.bind else (
            lambda j, x: self.rule(t[:, j], x, i[:, j], y[:, j]))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Running cost f1(t, x, u, i, y) and terminal cost f2(x, i, y).

    ``terminal_dx`` is an optional analytic x-gradient of f2, read by the
    adjoint residual's terminal check.
    """

    running: Callable | None
    terminal: Callable | None
    terminal_dx: Callable | None = None


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NoisePlan:
    """Every random draw of an ensemble, fixed before any policy runs.

    Row p holds path p's event grid ``t``, padded by repeating its final
    node with zero-length steps (so column reductions need no mask), its
    Brownian increments ``dW``, its asset jumps (``jump_mask``,
    ``jump_marks``) and its cadlag regime values ``theta`` and ``y``.  None
    of them depends on the control, so any number of policies can be
    stepped on one plan with :func:`step_plan`; the arrays are read-only
    and shared by every :class:`Ensemble` stepped on it.  ``marks`` is the
    mark measure the jumps were drawn from and :attr:`dim` the state
    dimension of ``dW``; :func:`step_plan` refuses dynamics with any other.
    """

    t: np.ndarray           # (n, K)
    dW: np.ndarray          # (n, K-1) or (n, K-1, r) Brownian increments
    jump_mask: np.ndarray   # (n, K) bool: asset jump applied at this node
    jump_marks: np.ndarray  # (n, K) mark value where jump_mask (else 0)
    theta: np.ndarray       # (n, K) int
    y: np.ndarray           # (n, K)
    regime_paths: RegimePaths
    marks: MarkMeasure | None

    @property
    def dim(self) -> int:
        """State dimension the Brownian increments were drawn for."""
        return 1 if self.dW.ndim == 2 else self.dW.shape[2]

    @cached_property
    def jump_nodes(self) -> tuple:
        """(rows, cols, t, theta[row, col - 1], mark) of the jumps the kernel
        applies (columns >= 1), by column; theta at col - 1 is the left
        limit, as every regime event is a grid node."""
        cols, rows = np.nonzero(self.jump_mask[:, 1:].T)
        cols += 1
        return (rows, cols, self.t[rows, cols], self.theta[rows, cols - 1],
                self.jump_marks[rows, cols])


@dataclass(frozen=True, eq=False)
class Ensemble(NoisePlan):
    """A :class:`NoisePlan` plus the paths ``x`` and ``u`` of one policy
    stepped on it; every plan field is the plan's own object."""

    x: np.ndarray           # (n, K) or (n, K, r)
    u: np.ndarray           # (n, K) or (n, K, m)

    @property
    def n_paths(self) -> int:
        return self.t.shape[0]


# ---------------------------------------------------------------------------
# Per-path draw protocol
# ---------------------------------------------------------------------------

def _draw_jumps(dyn: ControlledDynamics, horizon: float,
                rng: np.random.Generator):
    if dyn.marks is None:
        return np.empty(0), np.empty(0)
    n = rng.poisson(dyn.marks.rate * horizon)
    times = np.sort(rng.uniform(0.0, horizon, size=n))
    marks = dyn.marks.sample(rng, n)
    return times, marks


# ---------------------------------------------------------------------------
# Noise plan and stepping kernel
# ---------------------------------------------------------------------------

def build_plan(dyn: ControlledDynamics, regime_paths: Sequence[RegimePath],
               dt: float, seed: int, stream_tag: str = "paths") -> NoisePlan:
    """Draw the noise of one path per regime path.

    Path p draws from stream (seed, stream_tag, p): Poisson jump count, jump
    times, jump marks, then one standard-normal vector per step of its grid
    in grid order.  No regime path, mixed horizons or a ``dt`` of twice the
    horizon or more raise ValueError.
    """
    return _draw_plan(dyn, regime_paths, dt,
                      (stream(seed, stream_tag, p)
                       for p in range(len(regime_paths))))


def _draw_plan(dyn, regime_paths, dt, rngs) -> NoisePlan:
    """Draw each path's jumps, then its normals straight into its row of
    dW, from its generator in ``rngs``.  In between, one pass lays out the
    ensemble: the event and jump times, sorted by (path, time), are merged
    into the base grid, and theta and y are the cadlag regime values at a
    per-row count of the event columns."""
    if not len(regime_paths):
        raise ValueError("a noise plan needs at least one regime path, got 0")
    paths = RegimePaths.of(regime_paths)
    rngs = list(rngs)
    n, horizon = len(rngs), paths.horizon
    steps = int(round(horizon / dt))
    if steps < 1:
        raise ValueError(f"dt {dt} gives no step on [0, {horizon}]")
    jump_t, jump_m = zip(*(_draw_jumps(dyn, horizon, rng) for rng in rngs))
    base = np.linspace(0.0, horizon, steps + 1)
    B = base.size
    times = np.concatenate((paths.times, *jump_t))  # events, then jumps
    rows = np.repeat(np.tile(np.arange(n), 2), np.concatenate((
        np.diff(paths.offsets), [a.size for a in jump_t])))
    order = np.lexsort((times, rows))
    r, x = rows[order], times[order]
    pos = np.searchsorted(base, x)
    dup = np.concatenate(([False], (r[1:] == r[:-1]) & (x[1:] == x[:-1])))
    new = ~dup & (base[np.minimum(pos, B - 1)] != x)
    n_new = np.bincount(r[new], minlength=n)
    # column: base nodes before the time plus its row's new times before
    # it; a repeated time takes the column of its first copy
    col = pos + np.cumsum(new) - new - (np.cumsum(n_new) - n_new)[r]
    col = col[np.maximum.accumulate(np.where(dup, 0, np.arange(x.size)))]
    L = B + n_new
    t = np.full((n, int(L.max())), horizon)
    t[r[new], col[new]] = x[new]
    # base node b moves right by its row's new times before it
    shift = np.bincount(r[new] * B + pos[new], minlength=n * B).reshape(n, B)
    np.cumsum(shift, axis=1, out=shift)
    shift += np.arange(B)
    t[np.arange(n)[:, None], shift] = base
    del shift

    E = paths.times.size
    jump = order >= E
    jump_mask = np.zeros(t.shape, dtype=bool)
    jump_marks = np.zeros(t.shape)
    jump_mask[r[jump], col[jump]] = True
    jump_marks[r[jump], col[jump]] = np.concatenate(jump_m)[order[jump] - E]
    theta, y = paths._cadlag(t, col[~jump])  # events in table order

    dW = np.zeros((n, t.shape[1] - 1) + ((dyn.dim,) if dyn.dim > 1 else ()))
    for p, rng in enumerate(rngs):
        rng.standard_normal(out=dW[p, : L[p] - 1])
    steps = np.diff(t, axis=1)
    np.sqrt(steps, out=steps)
    dW *= steps if dyn.dim == 1 else steps[..., None]
    for a in (t, dW, jump_mask, jump_marks, theta, y):
        a.flags.writeable = False
    return NoisePlan(t=t, dW=dW, jump_mask=jump_mask, jump_marks=jump_marks,
                     theta=theta, y=y, regime_paths=paths, marks=dyn.marks)


def _step(dyn: ControlledDynamics, bind: Callable, plan: NoisePlan, x0,
          stack: int | None = None, keep: bool = True):
    """Step every path of ``plan`` under the policy that ``bind`` binds to
    blocks of ``_BLOCK_FLOATS // n`` columns (:meth:`ControlPolicy.law`:
    a policy with only a rule is called column by column) and the dynamics'
    laws on them (:meth:`ControlledDynamics.laws`); returns (x, u,
    failures).  One policy (``stack`` None): states are (n,) ((n, r) when
    dim > 1), x and u the (n, K) paths, and the first non-finite state
    raises NonFinitePath.  ``stack`` = P steps P policies, bound together,
    on states (P, n) ((P, n, r)): x and u are (P, n, K) paths, or, without
    ``keep``, x the final states and u None.  Row p's failure is
    its first NonFinitePath, or None; a failed row goes on from x0 so the
    others are stepped on finite values.
    """
    t, dW, theta, y = plan.t, plan.dW, plan.theta, plan.y
    n, K = t.shape
    scalar = dyn.dim == 1
    dts = np.diff(t, axis=1)
    lead = () if stack is None else (stack,)
    shape = lead + (n,)
    # index of column(s) c of the state, whatever the leading axes
    at = (lambda c: (Ellipsis, c)) if scalar else (
        lambda c: (Ellipsis, c, slice(None)))

    x = (np.full(shape, float(x0)) if scalar
         else np.tile(np.asarray(x0, dtype=float), shape + (1,)))
    x_start = x.copy()
    if keep:
        xs = np.empty(shape + (K,) + ((dyn.dim,) if not scalar else ()))
        us = np.empty(shape + (K,))
    failures = [None] * (stack or 0)
    u_prev = np.zeros(shape)
    B = max(1, _BLOCK_FLOATS // n)
    # column k's jumps are the nodes cut[k]:cut[k + 1]
    rows, cols, *nodes = plan.jump_nodes
    cut = cols.searchsorted(np.arange(K + 1)).tolist()
    for k in range(K):
        j = k % B
        if j == 0:
            tb, ib, yb = (a[:, k:k + B] for a in (t, theta, y))
            law = bind(tb, ib, yb)
            a0 = cut[k]
            drift, vol, jump = dyn.laws(tb, ib, [v[a0:cut[min(k + B, K)]]
                                                 for v in nodes])
        if cut[k] < cut[k + 1]:
            idx = rows[cut[k]:cut[k + 1]]
            x_idx = x[at(idx)]
            gval = jump(slice(cut[k] - a0, cut[k + 1] - a0), x_idx,
                        u_prev[..., idx])
            x = x.copy()
            x[at(idx)] = x_idx + gval
        uk = law(j, x)
        if type(uk) is not np.ndarray or uk.dtype != float or uk.shape != shape:
            uk = np.broadcast_to(np.asarray(uk, dtype=float), shape).astype(float)
        if keep:
            xs[at(k)], us[..., k] = x, uk
        if k == K - 1:
            break
        delta = dts[:, k]
        b, s = drift(j, x, uk), vol(j, x, uk)
        if scalar:
            x = x + b * delta + s * dW[:, k]
        else:
            x = x + b * delta[:, None] + np.einsum("...ij,...j->...i", s,
                                                   dW[:, k])
        if not np.isfinite(x).all():
            # (policies, paths): one row for a single policy
            finite = np.isfinite(x).reshape(-1, n, dyn.dim).all(axis=2)
            for row in np.nonzero(~finite.all(axis=1))[0]:
                bad = int(np.nonzero(~finite[row])[0][0])
                exc = NonFinitePath(f"non-finite state at column {k + 1} "
                                    f"(t={t[bad, k + 1]:.6g})", path_index=bad)
                if stack is None:
                    raise exc
                if failures[row] is None:
                    failures[row] = exc
                x[row] = x_start[row]
        u_prev = uk
    return (xs, us, failures) if keep else (x, None, failures)


def _ensemble(plan: NoisePlan, x: np.ndarray, u: np.ndarray) -> Ensemble:
    """The ensemble of paths x, u stepped on ``plan``: every plan field is
    the plan's own object."""
    return Ensemble(x=x, u=u, **{f.name: getattr(plan, f.name)
                                 for f in fields(NoisePlan)})


def step_plan(dyn: ControlledDynamics, policy: ControlPolicy,
              plan: NoisePlan, x0) -> Ensemble:
    """Step ``policy`` from ``x0`` on every path of ``plan``.

    Every policy stepped on one plan sees its regime, Brownian and jump
    draws (shared-noise coupling), and the ensemble shares the plan's
    arrays.  A plan drawn for another state dimension or mark measure than
    ``dyn``'s raises ValueError naming it.
    """
    for field, want, same in (("dim", dyn.dim, plan.dim == dyn.dim),
                              ("marks", dyn.marks, plan.marks is dyn.marks)):
        if not same:
            raise ValueError(f"plan was built for another {field}: "
                             f"{getattr(plan, field)!r}, not {want!r}")
    return _ensemble(plan, *_step(dyn, policy.law, plan, x0)[:2])


def simulate_ensemble(dyn: ControlledDynamics, policy: ControlPolicy,
                      regime_paths: Sequence[RegimePath], x0, dt: float,
                      seed: int, stream_tag: str = "paths") -> Ensemble:
    """Simulate one path per regime path, vectorized across the ensemble:
    :func:`step_plan` on ``build_plan(dyn, regime_paths, dt, seed,
    stream_tag)``.  To step several policies on shared noise, build the
    plan once and step each on it.
    """
    return step_plan(dyn, policy,
                     build_plan(dyn, regime_paths, dt, seed, stream_tag), x0)


# ---------------------------------------------------------------------------
# Objective estimation
# ---------------------------------------------------------------------------

def running_cost_paths(ens: Ensemble, objective: ObjectiveSpec) -> np.ndarray:
    """Per-path trapezoidal integral of the running cost on the path grid."""
    if objective.running is None:
        return np.zeros(ens.n_paths)
    # one call on the n*K points: x (n*K,), or (n*K, r) when dim > 1
    n, K = ens.t.shape
    vals = np.empty((n, K))
    vals.reshape(-1)[:] = objective.running(*(
        a.reshape((n * K,) + a.shape[2:])
        for a in (ens.t, ens.x, ens.u, ens.theta, ens.y)))
    dts = np.diff(ens.t, axis=1)
    return np.sum(0.5 * (vals[:, 1:] + vals[:, :-1]) * dts, axis=1)


def objective_paths(ens: Ensemble, objective: ObjectiveSpec) -> np.ndarray:
    """Per-path objective: running integral plus terminal cost."""
    return _with_terminal(running_cost_paths(ens, objective), objective,
                          ens.x[:, -1], ens.theta[:, -1], ens.y[:, -1])


def _with_terminal(J: np.ndarray, objective: ObjectiveSpec, x, theta, y):
    """Running part ``J`` plus the terminal cost at the final states."""
    if objective.terminal is not None:
        J = J + np.asarray(objective.terminal(x, theta, y), dtype=float)
    return J

