"""Experiment harnesses certifying the optimality machinery empirically.

Three experiments:

* ``sufficiency_sweeps`` checks the candidate-optimality inequality
  J(u_hat) >= J(u) against a family of perturbed policies with shared-noise
  coupling: every policy is stepped on one noise plan (identical regime,
  Brownian, and jump draws), so the zero perturbation gives a bit-identical
  zero gap and small true gaps are resolvable.  The plan, built once by
  ``sufficiency_plan``, can serve several sweeps, stepped at once (the
  CLI's candidate and negative control are two sweeps).  Only a base whose u-coefficient is wanted is stepped by ``step_plan``;
  the other bases and every perturbed policy of every sweep are the rows
  of one stacked pass of the kernel (states (P, n), one law call per grid
  column per distinct base), each member's perturbation being data bound
  per column block and applied to its base's controls.  The pass rule is
  one-sided: dJ >= -2 SE.

* ``markov_reduction_experiment`` reruns an exponential-holding pipeline
  with an independent plain Markov-chain sampler and checks agreement of
  objective and functional estimates within 3 SE; non-exponential models
  get an explicit not-applicable status.

* ``dp_connection_experiment`` builds adjoints from a supplied value
  function, evaluates the backward-equation residual at several step
  sizes, and reports the convergence ratios and terminal mismatch.

All reports serialize to JSON dictionaries and flat CSV rows, and are
byte-reproducible from (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import AdmissibilityFailure, InvalidParameter, NonFinitePath
from .jump_diffusion import (ControlledDynamics, ControlPolicy, NoisePlan,
                             ObjectiveSpec, _ensemble, _step,
                             _with_terminal, build_plan, objective_paths,
                             running_cost_paths, simulate_ensemble, step_plan)
from .maximum_principle import ValueFunctionStub, adjoint_from_value, \
    adjoint_residual
from .portfolio_examples import _fk_moments, _sojourn_cumulative
from .rng import stream
from .semi_markov import (ExponentialHolding, RegimeModel, RegimePaths,
                          RegimeState, sample_regime_paths, simulate_ctmc)

__all__ = [
    "PerturbationFamily", "PerturbationResult", "SufficiencyReport",
    "sufficiency_plan", "sufficiency_sweeps",
    "MarkovReductionReport",
    "markov_reduction_experiment", "DpConnectionReport",
    "dp_connection_experiment", "default_perturbation_family",
]


# ---------------------------------------------------------------------------
# Perturbation families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationFamily:
    """A finite family of perturbations of a base policy.

    kind:
      * "shift": u + delta (or u + delta * x when ``relative``, which keeps
        proportional rules proportional);
      * "scale": u * (1 + delta);
      * "window": shift applied only for t in [window[0], window[1]];
      * "random": an independent constant per path, uniform on
        [-delta, delta], drawn from a dedicated stream.  Constant p belongs
        to path p of an ``n_paths``-path ensemble, so the rule raises
        ValueError when called on any other number of paths (the per-path
        simulator included).

    ``magnitudes`` must be nonempty and finite, a window needs start <=
    end, and "scale" has no relative form (InvalidParameter naming each).

    A perturbation is data: :meth:`terms` holds one row per member, and
    :meth:`perturb`, the reference rule, turns base controls of shape
    (rows, n) into the members' controls with one vectorized expression per
    kind.  Each policy of :meth:`policies` applies it to its base's rule, or,
    bound, to its base's column law.  The stacked sufficiency pass binds
    the same terms per column block (multiplier, additive term, window
    bumps), each row the bits of :meth:`perturb`.
    """

    base: ControlPolicy
    kind: str
    magnitudes: tuple
    relative: bool = False
    window: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("shift", "scale", "window", "random"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "window" and self.window is None:
            raise ValueError("window perturbations need a (start, end) window")
        d = np.asarray(self.magnitudes, dtype=float)
        for field, bad, need in (
                ("magnitudes", not d.size or not np.isfinite(d).all(),
                 "must be nonempty and finite"),
                ("window", self.window is not None
                 and not self.window[0] <= self.window[1],
                 "must have start <= end"),
                ("relative", self.relative and self.kind == "scale",
                 "must be False for a scale family")):
            if bad:
                raise InvalidParameter(field, f"{field} {need}, got "
                                       f"{getattr(self, field)!r}")

    def terms(self, seed: int, n_paths: int) -> np.ndarray:
        """One row per magnitude: delta for "shift" and "window" and
        1 + delta for "scale", each (rows, 1); for "random" the (rows,
        n_paths) constants, row idx drawn from stream (seed, "perturb",
        idx)."""
        d = np.array(self.magnitudes, dtype=float).reshape(-1, 1)
        if self.kind == "scale":
            return 1.0 + d
        if self.kind != "random":
            return d
        return np.array([stream(seed, "perturb", idx).uniform(
            -abs(delta), abs(delta), n_paths)
            for idx, delta in enumerate(d[:, 0])]).reshape(-1, n_paths)

    def perturb(self, term: np.ndarray, u, t, x):
        """The controls of the members whose :meth:`terms` rows are ``term``,
        from their base controls ``u`` at times ``t`` and states ``x``."""
        if self.kind == "scale":
            return u * term
        bump = term * x if self.relative else term
        if self.kind == "window":
            a, b = self.window
            bump = np.where((t >= a) & (t <= b), bump, 0.0)
        return u + bump

    def policies(self, seed: int, n_paths: int):
        """Yield (label, delta, policy) triples for every magnitude."""
        terms = self.terms(seed, n_paths)
        for idx, delta in enumerate(self.magnitudes):
            yield (f"{self.kind}[{idx}]", float(delta),
                   self._member(terms[idx], idx, n_paths))

    def _member(self, term: np.ndarray, idx: int,
                n_paths: int) -> ControlPolicy:
        def checked(t):
            if (self.kind == "random"
                    and (m := np.shape(np.atleast_1d(t))[0]) != n_paths):
                raise ValueError(
                    f"perturbation {self.kind}[{idx}] holds one constant "
                    f"per path of {n_paths} paths; called on {m}")
            return t

        def bind(t, i, y):
            law = self.base.law(checked(t), i, y)
            return lambda j, x: self.perturb(term, law(j, x), t[:, j], x)

        return ControlPolicy(rule=lambda t, x, i, y: self.perturb(
            term, self.base.rule(checked(t), x, i, y), t, x), bind=bind)


def default_perturbation_family(base: ControlPolicy, relative: bool,
                                horizon: float) -> list[PerturbationFamily]:
    """The default >= 20-member suite: shifts, scalings, window bumps, and
    random per-path constants at graded magnitudes (plus the exact zero
    shift as a coupling control)."""
    shifts = (0.0, 0.05, -0.05, 0.2, -0.2, 0.1, -0.1)
    scales = (0.05, -0.05, 0.2, -0.2, 0.5, -0.5)
    windows = (0.1, -0.1, 0.25, -0.25)
    randoms = (0.05, 0.1, 0.25)
    return [
        PerturbationFamily(base, "shift", shifts, relative=relative),
        PerturbationFamily(base, "scale", scales),
        PerturbationFamily(base, "window", windows, relative=relative,
                           window=(0.25 * horizon, 0.75 * horizon)),
        PerturbationFamily(base, "random", randoms, relative=relative),
    ]


# ---------------------------------------------------------------------------
# Sufficiency experiment
# ---------------------------------------------------------------------------

@dataclass
class PerturbationResult:
    label: str
    kind: str
    delta: float
    dJ: float
    se: float
    passed: bool

    def to_dict(self):
        return {"label": self.label, "kind": self.kind, "delta": self.delta,
                "dJ": self.dJ, "se": self.se, "pass": self.passed}


@dataclass
class SufficiencyReport:
    """Coupled-noise comparison of a candidate policy against a family.

    ``passed`` requires every perturbation gap to clear dJ >= -2 SE and the
    first-order/concavity flags (when evaluated) to hold.  The scope note
    records that only the listed finite family was tested, not the full
    admissible class.
    """

    j_hat: float
    se_hat: float
    results: list[PerturbationResult]
    u_coefficient_max: float | None = None
    foc_pass: bool | None = None
    concave_flag: bool | None = None
    n_paths: int = 0
    seed: int = 0
    scope: str = ("finite perturbation family only; not the full class of "
                  "admissible controls")

    @property
    def passed(self) -> bool:
        ok = all(r.passed for r in self.results)
        if self.foc_pass is not None:
            ok = ok and self.foc_pass
        if self.concave_flag is not None:
            ok = ok and self.concave_flag
        return ok

    def to_dict(self):
        return {"j_hat": self.j_hat, "se_hat": self.se_hat,
                "n_paths": self.n_paths, "seed": self.seed,
                "u_coefficient_max": self.u_coefficient_max,
                "foc_pass": self.foc_pass, "concave_flag": self.concave_flag,
                "pass": self.passed, "scope": self.scope,
                "perturbations": [r.to_dict() for r in self.results]}

    def csv_rows(self):
        """(perturbation_id, kind, delta, dJ, se, pass) per perturbation."""
        for pid, r in enumerate(self.results):
            yield (pid, r.kind, r.delta, r.dJ, r.se, int(r.passed))


def sufficiency_plan(dyn: ControlledDynamics, regime_model: RegimeModel,
                     i0: int, y0: float, horizon: float, n_paths: int,
                     dt: float, seed: int) -> NoisePlan:
    """The noise plan of :func:`sufficiency_sweeps`: regime paths from
    streams (seed, "regime", p), path noise from (seed, "paths", p).  Build
    it once to step several sweeps on the same noise."""
    regime_paths = sample_regime_paths(regime_model, RegimeState(i0, y0),
                                       horizon, n_paths, seed)
    return build_plan(dyn, regime_paths, dt, seed)


def sufficiency_sweeps(dyn: ControlledDynamics, objective: ObjectiveSpec,
                       sweeps: Sequence[tuple], plan: NoisePlan, x0,
                       seed: int, foc_tol: float = 1e-8
                       ) -> list[SufficiencyReport]:
    """One :class:`SufficiencyReport` per sweep (families, u_coefficient_fn
    or None), every sweep stepped on ``plan``, whose paths set ``n_paths``:
    dJ = J(base) - J(member) for every family member, a common-random-number
    estimate by construction, with dJ exactly 0 for the zero perturbation;
    the max |dH/du| that ``u_coefficient_fn`` reads off the base's ensemble
    is checked against ``foc_tol``.  ``seed`` keys the "random" members.

    A base whose u-coefficient is wanted is stepped by ``step_plan``; every
    other base (as an identity row, a zero scale) and every member of every
    sweep are rows of one stacked kernel pass, each row the bits of its own
    ``step_plan`` run (see :func:`_member_objectives`).  A sweep needs a
    family, all of one base, and the plan 2 paths (ValueError).  Sweep by
    sweep, a base that blows up raises its NonFinitePath, a non-finite base
    objective AdmissibilityFailure, and so does the first member, in family
    order, that blows up or has a non-finite objective, naming it.
    """
    n_paths = len(plan.regime_paths)
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")
    members, heads = [], []
    for families, u_fn in sweeps:
        if not families:
            raise InvalidParameter("families", "families must hold at "
                                   "least one perturbation family")
        base = families[0].base
        if any(fam.base != base for fam in families):
            raise ValueError("every family must perturb the same base policy")
        if u_fn is None:  # the head is the identity row's index
            head, u_max = len(members), None
            members.append((PerturbationFamily(base, "scale", (0.0,)), 0,
                            np.ones(1)))
        else:
            ens_hat = step_plan(dyn, base, plan, x0)
            head = _finite_base(objective_paths(ens_hat, objective))
            u_max = float(u_fn(ens_hat))
        members += [(fam, idx, term) for fam in families
                    for idx, term in enumerate(fam.terms(seed, n_paths))]
        heads.append((head, u_max, len(members)))
    first = {}  # the rows of one base adjacent: one law call per base
    order = sorted(range(len(members)), key=lambda r: first.setdefault(
        id(members[r][0].base), r))
    J = dict(zip(order, _member_objectives(
        dyn, objective, [members[r] for r in order], plan, x0)))

    reports, a = [], 0
    for head, u_max, b in heads:
        if u_max is None:
            if isinstance(J[head], NonFinitePath):
                raise J[head]
            head, a = _finite_base(J[head]), head + 1
        for r in range(a, b):
            (fam, idx, _), J_u = members[r], J[r]
            label, delta = f"{fam.kind}[{idx}]", float(fam.magnitudes[idx])
            if isinstance(J_u, NonFinitePath):
                raise AdmissibilityFailure(
                    f"perturbation {label} (delta={delta}) produced a "
                    f"non-finite path: {J_u}") from J_u
            if not np.all(np.isfinite(J_u)):
                raise AdmissibilityFailure(
                    f"perturbation {label} (delta={delta}) has a non-finite "
                    "objective")
        gap = head - np.array([J[r] for r in range(a, b)])
        dJ = gap.mean(axis=1).tolist()
        se = (gap.std(axis=1, ddof=1) / np.sqrt(n_paths)).tolist()
        reports.append(SufficiencyReport(
            j_hat=float(np.mean(head)),
            se_hat=float(np.std(head, ddof=1) / np.sqrt(n_paths)),
            results=[PerturbationResult(f"{fam.kind}[{idx}]", fam.kind,
                                        float(fam.magnitudes[idx]), d, e,
                                        bool(d >= -2.0 * e))
                     for (fam, idx, _), d, e in zip(members[a:b], dJ, se)],
            u_coefficient_max=u_max, n_paths=n_paths, seed=seed,
            foc_pass=None if u_max is None else u_max < foc_tol))
        a = b
    return reports


def _finite_base(J_hat: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(J_hat)):
        raise AdmissibilityFailure("base policy objective is non-finite")
    return J_hat


# Bytes of the stored (x, u) paths of one stacked chunk when the objective
# has a running cost; without one only the current states are kept.
_STACK_BYTES = 64 * 2 ** 20


def _member_objectives(dyn, objective, members, plan, x0):
    """Per-path objective of each member (family, idx, term row), or the
    NonFinitePath its simulation ended in, in member order.

    The members are stepped as one stack of policies, in chunks of rows
    whose stored paths fit in ``_STACK_BYTES`` when the objective has a
    running cost (a chunk may hold rows of several bases).  Each column
    makes one law call per distinct base on its rows' stacked states, and
    the perturbations are data bound per column block (:func:`_stacked_bind`),
    so every member's controls and states are the floating-point operations
    of its own policy.  Each row is then reduced by ``objective_paths``'
    expressions on its own (n,) row, under one errstate per chunk.
    """
    n, K = plan.t.shape
    keep = objective.running is not None
    rows = (max(1, _STACK_BYTES // (16 * n * K)) if keep
            else max(1, len(members)))
    out = []
    for a in range(0, len(members), rows):
        chunk = members[a:a + rows]
        x, u, failures = _step(dyn, _stacked_bind(chunk), plan, x0,
                               stack=len(chunk), keep=keep)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for p, exc in enumerate(failures):
                if exc is not None:
                    out.append(exc)
                    continue
                # without a running cost only the final states are kept
                J = (running_cost_paths(_ensemble(plan, x[p], u[p]), objective)
                     if keep else np.zeros(n))
                out.append(_with_terminal(J, objective,
                                          x[p][:, -1] if keep else x[p],
                                          plan.theta[:, -1], plan.y[:, -1]))
    return out


def _stacked_bind(members):
    """The binder of a stack of members (family, idx, term row).  Per column
    block it binds the law of each run of rows of one base once, and the
    perturbations as data: a multiplier (the scale term, else 1), an added
    term (shift and random terms, else -0.0, which keeps every value's
    bits) and the window rows' where(mask, term, 0.0).  Per column: one
    law call per base, ``law * mul + add`` into one (P, n) array, then the
    window bumps and the relative rows' ``term * x`` (masked in a window),
    each row the bits of :meth:`PerturbationFamily.perturb`.
    """
    P = len(members)
    bases, bumps, a = [], [], 0
    for base, run in groupby(members, key=lambda m: m[0].base):
        b = a + len(list(run))
        bases.append((base, slice(a, b)))
        a = b
    mul = np.ones((P, 1))
    add = np.full((P, max(term.size for *_, term in members)), -0.0)
    a = 0
    for _, run in groupby(members, key=lambda m: id(m[0])):
        run = list(run)
        fam, terms = run[0][0], np.array([term for *_, term in run])
        b = a + len(run)
        if fam.kind == "scale":
            mul[a:b] = terms
        elif fam.kind == "window" or fam.relative:
            bumps.append((fam, terms, slice(a, b)))
        else:
            add[a:b] = terms
        a = b

    def bind(t, i, y):
        n = t.shape[0]
        laws = [(base.law(t, i, y), rows) for base, rows in bases]
        # (rows, term, mask): term * x on the rows where the (B, n) mask
        # holds; without a term, the mask holds the rows' (B, ...) bumps
        cols = []
        for fam, terms, rows in bumps:
            mask = None
            if fam.kind == "window":
                mask = ((t >= fam.window[0]) & (t <= fam.window[1])).T
                if not fam.relative:
                    bump = np.where(mask[:, None], terms, 0.0)  # (B, R, n)
                    cols.append((rows, None, bump))
                    continue
            cols.append((rows, terms, mask))

        def law(j, x):
            us = [(f(j, x[rows]), rows) for f, rows in laws]
            out = np.empty((P, n))
            for u, rows in us:
                np.multiply(u, mul[rows], out=out[rows])
            out += add
            for rows, term, mask in cols:
                if term is None:
                    out[rows] += mask[j]
                elif mask is None:
                    out[rows] += term * x[rows]
                else:
                    out[rows] += np.where(mask[j], term * x[rows], 0.0)
            return out
        return law

    return bind


# ---------------------------------------------------------------------------
# Markov-reduction experiment
# ---------------------------------------------------------------------------

@dataclass
class MarkovReductionReport:
    """Exponential-holding cross-check against an independent chain sampler."""

    status: str                      # "ok" or "not-applicable"
    reason: str | None = None
    j_semi: float | None = None
    se_semi: float | None = None
    j_chain: float | None = None
    se_chain: float | None = None
    j_pass: bool | None = None
    phi_semi: float | None = None
    phi_se_semi: float | None = None
    phi_chain: float | None = None
    phi_se_chain: float | None = None
    phi_pass: bool | None = None

    @property
    def passed(self) -> bool:
        if self.status != "ok":
            return True  # gated out, nothing to fail
        ok = bool(self.j_pass)
        if self.phi_pass is not None:
            ok = ok and self.phi_pass
        return ok

    def to_dict(self):
        return {k: getattr(self, k) for k in
                ("status", "reason", "j_semi", "se_semi", "j_chain",
                 "se_chain", "j_pass", "phi_semi", "phi_se_semi",
                 "phi_chain", "phi_se_chain", "phi_pass")} | {"pass": self.passed}


def markov_reduction_experiment(dyn: ControlledDynamics, policy: ControlPolicy,
                                objective: ObjectiveSpec,
                                regime_model: RegimeModel, x0, i0: int,
                                horizon: float, n_paths: int, dt: float,
                                seed: int,
                                phi_rates: np.ndarray | None = None
                                ) -> MarkovReductionReport:
    """Compare the semi-Markov pipeline against a plain chain sampler.

    Applicable only when every holding distribution is exponential (the
    (state, age) process then reduces to a Markov chain with rates
    lambda_i p_ij).  The two runs use independent noise, so agreement is
    judged at 3 combined standard errors.  When ``phi_rates`` is given, the
    per-regime functional E[int c dt] from the start state is compared as
    well.
    """
    if not all(isinstance(h, ExponentialHolding) for h in regime_model.holding):
        kinds = sorted({type(h).__name__ for h in regime_model.holding})
        return MarkovReductionReport(
            status="not-applicable",
            reason=f"non-exponential holding distributions: {', '.join(kinds)}")
    rates = [h.rate for h in regime_model.holding]
    origin = RegimeState(i0, 0.0)

    semi_paths = sample_regime_paths(regime_model, origin, horizon, n_paths,
                                     seed)
    chain_paths = RegimePaths.of([simulate_ctmc(
        rates, regime_model.kernel, origin, horizon, stream(seed, "chain", p))
        for p in range(n_paths)])

    ens_a = simulate_ensemble(dyn, policy, semi_paths, x0, dt, seed,
                              stream_tag="paths")
    ens_b = simulate_ensemble(dyn, policy, chain_paths, x0, dt, seed,
                              stream_tag="paths-chain")
    def compare(per_path):
        """Semi-Markov mean and SE, chain mean and SE, and their agreement
        within 3 combined SE, of the two runs' values of shape (n_paths, 1)."""
        mean, se = _fk_moments(np.stack(per_path), 1.0, "integral")
        (a, b), (sa, sb) = mean[:, 0].tolist(), se[:, 0].tolist()
        return a, sa, b, sb, bool(abs(a - b)
                                  <= 3.0 * max(np.hypot(sa, sb), 1e-15))

    j_semi, se_semi, j_chain, se_chain, j_pass = compare(
        [objective_paths(e, objective)[:, None] for e in (ens_a, ens_b)])
    phi_fields = {}
    if phi_rates is not None:
        c = np.asarray(phi_rates, dtype=float)
        phi_fields = dict(zip(
            ("phi_semi", "phi_se_semi", "phi_chain", "phi_se_chain",
             "phi_pass"),
            compare([_sojourn_cumulative(p, c, np.array([horizon]))
                     for p in (semi_paths, chain_paths)])))
    return MarkovReductionReport(status="ok", j_semi=j_semi, se_semi=se_semi,
                                 j_chain=j_chain, se_chain=se_chain,
                                 j_pass=j_pass, **phi_fields)


# ---------------------------------------------------------------------------
# Dynamic-programming connection experiment
# ---------------------------------------------------------------------------

@dataclass
class DpConnectionReport:
    """Residual-order summary for value-function-induced adjoints."""

    dts: list[float]
    residuals: list[float]
    ratios: list[float]
    terminal_mismatch: float

    @property
    def order_consistent(self) -> bool:
        """True when every halving ratio sits in the first-order band."""
        return all(0.35 <= r <= 0.65 for r in self.ratios)

    def to_dict(self):
        return {"dts": self.dts, "residuals": self.residuals,
                "ratios": self.ratios,
                "terminal_mismatch": self.terminal_mismatch,
                "order_consistent": self.order_consistent}


def dp_connection_experiment(V: ValueFunctionStub, dyn: ControlledDynamics,
                             policy: ControlPolicy, objective: ObjectiveSpec,
                             regime_model: RegimeModel, x0, i0: int, y0: float,
                             horizon: float, n_paths: int,
                             dts: Sequence[float], seed: int) -> DpConnectionReport:
    """Adjoints from V along simulated paths: residual vs step size.

    Every step size reuses the same regime paths and the same per-path
    stream keys (seed, "paths", p).  The Brownian paths are not nested
    across step sizes: each step size draws fresh normals scaled by its own
    steps, so the ratios mix discretization error with sampling noise.
    Coupling the levels, with each coarse increment the sum of the fine
    ones (coupled multi-resolution noise), is open work.
    """
    regime_paths = sample_regime_paths(regime_model, RegimeState(i0, y0),
                                       horizon, n_paths, seed)
    residuals, terminal = [], 0.0
    for dt in dts:
        ens = simulate_ensemble(dyn, policy, regime_paths, x0, dt, seed)
        adj = adjoint_from_value(V, ens, dyn, regime_model, objective)
        res = adjoint_residual(ens, adj, dyn, objective)
        residuals.append(res.mean_path_total)
        terminal = res.terminal_mismatch
    ratios = [residuals[k + 1] / residuals[k] if residuals[k] > 0 else float("nan")
              for k in range(len(residuals) - 1)]
    return DpConnectionReport(dts=list(map(float, dts)), residuals=residuals,
                              ratios=ratios, terminal_mismatch=terminal)
