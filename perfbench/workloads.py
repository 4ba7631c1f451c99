"""The three benchmark workloads.

Each workload is built from a seed (set-up: imports, config validation and
model build happen in ``__init__``) and then called repeatedly.  A call
returns a :class:`CallResult` holding a digest of everything it produced and
the verdict of the workload's correctness gate.  Calls with the same seed
must produce byte-identical outputs.  ``call(proposals)`` takes an optional
list that collects a :class:`CountingRng` per thinning stream; traced runs
pass one to count thinning proposals.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from smjd import cli
from smjd.jump_diffusion import simulate_ensemble
from smjd.maximum_principle import adjoint_residual
from smjd.portfolio_examples import (RiskSensitiveModel, ql_adjoint,
                                     ql_dynamics, ql_objective,
                                     ql_phi_psi_markov, ql_policy,
                                     ql_u_coefficient, rs_adjoint,
                                     rs_dynamics, rs_objective,
                                     rs_phi_markov, rs_policy,
                                     rs_u_coefficient)
from smjd.rng import stream
from smjd.semi_markov import (RegimeState, simulate_regime_direct,
                              simulate_regime_thinning)

# Significance of the two-sample KS and chi-square gates on regime-samplers.
SAMPLER_ALPHA = 1e-4
# Residual-halving band and first-order tolerance of acceptance criteria 4/5.
RATIO_BAND = (0.35, 0.65)
FOC_TOL = 1e-8

# 2-state exponential regime model with the QL-with-jumps model of the
# acceptance tests (consistent variant), as CLI config sections.
EXP2_REGIME = {"kernel": [[0.0, 1.0], [1.0, 0.0]],
               "holding": [{"kind": "exponential", "rate": 1.0},
                           {"kind": "exponential", "rate": 1.5}]}
QL2_MODEL = {"kind": "ql", "r": [0.05, 0.03], "mbar": [0.4, 0.3],
             "sigma": [0.2, 0.25], "d": 1.0, "horizon": 1.0, "x0": 0.5,
             "i0": 0, "lambda_variant": "consistent",
             "jumps": {"rate": 2.0, "atoms": [-0.05, 0.08],
                       "weights": [0.4, 0.6], "coeff_scale": [1.0, 1.5]}}
# 3-state Weibull regime model of acceptance criterion 1.
WEIBULL3_REGIME = {"kernel": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5],
                              [0.5, 0.5, 0.0]],
                   "holding": [{"kind": "weibull", "shape": 1.5, "scale": 0.8},
                               {"kind": "weibull", "shape": 2.0, "scale": 1.0},
                               {"kind": "weibull", "shape": 1.2, "scale": 1.2}]}

OUTPUT_FILES = ("resolved_config.json", "results.csv", "report.json",
                "summary.txt")


@dataclass
class CallResult:
    digest: str
    ok: bool
    gate: str


class CountingRng:
    """Generator proxy that counts ``random()`` draws.

    The thinning sampler draws exactly one uniform per proposal (its
    acceptance test); target-state draws go through ``choice``.  The proxy
    delegates every draw, so the sequence and the outputs are unchanged.
    """

    def __init__(self, rng):
        self._rng = rng
        self.uniforms = 0

    def random(self, *args, **kwargs):
        self.uniforms += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def sample_events(sampler, model, origin, horizon, seed, tag, n_events,
                  counter=None):
    """Run ``sampler`` on streams (seed, tag, 0), (seed, tag, 1), ... until
    the paths hold ``n_events`` regime events; return the paths.

    With ``counter`` (a list), every stream is wrapped in
    :class:`CountingRng` and the proxies are appended to it.
    """
    paths, events = [], 0
    while events < n_events:
        rng = stream(seed, tag, len(paths))
        if counter is not None:
            rng = CountingRng(rng)
            counter.append(rng)
        paths.append(sampler(model, origin, horizon, rng))
        events += len(paths[-1].events)
    return paths


def holds_and_transitions(paths, n_states):
    """Holding times of completed sojourns and the transition counts."""
    holds: list[float] = []
    trans = np.zeros((n_states, n_states), dtype=np.int64)
    for p in paths:
        ts = [t for t, _ in p.events]
        ss = [p.origin.theta] + [s for _, s in p.events]
        holds.extend(b - a for a, b in zip([0.0] + ts[:-1], ts))
        np.add.at(trans, (ss[:-1], ss[1:]), 1)
    return np.array(holds), trans


class _CliWorkload:
    """A CLI command run in-process on a config written at set-up."""

    command = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg = self.config(seed)
        # set-up is what the CLI does before computing: validate and build
        resolved = cli.validate_config(cfg, self.command)
        cli.build_regime_model(resolved["regime"])
        cli.build_model(resolved)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(cfg))
        self.n_calls = 0

    def call(self, proposals=None) -> CallResult:
        out = self.workdir / f"out-{self.n_calls}"
        self.n_calls += 1
        try:
            rc = cli.main([self.command, "--config", str(self.config_path),
                           "--out", str(out)])
            files = [(out / name).read_bytes() for name in OUTPUT_FILES]
            report = json.loads(files[2])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        ok, gate = self.gate(rc, report)
        return CallResult(_sha(*files), ok, gate)


class VerifyQlJumps(_CliWorkload):
    """``ql-verify`` on the 2-state exponential QL model with asset jumps."""

    command = "ql-verify"

    def __init__(self, seed, workdir, n_paths=40, functional_paths=40):
        self.n_paths, self.functional_paths = n_paths, functional_paths
        super().__init__(seed, workdir)

    def config(self, seed):
        return {"experiment": self.command, "seed": seed,
                "regime": EXP2_REGIME, "model": QL2_MODEL,
                "numerics": {"n_paths": self.n_paths, "dt": 5e-2,
                             "functional_paths": self.functional_paths}}

    def gate(self, rc, report):
        # The verdict is a one-sided 2 SE test whose outcome depends on the
        # seed, so it is recorded, not gated.  Gated is what holds on every
        # seed: the exit status matches the verdict, the rule meets the
        # first-order condition, and under the shared noise the zero shift
        # gives an exactly zero gap.
        cand, neg = report["candidate"], report["negative_control"]
        zero = [p for r in (cand, neg) for p in r["perturbations"]
                if p["delta"] == 0.0 and p["kind"] == "shift"]
        coupled = len(zero) == 2 and all(p["dJ"] == 0.0 and p["se"] == 0.0
                                         for p in zero)
        ok = (rc == (0 if report["pass"] else 1) and cand["foc_pass"]
              and coupled and len(cand["perturbations"]) >= 20)
        return ok, (f"rc {rc}, verdict {'PASS' if report['pass'] else 'FAIL'}"
                    f", negative control detected: {neg['detected']}, "
                    f"first-order: {cand['foc_pass']}, zero shift exact: "
                    f"{coupled}")


class RegimeSamplers:
    """Both regime samplers on the 3-state Weibull model, horizon 50."""

    def __init__(self, seed, workdir, thinning_events=600,
                 direct_events=6_000):
        self.seed = seed
        self.thinning_events, self.direct_events = (thinning_events,
                                                    direct_events)
        self.regime_model = cli.build_regime_model(WEIBULL3_REGIME)
        self.origin, self.horizon = RegimeState(0, 0.0), 50.0

    def call(self, proposals=None) -> CallResult:
        args = (self.regime_model, self.origin, self.horizon, self.seed)
        p_t = sample_events(simulate_regime_thinning, *args, "bench-thin",
                            self.thinning_events, counter=proposals)
        p_d = sample_events(simulate_regime_direct, *args, "bench-direct",
                            self.direct_events)
        h_t, c_t = holds_and_transitions(p_t, self.regime_model.n_states)
        h_d, c_d = holds_and_transitions(p_d, self.regime_model.n_states)
        ks = stats.ks_2samp(h_d, h_t)
        off = [(i, j) for i in range(3) for j in range(3) if i != j]
        table = np.array([[c[i, j] for i, j in off] for c in (c_d, c_t)])
        p_chi = stats.chi2_contingency(table)[1]
        ok = ks.pvalue > SAMPLER_ALPHA and p_chi > SAMPLER_ALPHA
        gate = (f"KS p {ks.pvalue:.3g}, chi2 p {p_chi:.3g} "
                f"(both > {SAMPLER_ALPHA:g})")
        digest = _sha(h_t.tobytes(), c_t.tobytes(), h_d.tobytes(),
                      c_d.tobytes())
        return CallResult(digest, bool(ok), gate)


class ResidualOrder:
    """Acceptance criterion 4 at a fixed size, plus criterion 5's check."""

    # criterion 4's ladder times four: a quarter of the steps, so calls stay
    # short; every ratio stays near 0.5
    dts = (1.6e-2, 8e-3, 4e-3)
    n_paths = 200

    def __init__(self, seed, workdir):
        self.seed = seed
        self.regime_model = cli.build_regime_model(EXP2_REGIME)
        self.rs = RiskSensitiveModel(r=np.array([0.05, 0.03]),
                                     mu=np.array([0.05, 0.03]),
                                     sigma=np.array([0.2, 0.25]), gamma=0.5,
                                     horizon=1.0)
        self.ql = cli.build_model({"model": QL2_MODEL})
        self.t_nodes = np.linspace(0.0, 1.0, 2001)
        self.origin = RegimeState(0, 0.0)

    def _ladder(self, paths, dyn, pol, obj, x0, seed, adjoint, u_coeff):
        totals, terminal, chunks, u_max = [], True, [], 0.0
        for dt in self.dts:
            ens = simulate_ensemble(dyn, pol, paths, x0, dt, seed)
            adj = adjoint(ens)
            st = adjoint_residual(ens, adj, dyn, obj)
            totals.append(st.mean_path_total)
            terminal = terminal and st.terminal_mismatch == 0.0
            chunks.append(ens.x[:, -1].tobytes())
            if dt == self.dts[-1]:
                u_max = u_coeff(ens, adj)
        ratios = [totals[k + 1] / totals[k] for k in range(len(totals) - 1)]
        return ratios, terminal, chunks + [np.array(totals).tobytes()], u_max

    def call(self, proposals=None) -> CallResult:
        rm, rs, ql = self.regime_model, self.rs, self.ql
        paths = [simulate_regime_direct(rm, self.origin, 1.0,
                                        stream(self.seed, "regime", p))
                 for p in range(self.n_paths)]
        phi = rs_phi_markov(rs, rm, self.t_nodes, variant="literal")
        r_rs, term_rs, out_rs, u_rs = self._ladder(
            paths, rs_dynamics(rs), rs_policy(rs), rs_objective(rs), 1.0,
            self.seed + 1,
            lambda ens: rs_adjoint(rs, ens, phi, rm, variant="literal"),
            lambda ens, adj: rs_u_coefficient(rs, ens, adj))
        fns = ql_phi_psi_markov(ql, rm, self.t_nodes)
        r_ql, term_ql, out_ql, u_ql = self._ladder(
            paths, ql_dynamics(ql), ql_policy(ql, fns), ql_objective(ql), 0.5,
            self.seed + 2, lambda ens: ql_adjoint(ql, ens, fns, rm),
            lambda ens, adj: ql_u_coefficient(ql, ens, adj))
        lo, hi = RATIO_BAND
        ratios = r_rs + r_ql
        ok = (all(lo <= r <= hi for r in ratios) and term_rs and term_ql
              and u_rs < FOC_TOL and u_ql < FOC_TOL)
        gate = ("ratios RS " + "/".join(f"{r:.3f}" for r in r_rs)
                + " QL " + "/".join(f"{r:.3f}" for r in r_ql)
                + f" in [{lo}, {hi}], terminal exact: {term_rs and term_ql}"
                + f", max |u-coeff| {max(u_rs, u_ql):.1e} (< {FOC_TOL:g})")
        return CallResult(_sha(*out_rs, *out_ql), bool(ok), gate)


WORKLOADS = {
    "verify-ql-jumps": VerifyQlJumps,
    "regime-samplers": RegimeSamplers,
    "residual-order": ResidualOrder,
}
