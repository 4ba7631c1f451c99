"""Acceptance suite: nine headline checks, one printed verdict line each.

Each test prints a single ``[criterion N] PASS/FAIL`` line directly to the
terminal (bypassing capture) and then asserts, so a full ``pytest`` run
shows the verdict table regardless of verbosity settings.
"""
import json
import time

import numpy as np
import pytest
from scipy import stats

from smjd.cli import main
from smjd.jump_diffusion import (ControlPolicy, MarkMeasure,
                                 simulate_ensemble)
from smjd.maximum_principle import adjoint_residual
from smjd.portfolio_examples import (QuadraticLossModel, RiskSensitiveModel,
                                     ql_adjoint, ql_dynamics, ql_objective,
                                     ql_phi_psi, ql_phi_psi_markov, ql_policy,
                                     ql_u_coefficient, rs_adjoint,
                                     rs_dynamics, rs_objective,
                                     rs_phi_functional, rs_phi_markov,
                                     rs_policy, rs_u_coefficient)
from smjd.rng import stream
from smjd.semi_markov import (ExponentialHolding, RegimeModel, RegimeState,
                              WeibullHolding, apply_generator_L,
                              dynkin_statistics, sample_regime_paths,
                              simulate_regime_direct,
                              simulate_regime_thinning)
from smjd.verification import (default_perturbation_family,
                               markov_reduction_experiment, sufficiency_plan,
                               sufficiency_sweeps)


def _verdict(capsys, n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _two_regime():
    return RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                       holding=(ExponentialHolding(1.0),
                                ExponentialHolding(1.5)))


def _paths(rm, n, horizon, seed, i0=0, y0=0.0):
    return sample_regime_paths(rm, RegimeState(i0, y0), horizon, n, seed)


def _rs_model():
    return RiskSensitiveModel(r=np.array([0.05, 0.03]),
                              mu=np.array([0.13, 0.105]),
                              sigma=np.array([0.2, 0.25]), gamma=0.5,
                              horizon=1.0)


def _ql_model():
    marks = MarkMeasure(rate=2.0, atoms=np.array([-0.05, 0.08]),
                        weights=np.array([0.4, 0.6]))
    return QuadraticLossModel(r=np.array([0.05, 0.03]),
                              mbar=np.array([0.4, 0.3]),
                              sigma=np.array([0.2, 0.25]), d=1.0, horizon=1.0,
                              marks=marks,
                              jump_coeff=lambda i, g: [1.0, 1.5][i] * g,
                              lambda_variant="consistent")


def test_criterion_1_sampler_equivalence(capsys):
    """Direct vs thinning samplers: KS < 0.01 and chi-square p > 0.01 on
    1e5 events of a three-state Weibull model, in under a minute."""
    t0 = time.perf_counter()
    kernel = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    rm = RegimeModel(kernel=kernel,
                     holding=(WeibullHolding(1.5, 0.8),
                              WeibullHolding(2.0, 1.0),
                              WeibullHolding(1.2, 1.2)))

    def collect(sim, tag, n_events=100_000, horizon=50.0):
        hold, trans, k = [], np.zeros((3, 3)), 0
        while len(hold) < n_events:
            p = sim(rm, RegimeState(0, 0.0), horizon, stream(301, tag, k))
            k += 1
            ts = [t for t, _ in p.events]
            ss = [p.origin.theta] + [s for _, s in p.events]
            hold.extend(b - a for a, b in zip([0.0] + ts[:-1], ts))
            for a, b in zip(ss[:-1], ss[1:]):
                trans[a, b] += 1
        return np.array(hold[:n_events]), trans

    h1, c1 = collect(simulate_regime_direct, "direct")
    h2, c2 = collect(simulate_regime_thinning, "thin")
    ks = stats.ks_2samp(h1, h2).statistic
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    table = np.array([[c[i, j] for i, j in off] for c in (c1, c2)])
    p_chi = stats.chi2_contingency(table)[1]
    elapsed = time.perf_counter() - t0
    ok = ks < 0.01 and p_chi > 0.01 and elapsed < 60.0
    _verdict(capsys, 1, ok,
             f"sampler equivalence: KS={ks:.4f} (<0.01), "
             f"chi2 p={p_chi:.3f} (>0.01), {elapsed:.1f}s (<60s)")


def test_criterion_2_generator_dynkin(capsys):
    """Dynkin identity |E dphi - E int L phi dt| < 3 SE for three test
    functions on a two-state model, 1e4 paths, dt = 1e-3."""
    rm = RegimeModel(kernel=np.array([[0.0, 1.0], [1.0, 0.0]]),
                     holding=(WeibullHolding(1.5, 0.5),
                              ExponentialHolding(1.0)))
    funcs = [(lambda i, y: (i + 1.0) * np.exp(-y),
              lambda i, y: -(i + 1.0) * np.exp(-y)),
             (lambda i, y: np.cos(y) + i, lambda i, y: -np.sin(y)),
             (lambda i, y: y ** 2 / (1.0 + y),
              lambda i, y: (y ** 2 + 2 * y) / (1.0 + y) ** 2)]
    n, dt, T = 10_000, 1e-3, 1.0
    paths = _paths(rm, n, T, 302)
    gaps, ok = [], True
    for phi, dphi in funcs:
        st = dynkin_statistics(rm, paths, phi, dphi, dt)
        gap = float(np.mean(st))
        se = float(np.std(st, ddof=1) / np.sqrt(n))
        gaps.append(f"{gap:+.1e}|3SE={3 * se:.1e}")
        ok = ok and abs(gap) <= 3.0 * se
    _verdict(capsys, 2, ok,
             "Dynkin identity, 3 functions at 1e4 paths: "
             + ", ".join(gaps))


def test_criterion_3_markov_reduction(capsys):
    """Exponential holding: generator values y-independent to 1e-9 and the
    semi-Markov pipeline matches an independent chain sampler within 3 SE."""
    rm = _two_regime()
    spread = 0.0
    for i in range(2):
        for f, df in (((lambda i_, y: (i_ + 1.0) ** 2),
                       (lambda i_, y: np.zeros_like(y))),):
            vals = apply_generator_L(rm, f, i, np.linspace(0.0, 5.0, 101),
                                     dphi_dy=df)
            spread = max(spread, float(np.ptp(vals)))
    model = _rs_model()
    rep = markov_reduction_experiment(rs_dynamics(model), rs_policy(model),
                                      rs_objective(model), rm, x0=1.0, i0=0,
                                      horizon=1.0, n_paths=4000, dt=5e-3,
                                      seed=303)
    ok = spread < 1e-9 and rep.status == "ok" and rep.passed
    _verdict(capsys, 3, ok,
             f"chain reduction: generator y-spread {spread:.1e} (<1e-9), "
             f"objective semi {rep.j_semi:.5f} vs chain {rep.j_chain:.5f} "
             f"within 3 SE: {rep.j_pass}")


def test_criterion_4_adjoint_residual_order(capsys):
    """Backward-equation residuals halve with the step for both examples
    (ratio in [0.35, 0.65] across dt in {4e-3, 2e-3, 1e-3}, 1e3 paths)
    and terminal conditions hold exactly."""
    rm = _two_regime()
    paths = _paths(rm, 1000, 1.0, 201)
    t_nodes = np.linspace(0.0, 1.0, 2001)
    summary, ok = [], True

    # growth-optimal example with mu = r: wealth is deterministic given
    # the regime path, so the path-total residual is O(dt)
    rs = RiskSensitiveModel(r=np.array([0.05, 0.03]),
                            mu=np.array([0.05, 0.03]),
                            sigma=np.array([0.2, 0.25]), gamma=0.5,
                            horizon=1.0)
    phi = rs_phi_markov(rs, rm, t_nodes, variant="literal")
    dyn, pol, obj = rs_dynamics(rs), rs_policy(rs), rs_objective(rs)
    totals = []
    for dt in (4e-3, 2e-3, 1e-3):
        ens = simulate_ensemble(dyn, pol, paths, 1.0, dt, 201)
        st = adjoint_residual(ens, rs_adjoint(rs, ens, phi, rm,
                                              variant="literal"), dyn, obj)
        totals.append(st.mean_path_total)
        ok = ok and st.terminal_mismatch == 0.0
    r_rs = [totals[k + 1] / totals[k] for k in range(2)]
    ok = ok and all(0.35 <= r <= 0.65 for r in r_rs)
    summary.append("RS ratios " + "/".join(f"{r:.2f}" for r in r_rs))

    ql = _ql_model()
    fns = ql_phi_psi_markov(ql, rm, t_nodes)
    dyn, pol, obj = ql_dynamics(ql), ql_policy(ql, fns), ql_objective(ql)
    totals = []
    for dt in (4e-3, 2e-3, 1e-3):
        ens = simulate_ensemble(dyn, pol, paths, 0.5, dt, 202)
        st = adjoint_residual(ens, ql_adjoint(ql, ens, fns, rm), dyn, obj)
        totals.append(st.mean_path_total)
        ok = ok and st.terminal_mismatch == 0.0
    r_ql = [totals[k + 1] / totals[k] for k in range(2)]
    ok = ok and all(0.35 <= r <= 0.65 for r in r_ql)
    summary.append("QL ratios " + "/".join(f"{r:.2f}" for r in r_ql))
    _verdict(capsys, 4, ok,
             "residual halving (target [0.35,0.65], terminal exact): "
             + ", ".join(summary))


def test_criterion_5_first_order_optimality(capsys):
    """The Hamiltonian u-coefficient under closed-form adjoints is below
    1e-8 along candidate paths at well over 1e3 sampled nodes."""
    rm = _two_regime()
    paths = _paths(rm, 100, 1.0, 501)
    t_nodes = np.linspace(0.0, 1.0, 2001)

    rs = _rs_model()
    phi = rs_phi_markov(rs, rm, t_nodes, variant="literal")
    ens = simulate_ensemble(rs_dynamics(rs), rs_policy(rs), paths, 1.0,
                            5e-3, 501)
    c_rs = rs_u_coefficient(rs, ens,
                            rs_adjoint(rs, ens, phi, rm, variant="literal"))
    n_nodes = ens.t.size

    ql = _ql_model()
    fns = ql_phi_psi_markov(ql, rm, t_nodes)
    ens = simulate_ensemble(ql_dynamics(ql), ql_policy(ql, fns), paths, 0.5,
                            5e-3, 502)
    c_ql = ql_u_coefficient(ql, ens, ql_adjoint(ql, ens, fns, rm))
    ok = c_rs < 1e-8 and c_ql < 1e-8 and n_nodes >= 1000
    _verdict(capsys, 5, ok,
             f"first-order condition at {n_nodes} nodes: max |u-coeff| "
             f"RS {c_rs:.1e}, QL {c_ql:.1e} (<1e-8)")


@pytest.mark.parametrize("example", ["rs", "ql"])
def test_criterion_6_sufficiency(capsys, example):
    """Coupled-path sufficiency: dJ >= -2 SE over the 20+ member default
    family at 1e4 paths, dt = 5e-3; the 1.5x-scaled candidate negative
    control is detected.  Under five minutes per example."""
    t0 = time.perf_counter()
    rm = _two_regime()
    if example == "rs":
        model = _rs_model()
        dyn, obj = rs_dynamics(model), rs_objective(model)
        base, relative, x0, seed = rs_policy(model), True, 1.0, 101
    else:
        model = _ql_model()
        fns = ql_phi_psi_markov(model, rm, np.linspace(0.0, 1.0, 201))
        dyn, obj = ql_dynamics(model), ql_objective(model)
        base, relative, x0, seed = ql_policy(model, fns), False, 0.5, 102
    fams = default_perturbation_family(base, relative, 1.0)
    # the candidate and the negative control step on one noise plan
    plan = sufficiency_plan(dyn, rm, 0, 0.0, 1.0, 10_000, 5e-3, seed)
    rep = sufficiency_sweeps(dyn, obj, [(fams, None)], plan, x0, seed)[0]
    bad = ControlPolicy(rule=lambda t, x, i, y: 1.5 * base.rule(t, x, i, y))
    neg = sufficiency_sweeps(
        dyn, obj, [(default_perturbation_family(bad, relative, 1.0), None)],
        plan, x0, seed)[0]
    detected = any(not r.passed for r in neg.results)
    elapsed = time.perf_counter() - t0
    ok = (rep.passed and len(rep.results) >= 20 and detected
          and elapsed < 300.0)
    _verdict(capsys, 6, ok,
             f"sufficiency ({example.upper()}): {len(rep.results)} "
             f"perturbations all dJ >= -2SE: {rep.passed}, negative "
             f"control detected: {detected}, {elapsed:.0f}s (<300s)")


def test_criterion_7_closed_form_cross_checks(capsys):
    """No-jump hedging functionals from the Monte Carlo fixed point match
    phi = -2 e^{(2r - mbar^2) tau}, psi = 2 d e^{(r - mbar^2) tau} within
    1% at 1e4 paths; the deterministic single-regime growth-rate integral
    equals 5.865 exactly."""
    single = RegimeModel(kernel=np.array([[0.0]]),
                         holding=(ExponentialHolding(1.0),))
    ql = QuadraticLossModel(r=np.array([0.05]), mbar=np.array([0.4]),
                            sigma=np.array([0.2]), d=1.0, horizon=1.0)
    phi, psi, _ = ql_phi_psi(ql, single, np.linspace(0.0, 1.0, 101),
                             np.array([0.0]), n_paths=10_000, seed=701)
    ts = np.array([0.0, 0.5])
    zi, zy = np.zeros(2, dtype=int), np.zeros(2)
    tau = 1.0 - ts
    phi_ref = -2.0 * np.exp((2 * 0.05 - 0.16) * tau)
    psi_ref = 2.0 * np.exp((0.05 - 0.16) * tau)
    err_phi = float(np.max(np.abs(phi(ts, zi, zy) / phi_ref - 1.0)))
    err_psi = float(np.max(np.abs(psi(ts, zi, zy) / psi_ref - 1.0)))

    rs = RiskSensitiveModel(r=np.array([0.05]), mu=np.array([0.13]),
                            sigma=np.array([0.2]), gamma=0.5, horizon=1.0)
    growth = rs_phi_functional(rs, single, np.array([0.0, 1.0]),
                               np.array([0.0]), n_paths=100, seed=702,
                               variant="integral")
    val, se = growth.values[0, 0, 0], growth.se[0, 0, 0]
    # deterministic case: exact up to accumulated float rounding
    ok = (err_phi < 0.01 and err_psi < 0.01 and abs(val - 5.865) < 1e-12
          and se < 1e-12)
    _verdict(capsys, 7, ok,
             f"closed forms: fixed-point phi/psi rel err {err_phi:.2e}/"
             f"{err_psi:.2e} (<1%), growth-rate integral {val:.12f} "
             f"(= 5.865 to 1e-12, SE {se:.1e})")


def test_criterion_8_hjb_residual(capsys, tmp_path):
    """Deterministic value function solves the dynamic-programming PDE to
    1e-8 on a 10x10 grid; a shifted discount rate is flagged above 1e-3."""
    cfg = {"experiment": "hjb", "seed": 5,
           "model": {"kind": "hjb-deterministic", "r": 0.05, "d": 1.0,
                     "horizon": 1.0}}
    cfg_path = tmp_path / "hjb.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["hjb", "--config", str(cfg_path), "--out", str(out)])
    rep = json.loads((out / "report.json").read_text())
    ok = (rc == 0 and rep["max_residual"] < 1e-8
          and rep["max_residual_negative_control"] > 1e-3
          and rep["terminal_mismatch"] < 1e-12)
    _verdict(capsys, 8, ok,
             f"dynamic-programming PDE: max residual "
             f"{rep['max_residual']:.1e} (<1e-8), negative control "
             f"{rep['max_residual_negative_control']:.1e} (>1e-3)")


def test_criterion_9_determinism(capsys, tmp_path):
    """Re-running any experiment with identical (config, seed) produces
    byte-identical result files."""
    cfg = {
        "experiment": "simulate", "seed": 42,
        "regime": {"kernel": [[0, 1], [1, 0]],
                   "holding": [{"kind": "weibull", "shape": 1.5,
                                "scale": 0.5},
                               {"kind": "exponential", "rate": 1.0}]},
        "model": {"kind": "rs", "r": [0.05, 0.02], "mu": [0.13, 0.08],
                  "sigma": [0.2, 0.3], "gamma": 0.5, "horizon": 1.0,
                  "x0": 1.0, "i0": 0},
        "numerics": {"n_paths": 200, "dt": 0.01},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    identical = True
    for command, patch in (("simulate", {}),
                           ("dynkin", {"numerics": {"n_paths": 50,
                                                    "dt": 0.01}})):
        run_cfg = {**cfg, "experiment": command, **patch}
        cfg_path.write_text(json.dumps(run_cfg))
        a, b = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
        assert main([command, "--config", str(cfg_path),
                     "--out", str(a)]) == 0
        assert main([command, "--config", str(cfg_path),
                     "--out", str(b)]) == 0
        for name in ("resolved_config.json", "results.csv", "report.json",
                     "summary.txt"):
            identical = identical and ((a / name).read_bytes()
                                       == (b / name).read_bytes())
    _verdict(capsys, 9, identical,
             "determinism: simulate and dynkin reruns byte-identical "
             "across all four output files")
