"""Checks of the benchmark itself: traced counters match the workload shape,
tracing leaves outputs and bindings unchanged, and a checkout without the
library sources fails cleanly.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys

from common import ROOT, pin_threads, use_source_tree

pin_threads()
use_source_tree()

import tracer  # noqa: E402
import workloads  # noqa: E402
from smjd import jump_diffusion, semi_markov, verification  # noqa: E402


def _traced_call(w, spy=None):
    """One traced call; ``spy`` = (module, attr) whose traced binding is
    wrapped to collect return values."""
    tr = tracer.Tracer()
    tr.install(callers=[workloads])
    seen = []
    if spy is not None:
        mod, attr = spy
        inner = getattr(mod, attr)

        def collect(*args, **kwargs):
            out = inner(*args, **kwargs)
            seen.append(out)
            return out

        setattr(mod, attr, collect)
    try:
        result = w.call(tr.proposals)
    finally:
        if spy is not None:
            setattr(mod, attr, inner)
        tr.uninstall()
    return tr, result, seen


def test_verify_counters_match_ensembles(tmp_path):
    w = workloads.VerifyQlJumps(5, tmp_path, n_paths=20, functional_paths=40)
    plain = w.call()
    tr, result, ensembles = _traced_call(
        w, spy=(verification, "simulate_ensemble"))
    assert result.ok, result.gate
    assert result.digest == plain.digest
    m = tracer.layer_metrics(tr, wall=2.0)
    assert m["jump_diffusion.ensembles"] == 42 == len(ensembles)
    steps = sum(e.n_paths * (e.t.shape[1] - 1) for e in ensembles)
    assert m["jump_diffusion.path_steps"] == steps
    assert m["path_steps_per_s"] == steps / 2.0
    assert m["jump_diffusion.asset_jumps"] == sum(
        int(e.jump_mask.sum()) for e in ensembles)
    # one policy call per grid column of every ensemble
    assert m["portfolio_examples.policy_calls"] == sum(
        e.t.shape[1] for e in ensembles)
    assert m["portfolio_examples.fixed_point_iterations"] >= 1
    assert m["cli.validate_s"] > 0 and m["cli.write_s"] > 0
    assert 0 < m["jump_diffusion.simulate_s"] < tr.total[
        "jump_diffusion.simulate_ensemble"]


def test_thinning_proposals_match_hazard_calls(tmp_path):
    w = workloads.RegimeSamplers(7, tmp_path, thinning_events=300,
                                 direct_events=600)
    plain = w.call()
    tr, result, (thin, direct) = _traced_call(
        w, spy=(workloads, "sample_events"))
    assert result.digest == plain.digest
    m = tracer.layer_metrics(tr, wall=1.0)
    during_thinning = tr.pairs[("semi_markov.simulate_regime_thinning",
                                "semi_markov.hazard_rate")]
    assert m["semi_markov.thinning_proposals"] == during_thinning > 0
    assert m["semi_markov.hazard_calls"] == during_thinning
    n_thin = sum(len(p.events) for p in thin)
    n_direct = sum(len(p.events) for p in direct)
    assert n_thin >= 300 and n_direct >= 600
    assert m["semi_markov.direct_paths"] == len(direct)
    assert m["semi_markov.regime_events"] == n_thin + n_direct
    assert m["semi_markov.thinning_accept_ratio"] == n_thin / during_thinning
    assert m["thinning_events_per_s"] == n_thin / m["semi_markov.thinning_s"]


def test_uninstall_restores_bindings():
    before = (verification.simulate_ensemble, semi_markov.hazard_rate,
              jump_diffusion.stream, workloads.simulate_regime_direct)
    tr = tracer.Tracer()
    tr.install(callers=[workloads])
    assert verification.simulate_ensemble is not before[0]
    assert verification.simulate_ensemble is jump_diffusion.simulate_ensemble
    tr.uninstall()
    after = (verification.simulate_ensemble, semi_markov.hazard_rate,
             jump_diffusion.stream, workloads.simulate_regime_direct)
    assert all(a is b for a, b in zip(before, after))


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "regime-samplers", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
