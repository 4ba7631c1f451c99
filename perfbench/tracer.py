"""Per-layer tracing from outside the program.

While installed, every public function of every ``smjd`` module is replaced,
in each module that binds it (``from ... import`` included, and in the
benchmark's own modules when passed as callers), by a wrapper
that records a span.  Spans are aggregated as they close: per function the
call count, total time and self time (total minus the time of the wrapped
calls it made), plus call counts per (caller, callee) pair.  A few hooks read
counts off return values: ensemble shapes, regime events and fixed-point
iterations.  Uninstalling restores every original binding.

Layers are modules.  Everything runs in one thread with no queues, so no
layer ever waits on another and no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter, defaultdict

MODULES = ("rng", "semi_markov", "jump_diffusion", "maximum_principle",
           "portfolio_examples", "verification", "cli")
# Private helpers that still belong to a layer's boundary.
EXTRA = {"cli": ("_summary",)}
WAITS = "none: one thread, no queues, so no layer waits on another"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.pairs = Counter()
        self.counts = Counter()
        self.proposals: list = []  # CountingRng proxies of thinning streams
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, callers=()) -> None:
        """Wrap the public functions of every layer; ``callers`` are further
        modules whose bindings of those functions are replaced as well."""
        mods = [importlib.import_module(f"smjd.{m}") for m in MODULES]
        wrappers = {}
        for mod in [*mods, *callers]:
            short = mod.__name__.split(".")[-1]
            for attr, fn in list(vars(mod).items()):
                if not (isinstance(fn, types.FunctionType)
                        and fn.__module__.startswith("smjd.")):
                    continue
                home = fn.__module__.split(".")[-1]
                public = not attr.startswith("_")
                if not public and attr not in EXTRA.get(short, ()):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{home}.{fn.__name__}", fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                self.pairs[(parent, name)] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self.counts, result)
            return result

        return span


def _ensemble(counts, ens):
    counts["ensembles"] += 1
    counts["path_steps"] += ens.n_paths * (ens.t.shape[1] - 1)
    counts["asset_jumps"] += int(ens.jump_mask.sum())


def _regime_path(key):
    def hook(counts, path):
        counts[key] += len(path.events)
    return hook


def _fixed_point(counts, result):
    counts["fixed_point_iterations"] += result[2]["iterations"]


_HOOKS = {
    "jump_diffusion.simulate_ensemble": _ensemble,
    "semi_markov.simulate_regime_direct": _regime_path("direct_events"),
    "semi_markov.simulate_regime_thinning": _regime_path("thinning_events"),
    "portfolio_examples.ql_phi_psi": _fixed_point,
}


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _rate(units, seconds):
    return units / seconds if seconds else 0.0


def layer_metrics(tr: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced call that took ``wall`` seconds."""
    c, tot = tr.counts, tr.total
    proposals = sum(rng.uniforms for rng in tr.proposals)

    def s(*names):
        return sum(tot[n] for n in names)

    direct = "semi_markov.simulate_regime_direct"
    thinning = "semi_markov.simulate_regime_thinning"
    events = c["direct_events"] + c["thinning_events"]
    return {
        "path_steps_per_s": _rate(c["path_steps"], wall),
        "direct_events_per_s": _rate(c["direct_events"], s(direct)),
        "thinning_events_per_s": _rate(c["thinning_events"], s(thinning)),
        "rng.streams": tr.calls["rng.stream"],
        "rng.stream_s": s("rng.stream"),
        "semi_markov.direct_paths": tr.calls[direct],
        "semi_markov.regime_events": events,
        "semi_markov.direct_s": s(direct),
        "semi_markov.thinning_s": s(thinning),
        "semi_markov.thinning_proposals": proposals,
        "semi_markov.thinning_accept_ratio":
            c["thinning_events"] / proposals if proposals else 0.0,
        "semi_markov.hazard_calls": tr.calls["semi_markov.hazard_rate"],
        "semi_markov.hazard_s": s("semi_markov.hazard_rate"),
        "jump_diffusion.ensembles": c["ensembles"],
        "jump_diffusion.path_steps": c["path_steps"],
        "jump_diffusion.asset_jumps": c["asset_jumps"],
        "jump_diffusion.simulate_s":
            tr.self_time["jump_diffusion.simulate_ensemble"],
        "jump_diffusion.objective_s": s("jump_diffusion.objective_paths"),
        "portfolio_examples.policy_calls":
            tr.calls["portfolio_examples.ql_optimal_control"]
            + tr.calls["portfolio_examples.rs_optimal_control"],
        "portfolio_examples.policy_s":
            s("portfolio_examples.ql_optimal_control",
              "portfolio_examples.rs_optimal_control"),
        "portfolio_examples.fixed_point_iterations":
            c["fixed_point_iterations"],
        "portfolio_examples.fixed_point_s": s("portfolio_examples.ql_phi_psi"),
        "portfolio_examples.functional_expm_s":
            s("portfolio_examples.ql_phi_psi_markov",
              "portfolio_examples.rs_phi_markov"),
        "portfolio_examples.adjoint_s":
            s("portfolio_examples.ql_adjoint", "portfolio_examples.rs_adjoint"),
        "portfolio_examples.u_coeff_s":
            s("portfolio_examples.ql_u_coefficient",
              "portfolio_examples.rs_u_coefficient"),
        "maximum_principle.residual_calls":
            tr.calls["maximum_principle.adjoint_residual"],
        "maximum_principle.residual_s": s("maximum_principle.adjoint_residual"),
        "verification.harness_self_s":
            tr.self_time["verification.sufficiency_experiment"],
        "cli.validate_s": s("cli.validate_config"),
        "cli.write_s": s("cli.write_json", "cli.write_csv", "cli._summary"),
    }
