"""Configuration-driven experiment runner.

Invocation::

    smjd <command> --config <path> [--seed N] [--out DIR] [--threads N]

Commands: simulate, rs-verify, ql-verify, dynkin, hjb, reduce-markov,
policy-eval.  Configs are JSON, validated against a published schema before
any computation; unknown keys are rejected.  Each run emits four files into
the output directory:

* ``resolved_config.json``: the config with every default filled in, the
  effective seed, and its provenance (config / flag / environment);
* ``results.csv``: fixed per-command columns, floats at 17 significant
  digits;
* ``report.json``: the structured experiment report with pass flags;
* ``summary.txt``: a one-page human-readable digest.

The seed can be overridden by ``--seed`` and, with highest precedence, by
the ``SMJD_SEED`` environment variable; overrides are logged in the
summary.  Both must lie in the config's seed range [0, 2**64 - 1], and
``--threads`` must be at least 1; otherwise the run exits 2 naming the flag
or variable.  Exit status: 0 when every acceptance flag passes, 1 when any
fails (or a runtime error occurs), 2 on configuration errors.  All output
bytes are determined by (config, seed); ``--threads`` is accepted for
interface compatibility and recorded, but cannot affect results.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import jsonschema

from .errors import (AgeBeyondSupport, ConfigError, DegenerateVol,
                     InfiniteHazard, InvalidParameter, SmjdError)
from .jump_diffusion import MarkMeasure, objective_paths, simulate_ensemble
from .maximum_principle import ValueFunctionStub, hjb_residual, \
    hjb_terminal_mismatch
from .jump_diffusion import ControlledDynamics, ObjectiveSpec
from .portfolio_examples import (QuadraticLossModel, RiskSensitiveModel,
                                 ql_adjoint, ql_phi_psi, ql_policy,
                                 ql_dynamics, ql_objective, ql_u_coefficient,
                                 rs_adjoint, rs_dynamics, rs_objective,
                                 rs_phi_functional, rs_policy,
                                 rs_source_rate, rs_u_coefficient)
from .semi_markov import (ExponentialHolding, RegimeModel, RegimeState,
                          WeibullHolding, dynkin_statistics,
                          sample_regime_paths)
from .verification import (PerturbationFamily, default_perturbation_family,
                           markov_reduction_experiment, sufficiency_plan,
                           sufficiency_sweeps)

COMMANDS = ("simulate", "rs-verify", "ql-verify", "dynkin", "hjb",
            "reduce-markov", "policy-eval")
_PLAN_COMMANDS = ("simulate", "rs-verify", "ql-verify", "reduce-markov")
_MAX_NODES = np.iinfo(np.intp).max // 8  # float64s one array can hold

SEED_ENV = "SMJD_SEED"
SEED_MAX = 2 ** 64 - 1  # seeds are unsigned 64-bit, in the config and outside


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_HOLDING_SCHEMA = {
    "oneOf": [
        {"type": "object", "additionalProperties": False,
         "required": ["kind", "rate"],
         "properties": {"kind": {"const": "exponential"},
                        "rate": {"type": "number", "exclusiveMinimum": 0}}},
        {"type": "object", "additionalProperties": False,
         "required": ["kind", "shape", "scale"],
         "properties": {"kind": {"const": "weibull"},
                        "shape": {"type": "number", "exclusiveMinimum": 0},
                        "scale": {"type": "number", "exclusiveMinimum": 0}}},
    ]
}

_REGIME_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["kernel", "holding"],
    "properties": {
        "kernel": {"type": "array",
                   "items": {"type": "array", "items": {"type": "number"}}},
        "holding": {"type": "array", "items": _HOLDING_SCHEMA, "minItems": 1},
    },
}

_NUM_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_RS_MODEL_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "r", "mu", "sigma", "gamma", "horizon", "x0", "i0"],
    "properties": {
        "kind": {"const": "rs"}, "r": _NUM_ARRAY, "mu": _NUM_ARRAY,
        "sigma": _NUM_ARRAY, "gamma": {"type": "number"},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "x0": {"type": "number", "exclusiveMinimum": 0},
        "i0": {"type": "integer", "minimum": 0},
        "y0": {"type": "number", "minimum": 0},
        "phi_variant": {"enum": ["integral", "literal"]},
    },
}

_QL_MODEL_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "r", "mbar", "sigma", "d", "horizon", "x0", "i0"],
    "properties": {
        "kind": {"const": "ql"}, "r": _NUM_ARRAY, "mbar": _NUM_ARRAY,
        "sigma": _NUM_ARRAY, "d": {"type": "number"},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "x0": {"type": "number"}, "i0": {"type": "integer", "minimum": 0},
        "y0": {"type": "number", "minimum": 0},
        "lambda_variant": {"enum": ["literal", "consistent"]},
        "jumps": {
            "type": "object", "additionalProperties": False,
            "required": ["rate", "atoms", "weights", "coeff_scale"],
            "properties": {
                "rate": {"type": "number", "exclusiveMinimum": 0},
                "atoms": _NUM_ARRAY, "weights": _NUM_ARRAY,
                "coeff_scale": _NUM_ARRAY,
            },
        },
    },
}

_HJB_MODEL_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["kind", "r", "d", "horizon"],
    "properties": {
        "kind": {"const": "hjb-deterministic"},
        "r": {"type": "number"}, "d": {"type": "number"},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "x_min": {"type": "number"}, "x_max": {"type": "number"},
        "n_t": {"type": "integer", "minimum": 2},
        "n_x": {"type": "integer", "minimum": 2},
        "negative_control_shift": {"type": "number"},
    },
}

_NUMERICS_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "n_paths": {"type": "integer", "minimum": 2},
        "t_nodes": {"type": "integer", "minimum": 2},
        "y_nodes": {"type": "integer", "minimum": 1},
        "y_max": {"type": "number", "minimum": 0},
        "functional_paths": {"type": "integer", "minimum": 2},
        "foc_tol": {"type": "number", "exclusiveMinimum": 0},
    },
}

_NUMERICS_DEFAULTS = {
    "dt": 5e-3, "n_paths": 1000, "t_nodes": 21, "y_nodes": 3, "y_max": 2.0,
    "functional_paths": 2000, "foc_tol": 1e-8,
}


def _top_schema(command: str) -> dict:
    model = {"rs-verify": _RS_MODEL_SCHEMA, "ql-verify": _QL_MODEL_SCHEMA,
             "hjb": _HJB_MODEL_SCHEMA}.get(
        command, {"oneOf": [_RS_MODEL_SCHEMA, _QL_MODEL_SCHEMA]})
    required = ["experiment", "seed", "model"]
    props = {
        "experiment": {"const": command},
        "seed": {"type": "integer", "minimum": 0, "maximum": SEED_MAX},
        "out": {"type": "string"},
        "model": model,
        "numerics": _NUMERICS_SCHEMA,
        "regime": _REGIME_SCHEMA,
    }
    if command != "hjb":
        required.append("regime")
    if command == "policy-eval":
        props["queries"] = {
            "type": "array", "minItems": 1,
            "items": {"type": "array", "minItems": 4, "maxItems": 4,
                      "items": {"type": "number"}},
        }
        required.append("queries")
    return {"type": "object", "additionalProperties": False,
            "required": required, "properties": props}


def validate_config(cfg: dict, command: str) -> dict:
    """Schema-check the config and return a copy with defaults applied."""
    for bad in _non_finite(cfg):
        raise ConfigError(f"config invalid at {bad}: not a finite number")
    validator = jsonschema.Draft202012Validator(_top_schema(command))
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ConfigError(f"config invalid at {e.json_path}: {e.message}")
    resolved = copy.deepcopy(cfg)
    resolved["numerics"] = _NUMERICS_DEFAULTS | resolved.get("numerics", {})
    resolved.setdefault("out", "smjd-out")
    model = resolved["model"]
    model.setdefault("y0", 0.0)
    if model["kind"] == "rs":
        model.setdefault("phi_variant", "integral")
    elif model["kind"] == "ql":
        model.setdefault("lambda_variant", "literal")
    elif model["kind"] == "hjb-deterministic":
        model.setdefault("x_min", 0.5)
        model.setdefault("x_max", 1.5)
        model.setdefault("n_t", 10)
        model.setdefault("n_x", 10)
        model.setdefault("negative_control_shift", 0.1)
    _check_cross_fields(resolved)
    return resolved


def _non_finite(node, path: str = "$"):
    """Yield the JSON path of each NaN or infinite number in ``node``."""
    if isinstance(node, float) and not np.isfinite(node):
        yield path
    for key, value in (node.items() if isinstance(node, dict) else ()):
        yield from _non_finite(value, f"{path}.{key}")
    for key, value in enumerate(node if isinstance(node, list) else ()):
        yield from _non_finite(value, f"{path}[{key}]")


def _check_cross_fields(cfg: dict) -> None:
    """Checks between fields of the resolved config (defaults applied) that
    the schema cannot express: kernel rows, per-regime arrays and regime
    indices must match the kernel's state count, jump atoms and weights
    must pair up, an age grid of several nodes needs a positive y_max, a
    noise plan's dt a step on [0, horizon] and at most an array's nodes,
    policy queries t in [0, horizon], y >= 0, and a finite hjb value stub."""
    def bad(path, msg):
        raise ConfigError(f"config invalid at {path}: {msg}")

    num = cfg["numerics"]
    if num["y_nodes"] > 1 and num["y_max"] == 0:
        bad("$.numerics.y_max", f"{num['y_nodes']} age nodes on [0, 0]")
    m = cfg["model"]
    if m["kind"] == "hjb-deterministic":
        # every term of the value stub's residual is at most
        # 2 max(1, |r|, |rate|) (|x| + |d| + 1)^2 e^(2 max(rate T, 0))
        scale = 2.0 * np.log1p(max(abs(m["x_min"]), abs(m["x_max"]))
                               + abs(m["d"]))
        for path, rate in (("$.model.r", m["r"]),
                           ("$.model.negative_control_shift",
                            m["r"] + m["negative_control_shift"])):
            if (scale + np.log(2.0 * max(1.0, abs(m["r"]), abs(rate)))
                    + 2.0 * max(rate * m["horizon"], 0.0)
                    >= np.log(np.finfo(float).max)):
                bad(path, f"the value stub at rate {rate} overflows a float "
                    f"on horizon {m['horizon']}")
        return
    M = len(cfg["regime"]["kernel"])
    for k, row in enumerate(cfg["regime"]["kernel"]):
        if len(row) != M:
            bad(f"$.regime.kernel[{k}]", f"{len(row)} entries in a row of "
                f"a {M}-state kernel")
    steps = m["horizon"] / num["dt"]  # inf for a subnormal dt
    if (cfg["experiment"] in _PLAN_COMMANDS + ("dynkin",)
            and (steps > _MAX_NODES or round(steps) + 1 > _MAX_NODES)):
        bad("$.numerics.dt", f"{num['dt']} gives more grid nodes on "
            f"[0, {m['horizon']}] than an array holds ({_MAX_NODES})")
    if cfg["experiment"] in _PLAN_COMMANDS and round(steps) < 1:
        bad("$.numerics.dt",
            f"{num['dt']} gives no step on [0, {m['horizon']}]")
    if not 0 <= m["i0"] < M:
        bad("$.model.i0", f"regime index {m['i0']} outside [0, {M})")
    per_regime = {f"$.model.{k}": m[k] for k in ("r", "mu", "mbar", "sigma")
                  if k in m}
    jumps = m.get("jumps")
    if jumps is not None:
        per_regime["$.model.jumps.coeff_scale"] = jumps["coeff_scale"]
        if len(jumps["weights"]) != len(jumps["atoms"]):
            bad("$.model.jumps.weights", f"{len(jumps['weights'])} weights "
                f"for {len(jumps['atoms'])} atoms")
    for path, values in per_regime.items():
        if len(values) != M:
            bad(path, f"{len(values)} entries for {M} regimes")
    for k, (t, _, i, y) in enumerate(cfg.get("queries", ())):
        if not 0 <= t <= m["horizon"]:
            bad(f"$.queries[{k}][0]", f"time {t} outside [0, {m['horizon']}]")
        if not (0 <= i < M and i == int(i)):
            bad(f"$.queries[{k}][2]",
                f"regime index {i} is not an integer in [0, {M})")
        if y < 0:
            bad(f"$.queries[{k}][3]", f"age {y} is negative")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

# library parameters whose config field has another name or place
_CONFIG_FIELDS = {"weights": "jumps.weights", "jump_coeff": "jumps.atoms"}


@contextmanager
def _refused_at(section: str):
    """Report a constructor's refusal as a config error at the field of
    ``section`` it names: sigma for DegenerateVol, the InvalidParameter's
    field, or else ``section`` itself for another ValueError."""
    try:
        yield
    except DegenerateVol as exc:
        raise ConfigError(f"config invalid at {section}.sigma: {exc}") from exc
    except InvalidParameter as exc:
        field = _CONFIG_FIELDS.get(exc.field, exc.field)
        raise ConfigError(f"config invalid at {section}.{field}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config invalid at {section}: {exc}") from exc


def build_regime_model(cfg: dict) -> RegimeModel:
    holding = []
    for h in cfg["holding"]:
        if h["kind"] == "exponential":
            holding.append(ExponentialHolding(rate=h["rate"]))
        else:
            holding.append(WeibullHolding(shape=h["shape"], scale=h["scale"]))
    with _refused_at("$.regime"):
        return RegimeModel(kernel=np.asarray(cfg["kernel"], dtype=float),
                           holding=tuple(holding))


def build_model(cfg: dict):
    m = cfg["model"]
    with _refused_at("$.model"):
        if m["kind"] == "rs":
            return RiskSensitiveModel(r=m["r"], mu=m["mu"], sigma=m["sigma"],
                                      gamma=m["gamma"], horizon=m["horizon"])
        marks = coeff = None
        if "jumps" in m:
            j = m["jumps"]
            marks = MarkMeasure(rate=j["rate"],
                                atoms=np.asarray(j["atoms"], dtype=float),
                                weights=np.asarray(j["weights"], dtype=float))
            scale = np.asarray(j["coeff_scale"], dtype=float)
            coeff = lambda i, gam: scale[i] * np.asarray(gam, dtype=float)
        return QuadraticLossModel(r=m["r"], mbar=m["mbar"], sigma=m["sigma"],
                                  d=m["d"], horizon=m["horizon"], marks=marks,
                                  jump_coeff=coeff,
                                  lambda_variant=m["lambda_variant"])


@contextmanager
def _age_field(path: str):
    """Report an AgeBeyondSupport raised inside as a config error at
    ``path``, the field that set the age past its state's holding law."""
    try:
        yield
    except AgeBeyondSupport as exc:
        raise ConfigError(f"config invalid at {path}: {exc}") from exc


def _grids(cfg: dict):
    num = cfg["numerics"]
    T = cfg["model"]["horizon"]
    t_nodes = np.linspace(0.0, T, num["t_nodes"])
    y_nodes = np.linspace(0.0, num["y_max"], num["y_nodes"])
    return t_nodes, y_nodes


def _problem(cfg, regime_model, seed):
    """(model, dynamics, candidate policy, objective, u-coefficient function)
    of the configured problem; the last maps an ensemble to max |dH/du|.

    The QL rule reads its functionals phi and psi, which are solved here.
    The RS regime functional only enters the u-coefficient, so it is solved
    when that function is called.
    """
    model = build_model(cfg)
    t_nodes, y_nodes = _grids(cfg)
    num = cfg["numerics"]
    if cfg["model"]["kind"] == "rs":
        variant = cfg["model"]["phi_variant"]

        def u_fn(ens):
            with _age_field("$.numerics.y_max"):
                phi = rs_phi_functional(model, regime_model, t_nodes, y_nodes,
                                        num["functional_paths"], seed,
                                        variant=variant)
            return rs_u_coefficient(model, ens, rs_adjoint(
                model, ens, phi, regime_model, variant=variant))

        return (model, rs_dynamics(model), rs_policy(model),
                rs_objective(model), u_fn)
    with _age_field("$.numerics.y_max"):
        functionals = ql_phi_psi(model, regime_model, t_nodes, y_nodes,
                                 num["functional_paths"], seed)[:2]
    return (model, ql_dynamics(model), ql_policy(model, functionals),
            ql_objective(model),
            lambda ens: ql_u_coefficient(
                model, ens, ql_adjoint(model, ens, functionals, regime_model)))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               allow_nan=True) + "\n")


def _summary(path: Path, command: str, seed: int, seed_source: str,
             lines: list[str], passed: bool) -> None:
    body = [f"experiment: {command}",
            f"seed: {seed} (source: {seed_source})",
            ""]
    body += lines
    body += ["", f"result: {'PASS' if passed else 'FAIL'}"]
    path.write_text("\n".join(body) + "\n")


# ---------------------------------------------------------------------------
# Experiment runners (each returns (passed, report_dict, csv header, rows,
# summary lines))
# ---------------------------------------------------------------------------

def _run_simulate(cfg, seed):
    regime_model = build_regime_model(cfg["regime"])
    m = cfg["model"]
    num = cfg["numerics"]
    _, dyn, policy, objective, _ = _problem(cfg, regime_model, seed)
    with _age_field("$.model.y0"):
        paths = sample_regime_paths(regime_model, RegimeState(
            m["i0"], m["y0"]), m["horizon"], num["n_paths"], seed)
    ens = simulate_ensemble(dyn, policy, paths, m["x0"], num["dt"], seed)
    J = objective_paths(ens, objective)
    rows = [(p, ens.x[p, -1], int(ens.theta[p, -1]), ens.y[p, -1], J[p])
            for p in range(num["n_paths"])]
    mean, se = float(np.mean(J)), float(np.std(J, ddof=1) / np.sqrt(len(J)))
    report = {"experiment": "simulate", "kind": m["kind"],
              "objective_mean": mean, "objective_se": se,
              "n_paths": num["n_paths"], "dt": num["dt"], "pass": True}
    lines = [f"model: {m['kind']}",
             f"objective estimate: {mean:.6g} +/- {se:.2g} "
             f"({num['n_paths']} paths, dt={num['dt']})"]
    return True, report, ["path", "x_T", "theta_T", "y_T", "J"], rows, lines


def _verify_common(cfg, seed, kind):
    regime_model = build_regime_model(cfg["regime"])
    m = cfg["model"]
    num = cfg["numerics"]
    _, dyn, base, objective, u_fn = _problem(cfg, regime_model, seed)
    relative = kind == "rs"  # RS perturbations scale with wealth
    families = default_perturbation_family(base, relative, m["horizon"])
    # the candidate and the negative control step on one noise plan
    with _age_field("$.model.y0"):
        plan = sufficiency_plan(dyn, regime_model, m["i0"], m["y0"],
                                m["horizon"], num["n_paths"], num["dt"], seed)
    scaled = next(PerturbationFamily(base, "scale", (0.5,)).policies(  # 1.5 u
        seed, num["n_paths"]))[2]
    neg_families = default_perturbation_family(scaled, relative, m["horizon"])
    # both sweeps in one stacked pass; only the candidate's base is stepped
    # on its own, for the u-coefficient
    report, neg = sufficiency_sweeps(
        dyn, objective, [(families, u_fn), (neg_families, None)], plan,
        m["x0"], seed, foc_tol=num["foc_tol"])
    detected = any(not r.passed for r in neg.results)

    passed = report.passed and detected
    rep = {"experiment": f"{kind}-verify", "candidate": report.to_dict(),
           "negative_control": neg.to_dict() | {"detected": detected},
           "pass": passed}
    header = ["perturbation_id", "candidate", "kind", "delta", "dJ", "se", "pass"]
    rows = [(pid, "optimal", *rest)
            for pid, *rest in report.csv_rows()]
    rows += [(pid + len(report.results), "negative-control", *rest)
             for pid, *rest in neg.csv_rows()]
    worst = min(r.dJ + 2 * r.se for r in report.results)
    lines = [f"J(candidate) = {report.j_hat:.6g} +/- {report.se_hat:.2g}",
             f"perturbations: {len(report.results)}, all dJ >= -2SE: "
             f"{all(r.passed for r in report.results)} "
             f"(worst margin {worst:.3g})",
             f"max |u-coefficient| along candidate paths: "
             f"{report.u_coefficient_max:.3g} (pass: {report.foc_pass})",
             f"negative control (1.5x candidate) detected: {detected}"]
    return passed, rep, header, rows, lines


_DYNKIN_FUNCS = [
    ("(i+1)*exp(-y)", lambda i, y: (i + 1.0) * np.exp(-y),
     lambda i, y: -(i + 1.0) * np.exp(-y)),
    ("cos(y)+i", lambda i, y: np.cos(y) + i, lambda i, y: -np.sin(y)),
    ("y^2/(1+y)", lambda i, y: y ** 2 / (1.0 + y),
     lambda i, y: (y ** 2 + 2 * y) / (1.0 + y) ** 2),
]


def _run_dynkin(cfg, seed):
    regime_model = build_regime_model(cfg["regime"])
    m = cfg["model"]
    num = cfg["numerics"]
    with _age_field("$.model.y0"):
        paths = sample_regime_paths(regime_model, RegimeState(
            m["i0"], m["y0"]), m["horizon"], num["n_paths"], seed)
    rows, lines, all_pass = [], [], True
    for fid, (name, phi, dphi) in enumerate(_DYNKIN_FUNCS):
        stats = dynkin_statistics(regime_model, paths, phi, dphi, num["dt"])
        gap = float(np.mean(stats))
        se = float(np.std(stats, ddof=1) / np.sqrt(len(stats)))
        ok = abs(gap) <= 3.0 * max(se, 1e-15)
        all_pass = all_pass and ok
        rows.append((fid, name, gap, se, int(ok)))
        lines.append(f"{name}: gap {gap:+.3e} (3 SE = {3 * se:.3e}) "
                     f"{'PASS' if ok else 'FAIL'}")
    report = {"experiment": "dynkin",
              "functions": [{"id": r[0], "name": r[1], "gap": r[2],
                             "se": r[3], "pass": bool(r[4])} for r in rows],
              "pass": all_pass}
    return all_pass, report, ["function_id", "name", "gap", "se", "pass"], \
        rows, lines


def _run_hjb(cfg, seed):
    m = cfg["model"]
    r, d, T = m["r"], m["d"], m["horizon"]
    regime_model = RegimeModel(kernel=np.array([[0.0]]),
                               holding=(ExponentialHolding(rate=1.0),))
    dyn = ControlledDynamics(drift=lambda t, x, u, i: r * x,
                             vol=lambda t, x, u, i: np.zeros_like(x))
    objective = ObjectiveSpec(running=None,
                              terminal=lambda x, i, y: -(x - d) ** 2)

    def stub(rr):
        # candidate: V = -(x e^{rr (T-t)} - d)^2; solves the transport HJB
        # only when rr matches the drift rate r
        w = lambda t, x: x * np.exp(rr * (T - t)) - d
        return ValueFunctionStub(
            v=lambda t, x, i, y: -w(t, x) ** 2,
            dt=lambda t, x, i, y: 2.0 * w(t, x) * rr * x * np.exp(rr * (T - t)),
            dx=lambda t, x, i, y: -2.0 * w(t, x) * np.exp(rr * (T - t)),
            dxx=lambda t, x, i, y: -2.0 * np.exp(2 * rr * (T - t)) * np.ones_like(x),
            dy=lambda t, x, i, y: np.zeros_like(x))

    V, V_bad = stub(r), stub(r + m["negative_control_shift"])
    ts = np.linspace(0.0, T, m["n_t"], endpoint=False)
    xs = np.linspace(m["x_min"], m["x_max"], m["n_x"])
    # one call per candidate on the (n_t, n_x) grid, at the control u = 0
    res, res_bad = (hjb_residual(v, objective, dyn, regime_model, ts[:, None],
                                 xs, 0, 0.0, 0.0) for v in (V, V_bad))
    r_max, rb_max = float(np.abs(res).max()), float(np.abs(res_bad).max())
    rows = [(t, x, res[a, b], res_bad[a, b])
            for a, t in enumerate(ts) for b, x in enumerate(xs)]
    term = hjb_terminal_mismatch(V, objective, T, xs, np.zeros(len(xs), int),
                                 np.zeros(len(xs)))
    passed = r_max < 1e-8 and rb_max > 1e-3 and term < 1e-12
    report = {"experiment": "hjb", "max_residual": r_max,
              "max_residual_negative_control": rb_max,
              "terminal_mismatch": term, "pass": passed}
    lines = [f"max |HJB residual| over {m['n_t']}x{m['n_x']} grid: {r_max:.3e}"
             " (threshold 1e-8)",
             f"negative control (discount rate shifted by "
             f"{m['negative_control_shift']}): "
             f"max residual {rb_max:.3e} (must exceed 1e-3)",
             f"terminal mismatch: {term:.3e}"]
    return passed, report, ["t", "x", "residual", "residual_shifted_target"], \
        rows, lines


def _run_reduce_markov(cfg, seed):
    regime_model = build_regime_model(cfg["regime"])
    m = cfg["model"]
    num = cfg["numerics"]
    model, dyn, policy, objective, _ = _problem(cfg, regime_model, seed)
    phi_rates = rs_source_rate(model) if m["kind"] == "rs" else None
    rep = markov_reduction_experiment(dyn, policy, objective, regime_model,
                                      m["x0"], m["i0"], m["horizon"],
                                      num["n_paths"], num["dt"], seed,
                                      phi_rates=phi_rates)
    d = rep.to_dict()
    rows = []
    if rep.status == "ok":
        rows.append(("objective", rep.j_semi, rep.se_semi, rep.j_chain,
                     rep.se_chain, int(rep.j_pass)))
        if rep.phi_pass is not None:
            rows.append(("phi", rep.phi_semi, rep.phi_se_semi, rep.phi_chain,
                         rep.phi_se_chain, int(rep.phi_pass)))
        lines = [f"objective: semi {rep.j_semi:.6g} vs chain {rep.j_chain:.6g}"
                 f" (pass: {rep.j_pass})"]
        if rep.phi_pass is not None:
            lines.append(f"phi: semi {rep.phi_semi:.6g} vs chain "
                         f"{rep.phi_chain:.6g} (pass: {rep.phi_pass})")
    else:
        lines = [f"status: not-applicable ({rep.reason})"]
    return rep.passed, {"experiment": "reduce-markov"} | d, \
        ["quantity", "value_semi", "se_semi", "value_chain", "se_chain",
         "pass"], rows, lines


def _run_policy_eval(cfg, seed):
    regime_model = build_regime_model(cfg["regime"])
    m = cfg["model"]
    policy = _problem(cfg, regime_model, seed)[2]
    rows = [(t, x, int(i), y,
             float(np.atleast_1d(policy.rule(t, x, int(i), y))[0]))
            for t, x, i, y in cfg["queries"]]
    report = {"experiment": "policy-eval", "kind": m["kind"],
              "queries": [{"t": r[0], "x": r[1], "i": r[2], "y": r[3],
                           "u": r[4]} for r in rows],
              "pass": True}
    lines = [f"evaluated {len(rows)} control queries ({m['kind']} rule)"]
    return True, report, ["t", "x", "i", "y", "u"], rows, lines


_RUNNERS = {
    "simulate": _run_simulate,
    "rs-verify": lambda cfg, seed: _verify_common(cfg, seed, "rs"),
    "ql-verify": lambda cfg, seed: _verify_common(cfg, seed, "ql"),
    "dynkin": _run_dynkin,
    "hjb": _run_hjb,
    "reduce-markov": _run_reduce_markov,
    "policy-eval": _run_policy_eval,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_experiment(command: str, cfg: dict, seed: int, seed_source: str,
                   out_dir: Path, threads: int | None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        passed, report, header, rows, lines = _RUNNERS[command](cfg, seed)
    except InfiniteHazard as exc:
        raise ConfigError(f"config invalid at $.regime.holding[{exc.state}]"
                          f".shape: {exc}") from exc
    resolved = copy.deepcopy(cfg)
    resolved["seed"] = seed
    resolved["seed_source"] = seed_source
    resolved["experiment"] = command
    if threads is not None:
        resolved["threads"] = threads
    write_json(out_dir / "resolved_config.json", resolved)
    write_csv(out_dir / "results.csv", header, rows)
    write_json(out_dir / "report.json", report)
    if seed_source != "config":
        lines = [f"note: seed overridden via {seed_source}"] + lines
    _summary(out_dir / "summary.txt", command, seed, seed_source, lines, passed)
    return 0 if passed else 1


def _seed_in_range(seed: int, name: str) -> int:
    """``seed`` if it lies in the config schema's range; ConfigError naming
    the flag or variable ``name`` otherwise."""
    if not 0 <= seed <= SEED_MAX:
        raise ConfigError(f"{name} must be an integer in [0, 2**64 - 1], "
                          f"got {seed}")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smjd",
        description="Regime-switching jump-diffusion control experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        try:
            raw = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            cfg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = validate_config(cfg, args.command)

        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got "
                              f"{args.threads}")
        seed, seed_source = cfg["seed"], "config"
        if args.seed is not None:
            seed = _seed_in_range(args.seed, "--seed")
            seed_source = "--seed flag"
        if os.environ.get(SEED_ENV):
            try:
                seed = int(os.environ[SEED_ENV])
            except ValueError as exc:
                raise ConfigError(
                    f"{SEED_ENV} must be an integer, got "
                    f"{os.environ[SEED_ENV]!r}") from exc
            seed = _seed_in_range(seed, SEED_ENV)
            seed_source = f"{SEED_ENV} environment variable"
        out_dir = Path(args.out if args.out is not None else cfg["out"])
        return run_experiment(args.command, cfg, seed, seed_source, out_dir,
                              args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SmjdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
