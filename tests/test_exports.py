"""Package exports: declared names resolve, re-exported functions are
declared, every public function and class has a caller, and every default
of a parameter is used by some call."""
import ast
import importlib
import inspect
import pathlib
import pkgutil

import smjd

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "smjd").glob("*.py"))
# the package, the demos and the non-test benchmark files
CALLERS = [*PACKAGE, *(ROOT / "demos").glob("*.py"),
           *(p for p in (ROOT / "perfbench").glob("*.py")
             if not p.name.startswith("test_"))]


# Public functions and classes that no code under src/, demos/ or the
# benchmark calls, each kept as library API for the reason given.
UNCALLED_API = {
    "integrability_report": "adjoint integrability hypothesis (ROADMAP "
                            "item 4)",
    "dynkin_check": "dynamic-programming martingale check (ROADMAP item 3)",
}

# Defaulted parameters that every call under src/, demos/ or the benchmark
# passes, each kept with its default for the reason given.
PASSED_DEFAULTS = {
    "stream.index": "stream 0 of a purpose",
    "apply_generator_L.dphi_dy": "passed through from dynkin_statistics, "
                                 "which tests call with None",
    "markov_reduction_experiment.phi_rates": "the CLI passes None for a QL "
                                             "model",
}


def test_module_exports_resolve():
    for info in pkgutil.iter_modules(smjd.__path__):
        module = importlib.import_module(f"smjd.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


def test_reexported_functions_are_declared():
    imports = [node for node in ast.parse(inspect.getsource(smjd)).body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"smjd.{node.module}")
        for alias in node.names:
            obj = getattr(module, alias.name)
            assert getattr(smjd, alias.name) is obj
            if inspect.isfunction(obj):
                assert alias.name in module.__all__, (node.module, alias.name)


def test_public_functions_and_classes_have_a_caller():
    # a caller is a name or attribute in code (not an import, __all__ or a
    # docstring) of the package, the demos or the non-test benchmark files
    used = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = {node.name for path in PACKAGE
                for node in ast.parse(path.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in used}
    assert uncalled - UNCALLED_API.keys() == set(), "no caller"
    assert UNCALLED_API.keys() - uncalled == set(), "called: drop from list"


def _defaults(fn: ast.FunctionDef, implicit: int) -> dict:
    """Each defaulted parameter of ``fn`` and its position among those a
    call passes (None for keyword-only), past ``implicit`` leading ones
    (self or cls) that a call does not pass."""
    args = fn.args
    pos = [a.arg for a in args.posonlyargs + args.args][implicit:]
    out = {name: k for k, name in enumerate(pos)
           if k >= len(pos) - len(args.defaults)}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults) if d is not None})
    return out


def test_every_default_is_used_by_some_call():
    # functions and methods of the package by name, a constructor by its
    # class's; a call passes a parameter by keyword, by position, or with
    # *args / **kwargs.  A default that every call passes is dead.
    defaults = {}
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defaults[node.name] = _defaults(node, 0)
            for fn in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    name = node.name if fn.name == "__init__" else fn.name
                    defaults[name] = _defaults(fn, 0 if static else 1)
    left_out = {}  # per called name, the defaults some call leaves out
    for path in CALLERS:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if not defaults.get(name):
                continue
            spread = (any(isinstance(a, ast.Starred) for a in call.args)
                      or any(k.arg is None for k in call.keywords))
            named = {k.arg for k in call.keywords}
            passed = {p for p, k in defaults[name].items()
                      if spread or p in named
                      or (k is not None and k < len(call.args))}
            left_out.setdefault(name, set()).update(
                defaults[name].keys() - passed)
    always = {f"{name}.{p}" for name, left in left_out.items()
              for p in defaults[name].keys() - left}
    assert always - PASSED_DEFAULTS.keys() == set(), "every call passes it"
    assert PASSED_DEFAULTS.keys() - always == set(), "used: drop from list"
