"""Package exports: declared names resolve, re-exported functions are
declared."""
import ast
import importlib
import inspect
import pkgutil

import smjd


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
