"""The README's examples run: the library quick start executes and the CLI
quick start's config passes the schema."""
import contextlib
import io
import json
import pathlib
import re

import numpy as np

from smjd.cli import validate_config

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block after the heading ``section``."""
    body = README[README.index(f"## {section}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("Quick start (library)", "python"), "README.md",
                     "exec"), {})
    values = np.array(out.getvalue().split(), dtype=float)
    assert values.shape == (3,) and np.isfinite(values).all()


def test_cli_quick_start_config_is_valid():
    cfg = json.loads(_block("Quick start (CLI)", "json"))
    assert cfg["experiment"] == "rs-verify"
    assert validate_config(cfg, "rs-verify")["model"]["kind"] == "rs"
