"""Process environment and provenance shared by the benchmark's entry points."""

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS and OpenMP pools to one thread; call before numpy loads.

    Child processes inherit the setting through the environment.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import ``smjd`` from the checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "smjd" / "__init__.py").is_file():
        print(f"perfbench: no smjd sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git;
    None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the library sources, to identify non-git checkouts."""
    h = hashlib.sha256()
    for path in sorted((SRC / "smjd").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    import platform

    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}
