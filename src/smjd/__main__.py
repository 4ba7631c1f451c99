"""``python -m smjd``: the :mod:`smjd.cli` command line."""
from .cli import main
if __name__ == "__main__":
    raise SystemExit(main())
