"""``python -m quadrance``: the command-line interface of quadrance.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
