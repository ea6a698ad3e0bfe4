"""`python -m mklang`: the command line, runnable without an install."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
