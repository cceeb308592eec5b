"""`python -m expmoments`: the command-line interface of `expmoments.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
