"""The one process entry of `python -m lsqcond` and the `lsqcond` script.
run() freezes the collector once the command is done, so teardown does not
walk the objects of NumPy's import; cli.main called in process leaves GC alone."""

import gc

from .cli import main


def run() -> int:
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
