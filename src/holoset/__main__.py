import gc

from .cli import main


def run() -> int:
    """main(), then a frozen heap, so that the full collections CPython
    runs at exit skip it; main itself never freezes (tests call it)."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
