"""Command line: ``python -m benchmarks.e2e [--workload NAME ...]`` runs one
workload; ``python -m benchmarks.e2e compare ...`` compares two sets of
run records."""

import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[2] / "src"


def main(argv: list[str]) -> int:
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    try:
        import repro
    except ImportError as exc:
        print(f"benchmarks.e2e: cannot import the program from {SOURCE}: {exc}",
              file=sys.stderr)
        return 2
    if SOURCE not in Path(repro.__file__).resolve().parents:
        # Measure this checkout's sources, never an installed copy.
        print(f"benchmarks.e2e: repro was imported from {repro.__file__}, "
              f"not from {SOURCE}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    from benchmarks.e2e.runner import main as run_main

    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
