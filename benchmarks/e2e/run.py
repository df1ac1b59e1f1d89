"""Script form of ``python -m benchmarks.e2e``, runnable from the repo root:

    python3 benchmarks/e2e/run.py --workload demo-mixed --seed 1 --seconds 20 --trace 0
"""

import runpy
import sys
from pathlib import Path

# Import the package from the repository root rather than from this
# directory, whose module names must not shadow top-level ones.
sys.path[0] = str(Path(__file__).resolve().parents[2])
runpy.run_module("benchmarks.e2e", run_name="__main__", alter_sys=True)
