"""The benchmark's own tests: ``python -m pytest bench_e2e/tests`` from the repo root.

Not part of the tier-1 suite (``testpaths`` names only ``tests/``).
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
