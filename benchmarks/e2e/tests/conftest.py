"""Self-tests of the benchmark; run by explicit path:

    python -m pytest benchmarks/e2e/tests

They are not part of the tier-1 suite (``pytest.ini``'s ``testpaths`` is
untouched).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(E2E)]
