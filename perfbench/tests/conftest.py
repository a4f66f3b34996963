"""Make the benchmark's ``rfbench`` package and the repo's ``src`` importable."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1]
for _path in (_BENCH, _BENCH.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
