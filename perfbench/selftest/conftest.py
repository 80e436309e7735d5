"""Make the benchmark's modules and the checkout's ``src`` importable.

Appended, not prepended, so that no benchmark module shadows a name the
repository's own test suite imports."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parents[1] / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.append(str(path))
