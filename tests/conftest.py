"""Shared test set-up.

The `pythonpath` setting in pyproject.toml puts `src` on the import path
of the pytest process only.  Some tests start `python3 -m partible.cli`
in a subprocess; prepending `src` to PYTHONPATH makes those run this
tree's code too, with or without an install.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
