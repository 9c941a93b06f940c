"""Print how long ``import repro.serve`` takes in a fresh interpreter.

``run.py`` starts this a few times per run so the import share of
``setup_s`` is a median, like the service build share.
"""

import time

T_START = time.monotonic()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import repro.serve  # noqa: E402,F401

print(time.monotonic() - T_START)
