"""Rewrite ``golden_figure5.json``, the figure5 workloads' expected records.

Run from the root of a checkout, only when a change is meant to alter
simulated results::

    python3 perfbench/make_golden.py

The file holds one digest per cell (of the canonical ``RunRecord``
JSON) and the digest of the whole grid; both figure5 workloads must
reproduce it exactly.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import loads  # noqa: E402
from repro.experiments.figure5 import run_figure5  # noqa: E402

if __name__ == "__main__":
    records = run_figure5(scale=loads.FIGURE5_SCALE, jobs=1).records
    cells = loads.figure5_digests(records)
    golden = {
        "scale": loads.FIGURE5_SCALE,
        "digest": loads.digest(cells),
        "cells": cells,
    }
    with open(loads.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(golden["digest"])
