"""Rebuild the benchmark's job pools and known-answer table.

    python3 perfbench/known.py     # rewrites perfbench/known_answers.json

Run it only at a commit whose answers are trusted, on an otherwise idle
machine: every later run fails a job whose answer differs from this table,
and the cost bands sort jobs into classes by the fastest of three timings
of each candidate made here.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import battery_mix  # noqa: E402
import cli_verbs  # noqa: E402
import cohom_mix  # noqa: E402

if __name__ == "__main__":
    cohom_mix.write_known()
    battery_mix.write_known()
    cli_verbs.write_known()
