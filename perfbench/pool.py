"""Known-answer table, the seeded cost-stratified draw of job blocks, and
the environment of the benchmark's subprocesses."""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "known_answers.json"
# Timings of each candidate job when the pool is built, and the cost past
# which a candidate is out of every band and is not timed again.
PASSES = 3
CUTOFF = 1.0


def child_env() -> dict:
    """This process's environment with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def load(section: str):
    return json.loads(TABLE.read_text())[section]


def store(section: str, value) -> None:
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    table[section] = value
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def cost(entries: list[dict], timed) -> None:
    """Set each entry's ``cost_s`` to its fastest of several timings.

    The machine's speed drifts by up to twice over seconds to minutes, so
    one timing can put a job in the wrong band.  The passes are spread over
    the whole build; an entry slower than ``CUTOFF`` after the first pass
    is not timed again.
    """
    for k in range(PASSES):
        for e in entries:
            if k == 0 or e["cost_s"] < CUTOFF:
                seconds = timed(e)
                e["cost_s"] = round(seconds if k == 0 else min(seconds, e["cost_s"]), 4)


def classify(entries: list[dict], bands) -> list[dict]:
    """Keep the entries whose cost falls in a band (name, low, high seconds)."""
    out = []
    for e in entries:
        for name, lo, hi in bands:
            if lo <= e["cost_s"] < hi:
                out.append(dict(e, cls=name))
    return out


def draw_blocks(pool: list[dict], sizes: dict[str, int], rng: random.Random):
    """Endless shuffled blocks holding ``sizes[c]`` distinct entries of class c.

    Every block has the same class mix, so a run of whole blocks does too,
    however many blocks fit in its time.
    """
    by_class: dict[str, list[dict]] = {}
    for e in pool:
        by_class.setdefault(e["cls"], []).append(e)
    while True:
        picks = [e for c, k in sizes.items() for e in rng.sample(by_class[c], k)]
        rng.shuffle(picks)
        yield picks
