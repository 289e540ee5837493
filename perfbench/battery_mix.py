"""The battery workload: one ``run_battery(seed, 1)`` instance per job.

The instance seeds come from a pool in ``known_answers.json``, in cost
bands measured when the pool was built, and a block holds a fixed number
of seeds from each band.  A job passes when the battery reports
``passed``.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass

from kvcohom import battery

import pool

# Cost bands in seconds at the building commit: the 5-25 %, 40-60 % and
# 80-95 % quantiles of the 400 pool seeds' cost.  With the jobs per block
# below, the median lies inside "B" and the 90th percentile inside "C",
# away from the band edges.
BANDS = (("A", 0.0205, 0.0455), ("B", 0.0643, 0.0884), ("C", 0.0995, 0.1276))
BLOCK = {"A": 8, "B": 10, "C": 7}
POOL_SEEDS = range(1, 401)


@dataclass
class Job:
    key: str
    seed: int

    def run(self):
        return battery.run_battery(self.seed, 1)

    def check(self, report) -> str | None:
        if report.count != 1 or not report.passed:
            return f"{self.key}: the battery did not pass: {report.to_obj()['failures']}"
        return None


def blocks(seed: int):
    rng = random.Random(f"battery:{seed}")
    for entries in pool.draw_blocks(pool.load("battery"), BLOCK, rng):
        yield [Job(f"battery:{e['s']}", e["s"]) for e in entries]


def warmup() -> list[Job]:
    e = min(pool.load("battery"), key=lambda e: e["cost_s"])
    return [Job(f"battery:{e['s']}", e["s"])]


def _timed(entry: dict) -> float:
    t0 = time.perf_counter()
    report = battery.run_battery(entry["s"], 1)
    seconds = time.perf_counter() - t0
    if not report.passed:
        raise SystemExit(f"battery seed {entry['s']} fails at this commit")
    return seconds


def write_known() -> None:
    entries = [{"s": s} for s in POOL_SEEDS]
    pool.cost(entries, _timed)
    kept = pool.classify(entries, BANDS)
    pool.store("battery", kept)
    print(f"battery: kept {len(kept)} of {len(entries)} seeds", file=sys.stderr)
