"""The cohom-mix workload: one exact library call per job.

Jobs come from a committed pool (``known_answers.json``).  Each pool entry
names a job kind and the ``random_kv`` seed of its instance, carries the
dimension table the seed commit computed for it, and sits in a cost class
measured at the seed commit.  A run is a sequence of blocks; every block
holds the same number of jobs from each class, drawn from the pool by the
run's seed and shuffled, so any number of whole blocks has the same mix.
The inputs of the whole pool are built once, before the first block, so
set-up does the same work whatever the seed.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from kvcohom import complexes, core, deform, extensions, fixtures

import checks
import pool

# Cost bands in seconds at the building commit.  The gaps between bands
# keep the median and the 90th percentile of a run inside one band each,
# and the narrow bands keep them steady whichever entries a seed draws.
# Other candidates are left out: one job over 0.4 s would be several
# percent of a run, and the spread of such jobs from instance to instance
# would dominate it.
BANDS = (("S", 0.015, 0.045), ("M", 0.08, 0.14), ("L", 0.3, 0.4))
# The tail instead: class "XL", the same jobs in every block.  Regular
# coefficients on two random n=6 algebras (about 1.0 s and 0.6 s) and on
# the zero algebra (1.8 s).
FIXED = (("coh_zero", 6), ("coh_reg", 1), ("rigidity", 24))
# Jobs per block for each class.  Sorted by cost, the median falls in the
# middle of "M" and the 90th percentile in the middle of "L", away from the
# noisy top of a band: S = L + XL and S + M = 4 L + 9 XL.
BLOCK = {"S": 12, "M": 39, "L": 9, "XL": len(FIXED)}
# random_kv(seed, n_max=7) instances per dimension 4..7 in the candidates.
PER_DIM = 10


def instance(kind: str, s: int, mu=None):
    """The inputs of one job, built outside the timed call."""
    if kind == "coh_zero":
        A = fixtures.zero_algebra(s)
        return (A, core.regular_bimodule(A))
    if kind == "e11":
        A = core.random_kv(s, n_max=3)
        return (A, core.random_module(A, s, m_max=2), core.random_module(A, s + 1, m_max=2))
    if kind == "solve":
        A = core.random_kv(s, n_max=5)
        return (deform.MultiplicationJet(A, (core.tensor3(mu),)),)
    A = core.random_kv(s, n_max=7)
    if kind == "rigidity":
        return (A,)
    W = core.regular_bimodule(A) if kind in ("coh_reg", "nij_reg") else core.random_module(A, s, m_max=3)
    return (A, W)


def call(kind: str, args) -> Any:
    """The one library call a job makes; attributes are looked up per call."""
    if kind in ("coh_reg", "coh_mod", "coh_zero"):
        return complexes.cohomology(args[0], args[1], 2)
    if kind in ("nij_reg", "nij_mod"):
        return complexes.nijenhuis_cohomology(args[0], args[1], 3)
    if kind == "rigidity":
        return deform.rigidity_report(args[0])
    if kind == "e11":
        return extensions.e11_cohomology(args[0], args[1], args[2], 2)
    if kind == "solve":
        return deform.solve_next_order(args[0])
    raise ValueError(kind)


def answer(kind: str, result) -> Any:
    """The part of a result the known-answer table pins down."""
    if kind == "rigidity":
        return [result.dim_C2, result.dim_Z2, result.dim_B2, result.dim_H2]
    if kind == "solve":
        return {"solved": result.solved}
    return checks.table(result)


def fingerprint(kind: str, result) -> Any:
    """Everything a repeat of the job must reproduce exactly."""
    if kind == "rigidity":
        return (answer(kind, result), result.class_representatives)
    if kind == "solve":
        return (result.solved, result.coefficient, result.certificate)
    return tuple(
        (d.dim_C, d.dim_Z, d.dim_B, d.dim_H, tuple(r.values for r in d.representatives))
        for d in result.degrees
    )


def verify(entry: dict, args, result) -> str | None:
    """Full check of a first result against the table and independent routes."""
    kind, key = entry["kind"], entry["key"]
    got = answer(kind, result)
    if got != entry["answer"]:
        return f"{key}: answer {got} differs from the known answer {entry['answer']}"
    if kind == "rigidity":
        A = args[0]
        W = core.regular_bimodule(A)
        flat = [tuple(x for p in t for r in p for x in r) for t in result.class_representatives]
        problem = checks.cocycles(A, W, 2, flat, key)
        return problem and f"{key}: {problem}"
    if kind == "solve":
        return checks.next_order(args[0], result, key)
    problem = checks.rank_nullity(got)
    if problem is None and kind == "coh_zero":
        problem = checks.zero_algebra_closed_form(entry["s"], got)
    if problem is not None or kind.startswith("nij"):
        return problem and f"{key}: {problem}"
    for d in result.degrees:
        if not d.representatives:
            continue
        r0 = d.representatives[0]
        problem = checks.cocycles(
            r0.algebra, r0.module, r0.degree, [r.values for r in d.representatives], f"{key}:{d.degree}"
        )
        if problem:
            return f"{key}: {problem}"
    return None


@dataclass
class Job:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _job(entry: dict, args, verdicts: dict) -> Job:
    kind, key = entry["kind"], entry["key"]

    def check(result) -> str | None:
        # The first result of a job is checked in full; a repeat must
        # reproduce the first result exactly.
        fp = fingerprint(kind, result)
        if key not in verdicts:
            verdicts[key] = (fp, verify(entry, args, result))
        first, problem = verdicts[key]
        if problem:
            return problem
        return None if fp == first else f"{key}: a repeat gave a different result"

    return Job(key, lambda: call(kind, args), check)


def blocks(seed: int):
    """Endless blocks of jobs drawn by seed from the whole pool."""
    entries = pool.load("cohom_mix")
    inputs = {e["key"]: instance(e["kind"], e["s"], e.get("mu")) for e in entries}
    verdicts: dict[str, Any] = {}
    rng = random.Random(f"cohom-mix:{seed}")
    for drawn in pool.draw_blocks(entries, BLOCK, rng):
        yield [_job(e, inputs[e["key"]], verdicts) for e in drawn]


def warmup() -> list[Job]:
    """The cheapest pool entry of each kind but the fixed zero-algebra job."""
    cheapest: dict[str, dict] = {}
    for e in pool.load("cohom_mix"):
        if e["cls"] != "XL" and e["cost_s"] < cheapest.get(e["kind"], {"cost_s": 1e9})["cost_s"]:
            cheapest[e["kind"]] = e
    return [_job(e, instance(e["kind"], e["s"], e.get("mu")), {}) for e in cheapest.values()]


def _candidate(kind, s, mu=None, rep=None) -> dict:
    entry = {"key": f"{kind}:{s}" + ("" if rep is None else f":{rep}"), "kind": kind, "s": s}
    if mu is not None:
        entry["mu"] = [[[str(x) for x in r] for r in p] for p in mu]
    return entry


def _timed(entry: dict) -> float:
    args = instance(entry["kind"], entry["s"], entry.get("mu"))
    t0 = time.perf_counter()
    result = call(entry["kind"], args)
    seconds = time.perf_counter() - t0
    entry["answer"] = answer(entry["kind"], result)
    return seconds


def write_known() -> None:
    """Time every candidate job, keep those in a band, record answers."""
    by_dim: dict[int, list[int]] = {}
    s = 0
    while any(len(by_dim.get(n, [])) < PER_DIM for n in (4, 5, 6, 7)):
        s += 1
        n = core.random_kv(s, n_max=7).dim
        if 4 <= n <= 7 and len(by_dim.setdefault(n, [])) < PER_DIM:
            by_dim[n].append(s)
    candidates = []
    for n, seeds in sorted(by_dim.items()):
        for s in seeds:
            candidates += [_candidate("coh_mod", s), _candidate("nij_mod", s)]
            if n <= 6:
                candidates += [_candidate("coh_reg", s), _candidate("rigidity", s)]
            if n <= 5:
                candidates.append(_candidate("nij_reg", s))
    candidates += [_candidate("e11", s) for s in range(1, 31)]
    for s in range(1, 121):
        A = core.random_kv(s, n_max=5)
        if A.dim < 2 or (s > 40 and A.dim > 4):
            continue
        reps = deform.rigidity_report(A).class_representatives
        for r in range(min(3 if s <= 40 else 6, len(reps))):
            # Past seed 40 only obstructed jets join, so that the pool has
            # obstructions of every cost class without solves crowding it.
            jet = deform.MultiplicationJet(A, (reps[r],))
            if s <= 40 or not deform.solve_next_order(jet).solved:
                candidates.append(_candidate("solve", s, reps[r], rep=r))
    fixed = [_candidate(kind, s) for kind, s in FIXED]
    keys = {e["key"] for e in fixed}
    entries = fixed + [e for e in candidates if e["key"] not in keys]
    pool.cost(entries, _timed)
    # rigidity_report must agree with degree 2 of cohomology; the table
    # then holds every later run's rigidity answers to that.
    regular = {e["s"]: e["answer"] for e in entries if e["kind"] == "coh_reg"}
    for e in entries:
        if e["kind"] == "rigidity" and e["answer"] != regular[e["s"]][2]:
            raise SystemExit(f"{e['key']}: rigidity disagrees with degree 2 of cohomology")
    kept = [dict(e, cls="XL") for e in fixed] + pool.classify(entries[len(fixed):], BANDS)
    pool.store("cohom_mix", kept)
    print(f"cohom-mix: kept {len(kept)} of {len(entries)} candidate jobs", file=sys.stderr)
