"""Benchmark of kvcohom: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload cohom-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from the root of a checkout; the library is imported from ``src``.
A run builds its inputs from ``--seed`` and then runs whole blocks of jobs,
one after another, until ``--seconds`` have passed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones.  With ``--trace 1`` each job of a fixed number of blocks
runs untraced and then traced, and the metrics are the per-layer ones
(see ``tracer.py``).  Scratch files and span dumps go to ``.perfbench/``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pool  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ".perfbench"
WORKLOADS = ("cohom-mix", "battery", "cli-verbs")
# Blocks in a traced run: fixed, so that its counts repeat exactly.
TRACE_BLOCKS = {"cohom-mix": 1, "battery": 3, "cli-verbs": 2}
SETUP_PROBES = 5
# Jobs a timed run completes at least: p90 then has 10 beyond it.
MIN_JOBS = 100
CLI_PROBES = 5


def setup(workload: str, seed: int, failures: list):
    """Import, build the first block's inputs, write files, warm up.

    Returns the block iterator, the first block and the warm-up job count.
    """
    if workload == "cohom-mix":
        import cohom_mix as module
    elif workload == "battery":
        import battery_mix as module
    else:
        import cli_verbs as module

        module.write_inputs()
    it = module.blocks(seed)
    first = next(it)
    warmup = module.warmup()
    for job in warmup:
        run_one(job, failures)
    return it, first, len(warmup)


def run_one(job, failures: list, in_process: bool = False, tracer=None, index=None) -> float:
    """Run one job, timing the call alone; check it after the clock stops.

    With a tracer, the job is traced under ``index`` and the tracer is
    removed again before the check.
    """
    runner = job.run_in_process if in_process else job.run
    if tracer is not None:
        tracer.install()
        tracer.job = index
    t0 = time.perf_counter()
    try:
        result = runner()
        problem = None
    except Exception as exc:  # a crash is a failed job, not a failed run
        result, problem = None, f"{job.key}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = None
        tracer.uninstall()
    if problem is None:
        problem = job.check(result)
    if problem is not None:
        failures.append(problem)
    return elapsed


def _median_wall(args: list[str], repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(args, cwd=ROOT, env=pool.child_env(), check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def setup_seconds(ns, own: float) -> float:
    """Median set-up time of this process and of fresh set-up-only processes."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", ns.workload, "--seed", str(ns.seed),
             "--setup-probe"],
            cwd=ROOT, env=pool.child_env(), capture_output=True, text=True, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def timed(ns, it, first, failures: list) -> tuple[dict, dict]:
    """Whole blocks until the time is up and p90 has 10 jobs beyond it."""
    lat: list[float] = []
    rates: list[float] = []
    seen = []
    t0 = time.perf_counter()
    block = first
    while True:
        block_lat = [run_one(job, failures) for job in block]
        lat += block_lat
        rates.append(len(block) / sum(block_lat))
        seen += block
        if time.perf_counter() - t0 >= ns.seconds and len(lat) >= MIN_JOBS:
            break
        block = next(it)
    if ns.workload == "cli-verbs":
        rss_kib = max(j.rss_kib for j in seen)  # the largest verb subprocess
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    metrics = {
        # The median block, so that one block slowed by the machine does
        # not move it; every block has the same class mix.
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (p90, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    info = {"jobs": len(lat), "blocks": len(rates), "beyond_p90": sum(x > p90 for x in lat)}
    return metrics, info


def traced(ns, it, first, failures: list) -> tuple[dict, dict]:
    """Per-layer metrics of a fixed number of blocks, traced in process."""
    import tracer

    jobs = list(first)
    for _ in range(TRACE_BLOCKS[ns.workload] - 1):
        jobs += next(it)
    in_process = ns.workload == "cli-verbs"
    # Each job runs untraced and then traced, back to back, so that drift
    # of the machine's speed falls on both sides of the overhead alike.
    tr = tracer.Tracer()
    untraced = wall = 0.0
    for i, job in enumerate(jobs):
        untraced += run_one(job, failures, in_process)
        wall += run_one(job, failures, in_process, tr, i)
    values = tracer.layer_metrics(tr)
    values["trace.untraced_s"] = untraced
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced
    values["trace.unattributed_s"] = wall - values["trace.self_total_s"] - values["trace.span_overhead_s"]
    # What every CLI call pays before its verb runs.
    interpreter = _median_wall([sys.executable, "-c", "pass"], CLI_PROBES)
    imported = _median_wall([sys.executable, "-c", "import kvcohom.cli"], CLI_PROBES)
    values["cli.interpreter_s"] = interpreter
    values["cli.import_s"] = imported - interpreter
    units = {m: u for m, u, _k, _f in tracer.METRICS}
    metrics = {k: (v, units.get(k, "count" if isinstance(v, int) else "s")) for k, v in values.items()}
    out = ROOT / SCRATCH / f"trace-{ns.workload}-{ns.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    tr.write(out)
    return metrics, {"jobs": len(jobs), "spans_file": str(out.relative_to(ROOT))}


def run_all(ns) -> int:
    """Each workload in a fresh process, one table of every metric."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(ns.seed),
             "--seconds", str(ns.seconds), "--trace", str(ns.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(f"{workload}: exit {out.returncode}\n")
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ns = parser.parse_args()
    if not (ROOT / "src" / "kvcohom" / "__init__.py").is_file():
        sys.stderr.write(f"no kvcohom sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if ns.workload == "all":
        return run_all(ns)
    failures: list[str] = []
    it, first, warm = setup(ns.workload, ns.seed, failures)
    if ns.setup_probe:
        print(time.perf_counter() - _START)
        return 0
    own_setup = time.perf_counter() - _START
    if ns.trace:
        metrics, info = traced(ns, it, first, failures)
    else:
        metrics, info = timed(ns, it, first, failures)
        metrics = {"setup_s": (setup_seconds(ns, own_setup), "s"), **metrics}
    attempted = warm + info["jobs"] * (2 if ns.trace else 1)
    for problem in failures[:10]:
        sys.stderr.write(f"FAILED {problem}\n")
    info.update(python=platform.python_version(), nproc=os.cpu_count())
    # fail_ratio is printed but kept out of the result's metrics: it is 0
    # on a correct commit, where a relative bound means nothing, and the
    # result line carries failed/attempted.
    shown = {**metrics, "fail_ratio": (len(failures) / attempted, "ratio")}
    for name, (value, unit) in shown.items():
        print(f"{ns.workload:10} {name:28} {value:14.6g} {unit}")
    for name, value in info.items():
        print(f"{ns.workload:10} {name:28} {value}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
