"""The cli-verbs workload: one CLI subprocess per job, run one after another.

Set-up writes the fixture files and small generated inputs a block needs.
Every block runs each of the 19 verbs at least once, including the exit-1
paths (an obstructed jet, a theta that is not a cocycle), a malformed file
(exit 2) and a budget overrun (exit 3), and the heavier ``proptest``
requests of ``PROPTEST_SEEDS``.  The rest of a block is drawn by
the run's seed from finite parameter pools, and ``known_answers.json``
holds the exit code and report digest of every request in those pools;
every repeat of a request must give exactly those bytes.  Requests name
their files by paths relative to the checkout root, which is the working
directory of every subprocess, so reports are byte-identical from checkout
to checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from kvcohom import cli, complexes, core, extensions, fixtures, geom
from kvcohom import serialize as sz

import pool

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ".perfbench/cli"
STDERR = ROOT / WORKDIR / "stderr.txt"

# Seeds of random_kv(seed, n_max=3) algebras of dimension 3, the generated
# inputs; and the drawn parameters of the other seeded verbs.
GEN_SEEDS = (2, 3, 5, 7, 8, 9, 10, 11, 12, 13)
PENCIL = (("1", "0"), ("2", "3"), ("-1/2", "5"), ("3", "-2"), ("0", "5"))
GEODESIC = (("2", "0", "-2"), ("1", "1", "0.5"), ("-1", "0", "1.5"), ("1/2", "2", "-1"))
# proptest seeds whose one instance costs about twice a typical verb
# (0.29-0.35 s at the building commit against 0.15-0.21 s).  All of them
# run in every block of 29 jobs, so the 90th percentile falls among them,
# not in the tail of the typical verbs, where process start-up noise
# decides it.
PROPTEST_SEEDS = (1, 2, 3, 5, 6, 8)

LAUNCH = "import sys; from kvcohom.cli import main; sys.exit(main(sys.argv[1:]))"


def write_inputs() -> None:
    """Write every input file the request pool reads."""
    workdir = ROOT / WORKDIR
    workdir.mkdir(parents=True, exist_ok=True)
    aff = geom.aff_algebra()
    reg = core.regular_bimodule(aff)
    s10 = geom.s_alpha_beta(1, 0)
    phi = complexes.Cochain(aff, reg, 1, tuple(Fraction(x) for x in (1, -2, 0, 3)))

    def tensor_of(c):
        n = aff.dim
        return core.tensor3(
            [[[c.value_element((i, j)).coords[k] for k in range(n)] for j in range(n)] for i in range(n)]
        )

    def ext(c):
        return sz.extension_to_obj(extensions.algebra_extension_from_cocycle(aff, reg, c))

    not_cocycle = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    not_cocycle[0][0][1] = Fraction(1)
    objects = {
        "aff.json": sz.algebra_to_obj(aff),
        "aff-reg.json": sz.module_to_obj(reg),
        "zero-mod.json": sz.module_to_obj(core.zero_module(aff, 1)),
        "s10.json": sz.cochain_to_obj(s10),
        "zero-cochain.json": {"degree": 2, "values": ["0"] * 9},
        "ext1.json": ext(s10),
        "ext2.json": ext(s10 + complexes.coboundary(phi)),
        "s10-jet.json": {"base": sz.algebra_to_obj(aff), "coefficients": [sz.tensor3_to_obj(tensor_of(s10))]},
        "jet-obstructed.json": sz.jet_to_obj(fixtures.obstructed_jet()),
        "s23.json": {"tensor": sz.tensor3_to_obj(tensor_of(geom.s_alpha_beta(2, 3)))},
        "graded.json": sz.graded_to_obj(fixtures.graded_flat()),
        "theta.json": {"tensor": sz.tensor3_to_obj(fixtures.flat_theta())},
        "psi.json": {"tensor": sz.tensor3_to_obj(fixtures.flat_psi())},
        "theta-not-cocycle.json": {"tensor": sz.tensor3_to_obj(core.tensor3(not_cocycle))},
    }
    for s in GEN_SEEDS:
        objects[f"gen-{s}.json"] = sz.algebra_to_obj(core.random_kv(s, n_max=3))
    for name, obj in objects.items():
        (workdir / name).write_text(sz.canonical_json(obj))
    (workdir / "malformed.json").write_text('{"dim": 2, "product": [[["1"')


def _fixed() -> list[tuple[str, ...]]:
    d = WORKDIR
    aff = f"{d}/aff.json"
    return [
        ("verify", "--algebra", aff, "--module", f"{d}/aff-reg.json"),
        ("jacobi", "--algebra", aff, "--module", f"{d}/aff-reg.json"),
        ("extend-algebra", "--algebra", aff, "--module", f"{d}/aff-reg.json", "--cochain", f"{d}/s10.json"),
        ("extend-module", "--algebra", aff, "--kernel", f"{d}/zero-mod.json",
         "--quotient", f"{d}/zero-mod.json", "--cochain", f"{d}/zero-cochain.json"),
        ("classify-ext", "--ext1", f"{d}/ext1.json", "--ext2", f"{d}/ext2.json"),
        ("deform-check", "--jet", f"{d}/s10-jet.json"),
        ("deform-solve", "--jet", f"{d}/s10-jet.json", "--orders", "2"),
        ("deform-solve", "--jet", f"{d}/jet-obstructed.json", "--orders", "2"),
        ("curvature-check", "--algebra", aff, "--tensor", f"{d}/s23.json"),
        ("graded-check", "--graded", f"{d}/graded.json"),
        ("graded-deform", "--graded", f"{d}/graded.json", "--theta", f"{d}/theta.json"),
        ("graded-deform", "--graded", f"{d}/graded.json", "--theta", f"{d}/theta-not-cocycle.json"),
        ("connectionlike", "--graded", f"{d}/graded.json", "--theta", f"{d}/theta.json", "--psi", f"{d}/psi.json"),
        ("verify", "--algebra", f"{d}/malformed.json"),
        ("cohomology", "--algebra", aff, "--budget", "3"),
    ] + [("proptest", "--seed", str(s), "--count", "1") for s in PROPTEST_SEEDS]


def _drawn(rng: random.Random) -> list[tuple[str, ...]]:
    gen = f"{WORKDIR}/gen-{rng.choice(GEN_SEEDS)}.json"
    alpha, beta = rng.choice(PENCIL)
    g_alpha, g_beta, t1 = rng.choice(GEODESIC)
    return [
        ("fixtures", rng.choice(cli.fixture_names())),
        ("aff-suite", f"--alpha={alpha}", f"--beta={beta}"),
        ("geodesic", f"--alpha={g_alpha}", f"--beta={g_beta}", f"--t1={t1}"),
        ("verify", "--algebra", gen),
        ("cohomology", "--algebra", gen),
        ("nijenhuis", "--algebra", gen),
        ("rigidity", "--algebra", gen),
        ("radiant", "--algebra", gen),
    ]


def request_pool() -> list[tuple[str, ...]]:
    """Every request a block can contain, for the digest table."""
    out = _fixed() + [("fixtures", name) for name in cli.fixture_names()]
    out += [("aff-suite", f"--alpha={a}", f"--beta={b}") for a, b in PENCIL]
    out += [("geodesic", f"--alpha={a}", f"--beta={b}", f"--t1={t}") for a, b, t in GEODESIC]
    for s in GEN_SEEDS:
        gen = f"{WORKDIR}/gen-{s}.json"
        out += [(verb, "--algebra", gen) for verb in ("verify", "cohomology", "nijenhuis", "rigidity", "radiant")]
    return out


def in_process(argv) -> tuple[int, bytes]:
    """Exit code and stdout bytes of ``main(argv)`` run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue().encode("utf-8")


def spawn(argv) -> tuple[int, bytes, bytes, int]:
    """Run one verb as a fresh interpreter: exit, stdout, stderr, max RSS in KiB."""
    with STDERR.open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, *argv],
            cwd=ROOT, env=pool.child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, STDERR.read_bytes(), usage.ru_maxrss


@dataclass
class Job:
    key: str
    argv: tuple
    expected: dict
    rss_kib: int = 0

    def run(self):
        code, out, err, rss = spawn(self.argv)
        self.rss_kib = max(self.rss_kib, rss)
        return code, out, err

    def run_in_process(self):
        code, out = in_process(self.argv)
        return code, out, b""

    def check(self, result) -> str | None:
        code, out, err = result
        if b"Traceback" in err:
            return f"{self.key}: traceback on stderr"
        if code != self.expected["exit"]:
            return f"{self.key}: exit {code}, expected {self.expected['exit']}"
        if hashlib.sha256(out).hexdigest() != self.expected["sha256"]:
            return f"{self.key}: report bytes differ from the known digest"
        return None


def blocks(seed: int):
    """Endless blocks of jobs; the same seed gives the same sequence."""
    known = pool.load("cli_verbs")
    rng = random.Random(f"cli-verbs:{seed}")
    jobs: dict = {}
    while True:
        block = _fixed() + _drawn(rng)
        rng.shuffle(block)
        out = []
        for argv in block:
            key = " ".join(argv)
            if key not in jobs:
                jobs[key] = Job(key, argv, known[key])
            out.append(jobs[key])
        yield out


def warmup() -> list[Job]:
    """One cheap verb, so that the interpreter's files are in the page cache."""
    argv = ("fixtures", "aff")
    key = " ".join(argv)
    return [Job(key, argv, pool.load("cli_verbs")[key])]


def write_known() -> None:
    write_inputs()
    entries = {}
    for argv in request_pool():
        code, out = in_process(argv)
        entries[" ".join(argv)] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}
    pool.store("cli_verbs", entries)
    print(f"cli-verbs: {len(entries)} request digests", file=sys.stderr)
