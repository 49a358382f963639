"""Workloads, program runs and output checks for the ``repro study`` benchmark.

Every timed sample is one ``python -m repro ... study`` process, spawned
and reaped here with ``os.wait4`` so that its wall time, its CPU time
(pool workers included) and its peak resident memory come from the
kernel, for that run alone.  A sample counts as correct only if it exits
0, leaves an empty error ledger, hits the result store as its workload
demands, and prints byte for byte the stdout of the audited reference
run for its seed.  All workloads run the same seed and scale, so they
share one reference: that is what proves store and pool parity.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Corpus scale of every workload: 1,030 unique apps.  Scale 1.0 takes
#: about 38 s a run, too long to repeat; 0.2 keeps the dynamic
#: simulation the largest share of a cold run.
SCALE = 0.2
#: Worker count of the pool workload: the CPU count of the machine the
#: first baseline was taken on.
POOL_WORKERS = 2
#: The golden stdout fixture is checked at this seed and scale only.
GOLDEN_SEED = 2022
GOLDEN_SCALE = 0.02
GOLDEN_FIXTURE = Path("tests") / "data" / "study_scale002_golden.txt"
#: Timed runs per measurement, at the least.  With one, a slow first run
#: would end the measurement while a fast one would be averaged with a
#: second, which biases the median and widens its spread.
MIN_SAMPLES = 2
#: A program run still going after this long is killed and fails the
#: gate, so a hung run cannot hold the benchmark past its time limit.
RUN_TIMEOUT_S = 90
#: Oracle legs scored per destination of the automation harness, whose
#: deterministic transient-failure model (about 1.5 % per connection) can
#: cost a destination at an unlucky seed.  At scale 0.2 a platform has
#: only 20 to 60 positives on these legs, so one or two such losses put
#: about one seed in twenty below the leg's 0.95 or 0.97 band (seeds 6
#: and 17 of 1 to 40; 302 and 509 too).  The benchmark cannot choose the
#: seeds it is run at, so an out-of-band transient leg is reported as a
#: finding about the program and does not fail the run; every other
#: audit check does.
TRANSIENT_LEGS = ("dynamic-destinations", "circumvention")

_LEDGER_LINE = re.compile(r"^# error ledger: (\d+) failed unit", re.MULTILINE)
_STORE_LINE = re.compile(
    r"^# result store: (\d+) unit hit\(s\) / (\d+) miss", re.MULTILINE
)
_UNIQUE_APPS = re.compile(r"^unique apps\s*:\s*(\d+)", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    """One way of running ``repro study``.

    ``store`` is None for a store-less run, ``"fresh"`` for a run that
    fills an empty store (0 % unit hits), or ``"warm"`` for a run that
    reads a store filled during set-up (100 % unit hits).
    """

    name: str
    workers: int = 1
    store: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("study-cold"),
        Workload("store-warm", store="warm"),
        Workload("study-pool", workers=POOL_WORKERS),
    )
}
#: The run that fills ``store-warm``'s store in set-up, and once more,
#: traced, for the per-layer figures of the store's write path.
FILL = Workload("fill", store="fresh")


class BenchError(Exception):
    """The program could not be set up or checked, so nothing is reported."""


@dataclass
class ProgramRun:
    """One finished program process and what the kernel measured of it."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: str


@dataclass
class Sample:
    """One timed run and the reasons it failed the output gate, if any."""

    run: ProgramRun
    problems: List[str] = field(default_factory=list)


@dataclass
class Setup:
    """What set-up leaves for the timed runs, and the runs it checked."""

    reference: bytes = b""
    unique_apps: int = 0
    fill_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    warm_store: Optional[Path] = None
    findings: List[str] = field(default_factory=list)
    checked: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class Checkout:
    """A source checkout: where the program lives and where runs write.

    Everything a run writes (captured output, stores, span files, the
    audited references) goes under ``perfbench/.work`` inside the
    checkout; ``work`` is this run's own directory there.
    """

    def __init__(self, root: Path, tag: str):
        self.root = root
        self.src = root / "src"
        scratch = root / "perfbench" / ".work"
        self.references = scratch / "references"
        self.work = scratch / f"{tag}-{os.getpid()}"

    def check_sources(self) -> None:
        if not (self.src / "repro" / "cli.py").is_file():
            raise BenchError(f"no program sources under {self.src}")

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        # Output is compared as bytes, so pin its encoding.
        env["PYTHONIOENCODING"] = "utf-8"
        return env

    def run(self, argv: List[str]) -> ProgramRun:
        """Run one program process to its end and measure it."""
        self.work.mkdir(parents=True, exist_ok=True)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env(), stdout=out, stderr=err
            )
            killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ProgramRun(
            exit_code=proc.returncode,
            wall_s=wall,
            # The child's own usage plus that of the children it reaped:
            # the pool workers of a --workers run.
            cpu_s=usage.ru_utime + usage.ru_stime,
            # The kernel starts a child's peak at its parent's size; the
            # benchmark process stays small because it never imports the
            # program (the traced run has a process of its own).
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes().decode("utf-8", "replace"),
        )

    def clean(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def program_argv(args: List[str]) -> List[str]:
    """The command line running the program with ``args``."""
    return [sys.executable, "-m", "repro", *args]


def study_args(
    workload: Workload, seed: int, scale: float, store: Optional[Path] = None
) -> List[str]:
    """The ``repro`` arguments of one study run of ``workload``."""
    args = ["--seed", str(seed), "--scale", str(scale)]
    if workload.workers != 1:
        args += ["--workers", str(workload.workers)]
    args.append("study")
    if store is not None:
        args += ["--store", str(store)]
    return args


def check_run(
    workload: Workload, run: ProgramRun, reference: bytes
) -> List[str]:
    """Every way one run of ``workload`` failed the output gate."""
    problems = []
    if run.exit_code != 0:
        problems.append(f"exit code {run.exit_code}")
    if run.stdout != reference:
        problems.append("stdout differs from the audited reference")
    ledger = _LEDGER_LINE.search(run.stderr)
    if ledger is None:
        problems.append("no error ledger line on stderr")
    elif int(ledger.group(1)):
        problems.append(f"error ledger lists {ledger.group(1)} failed unit(s)")
    if workload.store is not None:
        counts = _STORE_LINE.search(run.stderr)
        if counts is None:
            problems.append("no result store line on stderr")
        else:
            hits, misses = int(counts.group(1)), int(counts.group(2))
            if workload.store == "warm" and (misses or not hits):
                problems.append(
                    f"warm store served {hits} of {hits + misses} units, want all"
                )
            if workload.store == "fresh" and (hits or not misses):
                problems.append(
                    f"fresh store served {hits} of {hits + misses} units, want none"
                )
    return problems


def golden_problems(checkout: Checkout) -> List[str]:
    """Why the scale-0.02 study does not print the committed golden stdout."""
    fixture = checkout.root / GOLDEN_FIXTURE
    run = checkout.run(
        program_argv(["--seed", str(GOLDEN_SEED), "--scale", str(GOLDEN_SCALE), "study"])
    )
    if run.exit_code != 0 or run.stdout != fixture.read_bytes():
        return [
            f"scale-{GOLDEN_SCALE} study (exit {run.exit_code}) does not "
            f"print {GOLDEN_FIXTURE}"
        ]
    return []


def source_digest(src: Path) -> str:
    """A digest of the program's sources and the interpreter running them."""
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def audit_verdict(report: dict) -> Tuple[List[str], List[str]]:
    """``(problems, findings)`` of one ``--audit-out`` report.

    A broken invariant, a failed determinism check or an out-of-band
    static leg is a problem: those checks are exact at every seed.  An
    out-of-band leg in ``TRANSIENT_LEGS`` is a finding about the program,
    printed with the result but not failed (see ``TRANSIENT_LEGS``).
    """
    problems, findings = [], []
    for rule in report.get("invariants", []):
        if not rule["passed"]:
            problems.append(
                f"invariant {rule['rule']} broken "
                f"({len(rule['violations'])} violation(s))"
            )
    for leg in report.get("oracle", []):
        if not leg["passed"]:
            text = (
                f"oracle {leg['detector']}/{leg['platform']} out of band: "
                + "; ".join(leg["violations"])
            )
            (findings if leg["detector"] in TRANSIENT_LEGS else problems).append(text)
    determinism = report.get("determinism")
    if determinism is not None and not determinism.get("passed", False):
        problems.append("determinism check failed")
    if not report.get("oracle") or not report.get("invariants"):
        problems.append("audit report scores no detector or no invariant")
    return problems, findings


def audited_reference(checkout: Checkout, seed: int, scale: float, setup: Setup) -> None:
    """Fill in the stdout every run at ``seed`` and ``scale`` must print.

    It comes from one serial, store-less ``--audit`` run, which must
    print the study, leave an empty error ledger and pass the audit as
    ``audit_verdict`` judges it; a failed audit makes that run exit 1, so
    exit 1 is accepted only with a report that explains it.  At the
    golden seed the scale-0.02 golden stdout is checked first.  A
    passing reference is kept under ``perfbench/.work``, with its audit
    report, and shared by every workload: it is made once per seed,
    scale and source tree.  A failing one is still the stdout the timed
    runs are compared with, but its problems make the whole result
    incorrect.
    """
    digest = source_digest(checkout.src)
    path = checkout.references / f"{seed}-{scale}-{digest}.stdout"
    report_path = path.with_suffix(".audit.json")
    if path.is_file() and report_path.is_file():
        setup.reference = path.read_bytes()
        setup.findings = audit_verdict(json.loads(report_path.read_text()))[1]
        return
    problems = golden_problems(checkout) if seed == GOLDEN_SEED else []
    serial = Workload("reference")
    audit_out = checkout.work / "audit.json"
    ref = checkout.run(
        program_argv(study_args(serial, seed, scale) + ["--audit-out", str(audit_out)])
    )
    setup.reference = ref.stdout
    setup.checked += 1
    if not audit_out.is_file():
        problems += check_run(serial, ref, ref.stdout)
        problems.append("no audit report written")
    else:
        report = json.loads(audit_out.read_text())
        audit_problems, setup.findings = audit_verdict(report)
        expected_exit = 0 if report["passed"] else 1
        run_problems = check_run(serial, ref, ref.stdout)
        if ref.exit_code == expected_exit:
            run_problems = [p for p in run_problems if not p.startswith("exit code")]
        problems += run_problems + audit_problems
        if report["passed"] != (not audit_problems and not setup.findings):
            problems.append("audit verdict disagrees with its own scores")
    if problems:
        setup.failed += 1
        setup.problems += [f"reference run: {p}" for p in problems]
        return
    checkout.references.mkdir(parents=True, exist_ok=True)
    for final, data in ((report_path, audit_out.read_bytes()), (path, ref.stdout)):
        partial = final.with_name(f".{final.name}.{os.getpid()}")
        partial.write_bytes(data)
        os.replace(partial, final)


def count_corpus(checkout: Checkout, seed: int, scale: float, setup: Setup) -> None:
    """Count the corpus (for ``apps_per_s``): one sample of ``setup_s``.

    A sample is the count's run time plus the ``store-warm`` fill.
    """
    corpus = checkout.run(
        program_argv(["--seed", str(seed), "--scale", str(scale), "corpus"])
    )
    match = _UNIQUE_APPS.search(corpus.stdout.decode("utf-8", "replace"))
    if corpus.exit_code != 0 or match is None:
        raise BenchError(f"repro corpus failed (exit {corpus.exit_code})")
    setup.unique_apps = int(match.group(1))
    setup.setup_s.append(corpus.wall_s + setup.fill_s)


def set_up(
    workload: Workload, checkout: Checkout, seed: int, scale: float = SCALE
) -> Setup:
    """Get the audited reference, then do and time the workload's set-up.

    Set-up counts the corpus and, for ``store-warm``, fills the store
    with a plain run, itself checked against the reference.  The fill
    runs once; ``measure`` counts the corpus again after each timed run.
    """
    setup = Setup()
    audited_reference(checkout, seed, scale, setup)
    if workload.store == "warm":
        setup.warm_store = checkout.work / "warm-store"
        fill = checkout.run(program_argv(study_args(FILL, seed, scale, setup.warm_store)))
        setup.fill_s = fill.wall_s
        problems = check_run(FILL, fill, setup.reference)
        setup.checked += 1
        if problems:
            setup.failed += 1
            setup.problems += [f"store-filling run: {p}" for p in problems]
    count_corpus(checkout, seed, scale, setup)
    return setup


def measure(
    workload: Workload,
    checkout: Checkout,
    setup: Setup,
    seed: int,
    seconds: float,
) -> List[Sample]:
    """Run timed samples back to back until ``seconds`` have passed.

    At least ``MIN_SAMPLES`` runs are made.  The host's speed drifts within seconds, so the corpus count is
    repeated after each timed run: the median of the counts then sees
    the same machine as the median of the timed runs.
    """
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        argv = study_args(workload, seed, SCALE, setup.warm_store)
        run = checkout.run(program_argv(argv))
        samples.append(Sample(run, check_run(workload, run, setup.reference)))
        count_corpus(checkout, seed, SCALE, setup)
    return samples


def end_to_end(samples: List[Sample], setup: Setup) -> Dict[str, List[float]]:
    """Per-sample values of every end-to-end metric; each reports its median.

    Only samples that passed the gate count, unless none did.
    """
    runs = [s.run for s in samples if not s.problems] or [
        s.run for s in samples
    ]
    return {
        "wall_s": [r.wall_s for r in runs],
        "apps_per_s": [setup.unique_apps / r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setup.setup_s,
    }


def quartiles(values: List[float]):
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3
