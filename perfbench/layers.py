"""The traced run: one ``repro study``, measured layer by layer.

The traced run is a program process of its own, started and reaped like
a timed run, so its wall time covers the same span: from process start
to exit.  Run as a script, this module is that process: it wraps the
program's public functions, calls ``repro.cli.main`` and writes what it
measured to a file for the benchmark to read.

The benchmark records its own spans around calls into the program's
public functions: corpus build, ``Study.run``, stdout rendering, and the
result store's lookups and publishes.  Calls that also happen inside
forked pool workers (the simulation RNG, the chi-square test) are
counted in shared memory, so a worker's calls count as well as the
parent's.  Stage-level figures (the static, dynamic and circumvention
stages, the study phases, the engine's and the caches' counters) are
read from the telemetry the program already exports through
``Study.run(recorder=...)``.

Nothing here changes what the program computes: the run's stdout is
checked against the audited reference like any timed run's.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import multiprocessing
import os
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import harness

#: Fresh-interpreter imports timed for ``cli.import_s``; the median counts.
IMPORT_REPEATS = 3
_IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); import repro.cli; "
    "sys.stdout.write(repr(time.perf_counter() - start))"
)
_TALLY_NAMES = (
    "rng.child_calls",
    "rng.random_bytes_calls",
    "rng.bytes_drawn",
    "stats.chi_square_calls",
)
#: Recorder spans that nest inside a ``static.app`` span besides the
#: report stage; what they leave uncovered is ``static.report_s``.
_STATIC_STAGE_SPANS = ("static.decompile", "static.scan", "static.ct_lookup")


class SharedTally:
    """Named counters that forked pool workers add to as well.

    The values live in a fork-context shared array, which a forked child
    shares with its parent.  Counting happens only while ``enabled``;
    the flag is copied into each worker when the pool forks it.
    """

    def __init__(self, names):
        self._index = {name: i for i, name in enumerate(names)}
        self._values = multiprocessing.get_context("fork").Array("d", len(names))
        self.enabled = False

    def add(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._values.get_lock():
                self._values[self._index[name]] += amount

    def values(self) -> Dict[str, float]:
        return {name: self._values[i] for name, i in self._index.items()}


class Tracer:
    """Spans of this process, kept in memory until written out.

    A span is ``(name, start, end, parent name)``; a span whose parent
    has the same name (a store lookup inside a store lookup) is nested
    work already counted by its parent.
    """

    def __init__(self):
        self.spans: List[Tuple[str, float, float, str]] = []
        self._stack: List[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else ""
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), parent))
            self._stack.pop()

    def outermost(self, name: str) -> List[Tuple[float, float]]:
        return [
            (start, end)
            for n, start, end, parent in self.spans
            if n == name and parent != name
        ]

    def total(self, name: str) -> float:
        return sum(end - start for start, end in self.outermost(name))

    def write(self, path: Path) -> None:
        rows = [
            {"name": n, "start_s": s, "end_s": e, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(rows))


def wrap(owner, name: str, make_wrapper) -> None:
    """Replace ``owner.name`` by ``make_wrapper(original)`` for this process.

    For a module-level function, modules that imported it by name hold
    their own binding, so every ``repro`` module's binding of the same
    object is replaced too.  The traced run's process ends with the run,
    so nothing is put back.
    """
    original = getattr(owner, name)
    wrapper = functools.wraps(original)(make_wrapper(original))
    targets = [owner]
    if isinstance(owner, types.ModuleType):
        targets += [
            module
            for module_name, module in list(sys.modules.items())
            if module_name.startswith("repro") and module is not owner
        ]
    for target in targets:
        for attr, value in list(vars(target).items()):
            if value is original:
                setattr(target, attr, wrapper)


def self_time(outer, inner) -> float:
    """Seconds of the ``outer`` intervals that no ``inner`` interval covers.

    Intervals are ``(pid, start, end)``.  An inner interval counts
    against the outer one of the same process that contains it; inner
    intervals of one outer interval do not overlap each other.
    """
    children = defaultdict(list)
    for pid, start, end in inner:
        children[pid].append((start, end))
    for spans in children.values():
        spans.sort()
    total = 0.0
    for pid, start, end in outer:
        spans = children.get(pid, [])
        covered = 0.0
        i = bisect.bisect_left(spans, (start,))
        while i < len(spans) and spans[i][0] < end:
            if spans[i][1] <= end:
                covered += spans[i][1] - spans[i][0]
            i += 1
        total += (end - start) - covered
    return total


def tree_size(root: Path) -> Tuple[int, int]:
    """``(files, bytes)`` under ``root``; ``(0, 0)`` when it does not exist."""
    files = size = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def cli_import_s(checkout: harness.Checkout) -> float:
    """Median time to import ``repro.cli`` in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        run = checkout.run([sys.executable, "-c", _IMPORT_PROBE])
        if run.exit_code != 0:
            raise harness.BenchError(f"importing repro.cli failed: {run.stderr}")
        times.append(float(run.stdout))
    return statistics.median(times)


def _install(tracer: Tracer, tally: SharedTally, seen: dict) -> None:
    """Wrap every function the per-layer metrics are measured around."""
    from repro.core.analysis.study import Study
    from repro.core.exec.resultstore import ResultStore
    from repro.corpus.generator import CorpusGenerator
    from repro.reporting import render
    from repro.util import stats
    from repro.util.rng import DeterministicRng

    def timed(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def study_run(fn):
        def wrapper(study, *args, **kwargs):
            seen["recorder"] = kwargs.get("recorder")
            seen["store"] = kwargs.get("store")
            tally.enabled = True
            try:
                with tracer.span("study.run"):
                    seen["results"] = fn(study, *args, **kwargs)
            finally:
                tally.enabled = False
            return seen["results"]

        return wrapper

    def render_stdout(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("reporting.render"):
                text = fn(*args, **kwargs)
            seen["stdout_bytes"] = len(text.encode("utf-8"))
            return text

        return wrapper

    def counted(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                tally.add(name)
                return fn(*args, **kwargs)

            return wrapper

        return make

    def random_bytes(fn):
        def wrapper(rng, length):
            tally.add("rng.random_bytes_calls")
            tally.add("rng.bytes_drawn", length)
            return fn(rng, length)

        return wrapper

    def entry_path(fn):
        def wrapper(store, fingerprint):
            seen["entry_path"] = fn(store, fingerprint)
            return seen["entry_path"]

        return wrapper

    def lookup(fn):
        # A hit's entry is the path the lookup asked for last; its size is
        # read after the run, so no store span pays for counting it.
        def wrapper(*args, **kwargs):
            with tracer.span("store.lookup"):
                result = fn(*args, **kwargs)
            if result is not kwargs.get("miss"):
                seen["read_paths"].append(str(seen["entry_path"]))
            return result

        return wrapper

    wrap(CorpusGenerator, "generate", timed("corpus.build"))
    wrap(Study, "run", study_run)
    wrap(render, "render_study_stdout", render_stdout)
    wrap(DeterministicRng, "child", counted("rng.child_calls"))
    wrap(DeterministicRng, "random_bytes", random_bytes)
    wrap(stats, "chi_square_independence", counted("stats.chi_square_calls"))
    wrap(ResultStore, "entry_path", entry_path)
    wrap(ResultStore, "lookup_app", lookup)
    wrap(ResultStore, "lookup_stage", lookup)
    for name in ("lookup_unit", "probe_unit_stages"):
        wrap(ResultStore, name, timed("store.lookup"))
    for name in ("publish_unit", "publish_app", "publish_stage"):
        wrap(ResultStore, name, timed("store.publish"))


#: Per-layer metrics of the store's write path.  On ``store-warm`` they
#: come from a traced fill, the run its set-up makes, since the timed
#: runs write nothing.
_WRITE_SIDE = ("store.publish_s", "store.files_written", "store.bytes_written")


def traced_run(
    workload: harness.Workload,
    checkout: harness.Checkout,
    setup: harness.Setup,
    seed: int,
    untraced_wall_s: float,
    scale: float = harness.SCALE,
):
    """Run ``workload`` once with tracing on.

    Returns ``(per-layer metrics, problems)``; ``problems`` lists every
    way the run failed the same output gate the timed runs pass.  For
    ``store-warm`` a traced fill of a fresh store comes first and gives
    the ``_WRITE_SIDE`` metrics.
    """
    import_s = cli_import_s(checkout)
    problems = []
    write_side = {}
    if workload.store == "warm":
        store = checkout.work / "trace-fill-store"
        store.mkdir(parents=True)
        filled, _, fill_problems = _trace_once(
            harness.FILL, checkout, setup, seed, scale, store,
            checkout.work.parent / f"spans-{workload.name}-fill-{seed}.json",
        )
        problems += [f"fill: {p}" for p in fill_problems]
        write_side = {name: filled[name] for name in _WRITE_SIDE}
    metrics, run, run_problems = _trace_once(
        workload, checkout, setup, seed, scale, setup.warm_store,
        checkout.work.parent / f"spans-{workload.name}-{seed}.json",
    )
    problems += run_problems
    corpus_s = metrics["corpus.build_s"]
    metrics.update(write_side)
    metrics.update({
        "cli.import_s": import_s,
        "corpus.apps_per_s": setup.unique_apps / corpus_s if corpus_s else 0.0,
        "trace.wall_s": run.wall_s,
        "trace.overhead_s": run.wall_s - untraced_wall_s,
    })
    return metrics, problems


def _trace_once(workload, checkout, setup, seed, scale, store, spans: Path):
    """One traced ``repro study``: ``(metrics, program run, problems)``.

    The run is a process of its own (this module run as a script), so
    the program's imports, caches and memory never reach the benchmark.
    """
    files_before, bytes_before = tree_size(store) if store else (0, 0)
    measured = checkout.work / "trace-layers.json"
    argv = harness.study_args(workload, seed, scale, store)
    # Asking for a metrics file is what makes the CLI pass a recorder.
    argv += ["--metrics-out", str(checkout.work / "trace-metrics.json")]
    run = checkout.run(
        [sys.executable, str(Path(__file__).resolve()), str(measured), str(spans), *argv]
    )
    problems = harness.check_run(workload, run, setup.reference)
    if not measured.is_file():
        raise harness.BenchError(f"the traced run measured nothing:\n{run.stderr}")
    metrics = json.loads(measured.read_text())
    measured.unlink()
    read_paths = metrics.pop("read_paths")
    files_after, bytes_after = tree_size(store) if store else (0, 0)
    metrics.update({
        "store.files_written": files_after - files_before,
        "store.bytes_written": bytes_after - bytes_before,
        "store.bytes_read": sum(os.path.getsize(path) for path in read_paths),
        "store.disk_mb": bytes_after / 1e6,
    })
    return metrics, run, problems


def _traced_process(measured: Path, spans_path: Path, argv: List[str]) -> int:
    """The traced run's process: run ``repro`` with ``argv``, write what it measured."""
    import repro.cli

    if "--workers" in argv and multiprocessing.get_start_method() != "fork":
        raise harness.BenchError("pool workers are not forked: their counts would be lost")
    tracer, tally, seen = Tracer(), SharedTally(_TALLY_NAMES), {"read_paths": []}
    _install(tracer, tally, seen)
    code = repro.cli.main(argv)
    sys.stdout.flush()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    tracer.write(spans_path)
    if "results" not in seen or seen["recorder"] is None:
        raise harness.BenchError("the traced run did not reach Study.run with a recorder")

    recorder, results, store = seen["recorder"], seen["results"], seen["store"]
    spans = recorder.spans()
    counters = recorder.counters()
    histograms = recorder.metrics()["histograms"]
    counts = tally.values()

    def span_total(name):
        return sum(s.duration for s in spans if s.name == name)

    def hist_sum(name):
        return histograms.get(name, {}).get("sum", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    me = os.getpid()
    static_apps = [(s.pid, s.start, s.end) for s in spans if s.name == "static.app"]
    static_inner = [
        (s.pid, s.start, s.end) for s in spans if s.name in _STATIC_STAGE_SPANS
    ] + [
        (me, start, end)
        for name in ("store.lookup", "store.publish")
        for start, end in tracer.outermost(name)
    ]
    dynamic_apps = [s for s in spans if s.name == "dynamic.app"]
    chain_hits = counters.get("cache.validate_chain.hit", 0)
    chain_misses = counters.get("cache.validate_chain.miss", 0)
    stats = store.stats if store is not None else None

    metrics = {
        "corpus.build_s": tracer.total("corpus.build"),
        "study.run_s": tracer.total("study.run"),
        "phase.static_dynamic_s": span_total("phase.static_dynamic"),
        "phase.ios_rerun_s": span_total("phase.ios_rerun"),
        "phase.circumvention_s": span_total("phase.circumvention"),
        "static.decompile_s": span_total("static.decompile"),
        "static.scan_s": span_total("static.scan"),
        "static.ct_lookup_s": span_total("static.ct_lookup"),
        "static.report_s": self_time(static_apps, static_inner),
        "dynamic.run_direct_s": span_total("dynamic.run_direct"),
        "dynamic.run_mitm_s": span_total("dynamic.run_mitm"),
        "dynamic.detect_s": span_total("dynamic.detect"),
        "dynamic.s_per_app": ratio(
            sum(s.duration for s in dynamic_apps), len(dynamic_apps)
        ),
        "rng.child_calls": counts["rng.child_calls"],
        "rng.random_bytes_calls": counts["rng.random_bytes_calls"],
        "rng.bytes_drawn": counts["rng.bytes_drawn"],
        "pki.validate_chain_hit_rate": ratio(chain_hits, chain_hits + chain_misses),
        "circumvent.hooked_run_s": span_total("circumvent.hooked_run"),
        "circumvent.apps": sum(len(v) for v in results.circumvention.values()),
        "pii.phase_s": span_total("phase.pii"),
        "stats.chi_square_calls": counts["stats.chi_square_calls"],
        "reporting.render_s": tracer.total("reporting.render"),
        "reporting.stdout_bytes": seen.get("stdout_bytes", 0),
        "store.lookup_s": tracer.total("store.lookup"),
        "store.publish_s": tracer.total("store.publish"),
        "store.unit_hit_rate": stats.unit_hit_rate if stats else 0.0,
        "store.stage_hit_rate": stats.stage_hit_rate if stats else 0.0,
        "exec.units": counters.get("exec.units.completed", 0),
        "exec.unit_queue_wait_s": hist_sum("exec.unit_queue_wait_s"),
        "exec.ipc_bytes_in": counters.get("exec.ipc.bytes_in", 0),
        "exec.ipc_bytes_out": counters.get("exec.ipc.bytes_out", 0),
        "exec.worker_init_s": hist_sum("exec.worker.init_s"),
        "exec.serial_fallback_batches": counters.get("exec.sched.serial_fallbacks", 0),
        "read_paths": seen["read_paths"],
    }
    measured.write_text(json.dumps(metrics))
    return code


if __name__ == "__main__":
    sys.exit(_traced_process(Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]))
