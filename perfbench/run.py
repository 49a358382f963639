"""Benchmark of ``repro study``, end to end and layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload study-cold --seed 2022 --seconds 10 --trace 0
    python3 perfbench/run.py --trace 1      # every workload, every table

The first run at a seed makes one audited reference run, kept for every
workload at that seed once it passes; at seed 2022 it also checks the
scale-0.02 golden stdout.  An out-of-band oracle leg that the program's
transient-failure model explains is printed as a program finding, not
failed (see ``harness.TRANSIENT_LEGS``).  Set-up counts the corpus and,
for ``store-warm``, fills the store once; the corpus count is repeated
after each timed run and ``setup_s`` reports the median.
The timed runs then repeat ``repro study`` as a subprocess, one at a
time, for ``--seconds`` seconds, and each must print the reference
stdout byte for byte.  With ``--trace 1`` one more run, with the
benchmark's wrappers installed in the program process, records the
per-layer metrics.

For one workload the last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every run passed the output gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import harness
import layers

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class WorkloadResult:
    """Everything one workload's benchmark run measured."""

    name: str
    end_to_end: Dict[str, List[float]]
    per_layer: Optional[Dict[str, float]]
    attempted: int
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    findings: List[str] = field(default_factory=list)


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(
    workload: harness.Workload, root: Path, seed: int, seconds: float, trace: bool
) -> WorkloadResult:
    """Set up, time and (with ``trace``) trace one workload."""
    checkout = harness.Checkout(root, f"{workload.name}-{seed}")
    checkout.check_sources()
    try:
        setup = harness.set_up(workload, checkout, seed)
        samples = harness.measure(workload, checkout, setup, seed, seconds)
        values = harness.end_to_end(samples, setup)
        problems = setup.problems + [
            f"timed run {i}: {p}" for i, s in enumerate(samples) for p in s.problems
        ]
        failed = setup.failed + sum(1 for s in samples if s.problems)
        per_layer = None
        if trace:
            wall = harness.quartiles(values["wall_s"])[1]
            per_layer, trace_problems = layers.traced_run(
                workload, checkout, setup, seed, wall
            )
            problems += [f"traced run: {p}" for p in trace_problems]
            failed += bool(trace_problems)
        return WorkloadResult(
            name=workload.name,
            end_to_end=values,
            per_layer=per_layer,
            attempted=setup.checked + len(samples) + int(trace),
            problems=problems,
            failed=failed,
            findings=setup.findings,
        )
    finally:
        checkout.clean()


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end_table(results: List[WorkloadResult], spec: dict) -> str:
    rows = [("workload", "metric", "unit", "median", "q1", "q3", "n")]
    for result in results:
        for metric in spec["end_to_end"]:
            values = result.end_to_end[metric["name"]]
            q1, median, q3 = harness.quartiles(values)
            rows.append(
                (result.name, metric["name"], metric["unit"],
                 _fmt(median), _fmt(q1), _fmt(q3), str(len(values)))
            )
    return _render(rows)


def per_layer_table(results: List[WorkloadResult], spec: dict) -> str:
    rows = [("metric", "unit", *(r.name for r in results))]
    for metric in spec["per_layer"]:
        rows.append(
            (metric["name"], metric["unit"],
             *(_fmt(r.per_layer[metric["name"]]) for r in results))
        )
    return _render(rows)


def _render(rows) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def result_line(result: WorkloadResult, spec: dict, trace: bool) -> str:
    """The JSON result printed as the last line of stdout."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values = result.per_layer
    else:
        values = {
            name: harness.quartiles(v)[1] for name, v in result.end_to_end.items()
        }
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics do not match BENCHMARK.json")
    return json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    })


def main(argv=None, root: Path = ROOT) -> int:
    spec = load_spec(root)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[*harness.WORKLOADS, "all"], default="all"
    )
    parser.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(
                run_workload(
                    harness.WORKLOADS[name], root, args.seed, args.seconds,
                    bool(args.trace),
                )
            )
    except harness.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(end_to_end_table(results, spec))
    if args.trace:
        print()
        print(per_layer_table(results, spec))
    for result in results:
        print(f"{result.name}: {result.failed} of {result.attempted} runs failed")
        for problem in result.problems:
            print(f"  {problem}")
        for finding in result.findings:
            print(f"  program finding, not failed: {finding}")
    if args.workload != "all":
        print(result_line(results[0], spec, bool(args.trace)))
    return 0 if all(not r.problems for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
