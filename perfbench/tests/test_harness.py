"""Tests of the benchmark harness itself.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Most tests drive the harness against a small stand-in ``repro``
program written into a temporary checkout, so that a run with altered
stdout, a non-zero exit or a cold warm store can be produced on demand.
One test makes real traced runs at a tiny scale and checks that every
per-layer metric comes out.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: A stand-in for ``python -m repro``.  It prints a fixed table, fills a
#: store with a marker file, and misbehaves as MODE says: on the timed
#: runs, or (the ``AUDIT_MODES``) in the audit report of the reference run.
FAKE_MAIN = """
import json, os, sys
MODE = {mode!r}
args = sys.argv[1:]
if "corpus" in args:
    print("unique apps : 10")
    sys.exit(0)
audit = "--audit-out" in args
out = "golden table\\n" if args[args.index("--scale") + 1] == "0.02" else "tables\\n"
if MODE == "altered-stdout" and not audit:
    out = "tables, altered\\n"
sys.stdout.write(out)
if "--store" in args:
    store = args[args.index("--store") + 1]
    os.makedirs(store, exist_ok=True)
    marker = os.path.join(store, "filled")
    hit = os.path.exists(marker) and MODE != "cold-store"
    open(marker, "w").close()
    print(f"# result store: {{int(hit)}} unit hit(s) / {{int(not hit)}} miss(es)",
          file=sys.stderr)
print("# error ledger: 0 failed unit(s)", file=sys.stderr)
if audit:
    def leg(detector, passed):
        return {{"detector": detector, "platform": "android", "passed": passed,
                "violations": [] if passed else ["recall 0.9000 < 0.9500"]}}
    report = {{
        "passed": MODE not in AUDIT_MODES,
        "determinism": None,
        "invariants": [{{"rule": "verdict-differential",
                        "passed": MODE != "broken-invariant",
                        "violations": [{{}}] if MODE == "broken-invariant" else []}}],
        "oracle": [leg("static-material", MODE != "static-miss"),
                   leg("circumvention", MODE != "transient-miss")],
    }}
    with open(args[args.index("--audit-out") + 1], "w") as handle:
        json.dump(report, handle)
    sys.exit(0 if report["passed"] else 1)
sys.exit(1 if MODE == "exit-1" else 0)
"""
AUDIT_MODES = ("broken-invariant", "static-miss", "transient-miss")


def fake_checkout(root: Path, mode: str = "ok", golden: str = "golden table\n") -> Path:
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("")
    (package / "__main__.py").write_text(
        FAKE_MAIN.format(mode=mode).replace("AUDIT_MODES", repr(AUDIT_MODES))
    )
    fixture = root / harness.GOLDEN_FIXTURE
    fixture.parent.mkdir(parents=True)
    fixture.write_text(golden)
    shutil.copy(REPO_ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def bench(root: Path, capsys, workload: str, seed: int = 7):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        root=root,
    )
    return code, capsys.readouterr().out.splitlines()


def program_run(stdout=b"tables\n", exit_code=0, stderr="# error ledger: 0 failed unit(s)\n"):
    return harness.ProgramRun(exit_code, 1.0, 1.0, 100.0, stdout, stderr)


# -- the output gate -------------------------------------------------------


def test_clean_run_passes_the_gate():
    assert harness.check_run(harness.WORKLOADS["study-cold"], program_run(), b"tables\n") == []


@pytest.mark.parametrize(
    "run_kwargs, reason",
    [
        ({"stdout": b"tables, altered\n"}, "stdout differs"),
        ({"exit_code": 1}, "exit code 1"),
        ({"stderr": "# error ledger: 2 failed unit(s)\n"}, "error ledger lists 2"),
        ({"stderr": ""}, "no error ledger line"),
    ],
)
def test_gate_flags_a_bad_run(run_kwargs, reason):
    problems = harness.check_run(
        harness.WORKLOADS["study-pool"], program_run(**run_kwargs), b"tables\n"
    )
    assert any(reason in p for p in problems), problems


def test_gate_flags_a_cold_warm_store_and_a_warm_fresh_store():
    ledger = "# error ledger: 0 failed unit(s)\n"
    cold = program_run(stderr="# result store: 0 unit hit(s) / 19 miss(es)\n" + ledger)
    warm = program_run(stderr="# result store: 19 unit hit(s) / 0 miss(es)\n" + ledger)
    assert harness.check_run(harness.WORKLOADS["store-warm"], cold, b"tables\n")
    assert harness.check_run(harness.WORKLOADS["store-warm"], warm, b"tables\n") == []
    assert harness.check_run(harness.FILL, warm, b"tables\n")
    assert harness.check_run(harness.FILL, cold, b"tables\n") == []
    no_line = program_run()
    assert harness.check_run(harness.FILL, no_line, b"tables\n")


def test_hung_run_is_killed_and_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RUN_TIMEOUT_S", 0.5)
    checkout = harness.Checkout(tmp_path, "hung")
    run_ = checkout.run([sys.executable, "-c", "import time; time.sleep(30)"])
    assert run_.exit_code != 0 and run_.wall_s < 10
    assert harness.check_run(harness.WORKLOADS["study-cold"], run_, b"")


# -- whole benchmark runs against a stand-in program -------------------------


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_clean_program_is_reported_correct(tmp_path, capsys, workload):
    code, lines = bench(fake_checkout(tmp_path), capsys, workload)
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    # The reference run, the store-filling run and the two timed runs.
    fills = 1 if workload == "store-warm" else 0
    assert result["attempted"] == 1 + fills + harness.MIN_SAMPLES
    assert list(result["metrics"]) == E2E_NAMES
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_corpus_is_counted_around_every_timed_run(tmp_path):
    checkout = harness.Checkout(fake_checkout(tmp_path), "counts")
    workload = harness.WORKLOADS["store-warm"]
    setup = harness.set_up(workload, checkout, seed=7)
    samples = harness.measure(workload, checkout, setup, seed=7, seconds=0)
    assert len(setup.setup_s) == len(samples) + 1
    assert setup.unique_apps == 10
    assert all(s > setup.fill_s > 0 for s in setup.setup_s)


@pytest.mark.parametrize(
    "mode, workload",
    [
        ("altered-stdout", "study-cold"),
        ("altered-stdout", "study-pool"),
        ("exit-1", "study-cold"),
        ("cold-store", "store-warm"),
    ],
)
def test_misbehaving_program_fails_the_command(tmp_path, capsys, mode, workload):
    code, lines = bench(fake_checkout(tmp_path, mode), capsys, workload)
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == harness.MIN_SAMPLES


def test_reference_is_audited_once_per_seed(tmp_path, capsys):
    root = fake_checkout(tmp_path)
    bench(root, capsys, "study-cold")
    references = list((root / "perfbench" / ".work" / "references").glob("*.stdout"))
    assert len(references) == 1
    references[0].write_bytes(b"a different reference\n")
    code, lines = bench(root, capsys, "study-pool")
    result = json.loads(lines[-1])
    assert code != 0 and result["correct"] is False
    assert result["attempted"] == harness.MIN_SAMPLES


@pytest.mark.parametrize(
    "mode, reason",
    [
        ("broken-invariant", "invariant verdict-differential broken"),
        ("static-miss", "oracle static-material/android out of band"),
    ],
)
def test_failed_audit_makes_the_result_incorrect(tmp_path, capsys, mode, reason):
    root = fake_checkout(tmp_path, mode)
    code, lines = bench(root, capsys, "study-cold")
    result = json.loads(lines[-1])
    assert code != 0 and result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 1 + harness.MIN_SAMPLES
    assert any(reason in line for line in lines)
    assert not (root / "perfbench" / ".work" / "references").exists()


def test_transient_leg_out_of_band_is_a_finding_not_a_failure(tmp_path, capsys):
    root = fake_checkout(tmp_path, "transient-miss")
    for _ in range(2):  # made, then read back from the kept reference
        code, lines = bench(root, capsys, "study-cold")
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"] is True and result["failed"] == 0
        assert any(
            "program finding" in line and "circumvention/android" in line
            for line in lines
        )


def test_golden_mismatch_makes_the_result_incorrect(tmp_path, capsys):
    root = fake_checkout(tmp_path, golden="another golden table\n")
    code, lines = bench(root, capsys, "study-cold", seed=harness.GOLDEN_SEED)
    assert code != 0 and json.loads(lines[-1])["correct"] is False
    code, lines = bench(fake_checkout(tmp_path / "ok"), capsys, "study-cold",
                        seed=harness.GOLDEN_SEED)
    assert code == 0 and json.loads(lines[-1])["correct"] is True


def test_fails_without_program_sources(tmp_path, capsys):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, lines = bench(tmp_path, capsys, "study-cold")
    assert code != 0
    assert lines == []


# -- names printed match BENCHMARK.json -------------------------------------


def test_workloads_match_the_spec():
    assert list(harness.WORKLOADS) == WORKLOAD_NAMES


def test_every_printed_name_is_declared(tmp_path, capsys):
    run.main(["--seconds", "0", "--seed", "7"], root=fake_checkout(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    end = next(i for i, line in enumerate(lines) if line.endswith("runs failed"))
    printed = {tuple(line.split()[:2]) for line in lines[2:end]}
    assert printed == {(w, m) for w in WORKLOAD_NAMES for m in E2E_NAMES}


def test_per_layer_table_and_line_use_declared_names():
    result = run.WorkloadResult(
        name="study-cold",
        end_to_end={name: [1.0] for name in E2E_NAMES},
        per_layer={name: 1.0 for name in LAYER_NAMES},
        attempted=2,
    )
    table = run.per_layer_table([result], SPEC).splitlines()
    assert [line.split()[0] for line in table[2:]] == LAYER_NAMES
    line = json.loads(run.result_line(result, SPEC, trace=True))
    assert list(line["metrics"]) == LAYER_NAMES
    del result.per_layer["trace.overhead_s"]
    with pytest.raises(RuntimeError):
        run.result_line(result, SPEC, trace=True)


# -- the traced run against the real program ----------------------------------


def test_traced_run_reports_every_layer_on_every_workload():
    scale, seed = 0.02, 11
    seen = {}
    for name in WORKLOAD_NAMES:
        workload = harness.WORKLOADS[name]
        checkout = harness.Checkout(REPO_ROOT, f"test-{name}-{seed}")
        try:
            setup = harness.set_up(workload, checkout, seed, scale)
            metrics, problems = layers.traced_run(
                workload, checkout, setup, seed, untraced_wall_s=1.0, scale=scale
            )
        finally:
            checkout.clean()
        assert problems == []
        assert sorted(metrics) == sorted(LAYER_NAMES)
        seen[name] = metrics
    assert seen["study-cold"]["rng.child_calls"] > 0
    assert seen["study-cold"]["store.files_written"] == 0
    assert seen["study-cold"]["store.publish_s"] == 0
    assert seen["store-warm"]["store.unit_hit_rate"] == 1
    warm = seen["store-warm"]
    # The write side comes from the traced fill that precedes the warm run.
    assert warm["store.files_written"] > 0 and warm["store.publish_s"] > 0
    assert warm["store.bytes_written"] <= warm["store.disk_mb"] * 1e6
    assert 0 < warm["store.bytes_read"] <= warm["store.disk_mb"] * 1e6
    assert seen["store-warm"]["rng.child_calls"] == 0
    assert seen["study-pool"]["exec.ipc_bytes_in"] > 0
    assert seen["study-pool"]["rng.child_calls"] > 0
    for metrics in seen.values():
        assert metrics["trace.wall_s"] > metrics["cli.import_s"]
        assert metrics["stats.chi_square_calls"] > 0
        assert metrics["reporting.stdout_bytes"] > 0


def test_self_time_subtracts_contained_children_of_the_same_process():
    outer = [(1, 0.0, 10.0), (2, 0.0, 10.0)]
    inner = [(1, 1.0, 3.0), (1, 4.0, 5.0), (1, 11.0, 12.0), (3, 1.0, 9.0)]
    assert layers.self_time(outer, inner) == pytest.approx(7.0 + 10.0)


def test_shared_tally_counts_in_forked_children():
    import multiprocessing

    tally = layers.SharedTally(["calls", "bytes"])
    tally.enabled = True
    context = multiprocessing.get_context("fork")
    children = [
        context.Process(target=tally.add, args=("bytes", 5)) for _ in range(3)
    ]
    for child in children:
        child.start()
    for child in children:
        child.join()
    tally.add("calls")
    tally.enabled = False
    tally.add("calls")
    assert tally.values() == {"calls": 1.0, "bytes": 15.0}
