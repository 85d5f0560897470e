"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
run.load_cli()


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def tiny_run(name, trace, work):
    return run.run_workload(name, seed=1, seconds=0, trace=trace, work=work, tiny=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = tiny_run(name, trace, tmp_path)
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_nodes_per_step_is_exact_and_grows_with_ranks(tmp_path):
    counts = {
        name: [tiny_run(name, True, tmp_path / f"{name}{i}")["metrics"]["diffcore.nodes_per_step"][0]
               for i in range(2)]
        for name in ("train-default", "ranks-100")
    }
    assert counts["train-default"][0] == counts["train-default"][1]
    assert counts["ranks-100"][0] == counts["ranks-100"][1]
    assert counts["ranks-100"][0] > counts["train-default"][0]


def _entry_points():
    return {
        (module, path): tracer._resolve(module, path)[2]
        for module, path, _ in tracer.SPANNED + tracer.COUNTED
    }


def test_traced_run_leaves_the_package_unwrapped(tmp_path):
    before = _entry_points()
    tiny_run("fewshot-grid", True, tmp_path)
    assert _entry_points() == before
    with pytest.raises(RuntimeError), tracer.Tracer():
        assert _entry_points() != before
        raise RuntimeError("boom")
    assert _entry_points() == before


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "SPANNED", tracer.SPANNED + (
        ("ordinalproto.prompt", "no_such_function", "prompt.forward"),
    ))
    with tracer.Tracer() as t:
        pass
    assert t.absent == ["prompt.no_such_function"]


def test_reference_check_tolerates_only_tiny_loss_drift():
    reference = json.loads(run.REFERENCE.read_text())["train-default"]
    epoch, loss, lr = reference["loss_trace"][3].split(",")

    def with_loss(value):
        trace = list(reference["loss_trace"])
        trace[3] = f"{epoch},{value!r},{lr}"
        return {**reference, "loss_trace": trace}

    assert wl.compare_to_reference(with_loss(float(loss) * (1 + 1e-12)), reference) == []
    assert wl.compare_to_reference(with_loss(float(loss) * (1 + 1e-8)), reference)
    changed = {**reference, "metrics": {**reference["metrics"], "mae": "0"}}
    assert wl.compare_to_reference(changed, reference)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
