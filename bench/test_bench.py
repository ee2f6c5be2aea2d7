"""Tests of the benchmark itself: tiny runs of every workload, failures
counted rather than fatal, and BENCHMARK.json against what a run prints."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import cells  # noqa: E402
import harness  # noqa: E402
import prbslice.solver  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = harness.load_spec()


@pytest.fixture
def bench_env(monkeypatch):
    """The benchmark's environment, with one set-up probe per run."""
    monkeypatch.delenv(run.SOLVER_CMD_ENV, raising=False)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(run.SRC), os.environ.get("PYTHONPATH", "")]))
    monkeypatch.setattr(harness, "SETUP_RUNS", 1)


def _report(result, capsys):
    line = harness.report(result, SPEC)
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1]).keys() == line.keys()
    return line, out


def test_spec_matches_the_result_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(cells.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace,
                                                    bench_env, capsys):
    result = harness.run_workload(workload, seed=1, seconds=0,
                                  trace=bool(trace))
    line, out = _report(result, capsys)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    printed = {tuple(row.split(" ")[::2]) for row in out.splitlines()
               if row.count(" ") == 2}
    assert {(m["name"], m["unit"]) for m in section} <= printed
    if not trace:
        assert {("failed_frac", "fraction"),
                ("solver_peak_rss_mb", "MB")} <= printed
        differential = cells.WORKLOADS[workload].differential
        assert (result["metrics"]["solver_peak_rss_mb"] > 0) == differential
    elif cells.WORKLOADS[workload].differential:
        # the layer self times account for the traced cells' wall time
        assert line["metrics"]["trace.unaccounted_frac"]["value"] < 0.01
        assert line["metrics"]["solver.spawn.calls"]["value"] == 1


def test_command_line_run_ends_with_the_result_line():
    env = {k: v for k, v in os.environ.items() if k != run.SOLVER_CMD_ENV}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-sweep",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=run.BENCH_DIR.parent, env=env, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and line["attempted"] == 11


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unknown_verdict_is_counted_not_fatal(bench_env, monkeypatch, capsys):
    monkeypatch.setattr(prbslice.solver, "default_solver_command",
                        lambda: [sys.executable, "-c", "print('unknown')"])
    result = harness.run_workload("preset-batch", seed=1, seconds=0,
                                  trace=False)
    line, _ = _report(result, capsys)
    assert (line["attempted"], line["failed"]) == (4, 4)
    assert not line["correct"]
    assert result["metrics"]["failed_frac"] == 1.0
    assert all(why == "CellFailure: solver answered unknown"
               for _, why in result["failures"])


def test_tampered_decoded_trace_is_counted(bench_env, monkeypatch, capsys):
    real = cells.extract_trace

    def tampered(verdict, config, scenario):
        trace = real(verdict, config, scenario)
        if config.num_slices != 4:
            return trace
        last = trace.states[-1]
        return dataclasses.replace(trace, states=trace.states[:-1] + (
            dataclasses.replace(last, rp_shr=last.rp_shr + 1),))

    monkeypatch.setattr(cells, "extract_trace", tampered)
    result = harness.run_workload("preset-batch", seed=2, seconds=0,
                                  trace=False)
    line, _ = _report(result, capsys)
    assert (line["attempted"], line["failed"]) == (4, 1)
    assert result["metrics"]["failed_frac"] == 0.25
    assert "state difference" in result["failures"][0][1]


def test_digest_mismatch_is_counted(bench_env, monkeypatch):
    real = cells.load_digests
    monkeypatch.setattr(cells, "load_digests", lambda w: {
        key: "0" * 64 if key.startswith("3-2-4/100/") else digest
        for key, digest in real(w).items()})
    result = harness.run_workload("oracle-sweep", seed=1, seconds=0,
                                  trace=False)
    assert result["attempted"] == 11
    assert [why for _, why in result["failures"]] == [
        "scenario/oracle output digest differs"]


def test_edited_digest_file_is_refused(tmp_path, monkeypatch):
    doc = json.loads(cells.DIGESTS_PATH.read_text())
    key = next(iter(doc["deep-horizon"]["cells"]))
    doc["deep-horizon"]["cells"][key] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cells, "DIGESTS_PATH", path)
    with pytest.raises(cells.DigestFileError):
        cells.load_digests(cells.WORKLOADS["deep-horizon"])
    cells.load_digests(cells.WORKLOADS["oracle-sweep"])


def test_rounds_depend_only_on_the_seed():
    workload = cells.WORKLOADS["oracle-sweep"]

    def first(seed, n=40):
        rounds = workload.rounds(seed)
        return [next(rounds) for _ in range(n)]

    assert first(7) == first(7) != first(8)
    for round_cells in first(7):
        assert [c.layout for c in round_cells] == list(workload.layouts)
    # one pass visits every scenario seed once
    assert {r[0].seed for r in first(7, 30)} == set(cells.SCENARIO_SEEDS)


@pytest.mark.parametrize("n, pct, value", [
    (1, 50, 0), (19, 50, 9), (20, 50, 9), (40, 75, 29), (100, 90, 89),
    (3000, 99, 2969), (10000, 99.9, 9989)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, pct, value):
    assert harness.tail_percentile(list(range(n))) == (pct, value,
                                                       n - 1 - value)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("cell", cell="c1"):
        tracer.call("leaf", sum, range(1000))
    times = tracer.self_times()
    outer = tracer.spans[0].end - tracer.spans[0].start
    leaf = tracer.spans[1].end - tracer.spans[1].start
    assert times["leaf"] == (1, leaf)
    assert times["cell"][1] == pytest.approx(outer - leaf)
    assert {s.cell for s in tracer.spans} == {"c1"}
