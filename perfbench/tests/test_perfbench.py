"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _layers() -> dict:
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as handle:
        return json.load(handle)["metrics"]


def test_metric_names_and_declarations_agree():
    bench = _benchmark()
    layers = _layers()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (spec["unit"], spec["better"]) for name, spec in layers.items()
    }
    e2e = set(run.END_TO_END_UNITS) | {"error_rate"}
    for name, spec in layers.items():
        assert set(spec["moves"]) <= e2e, name
        assert set(spec["on"]) | set(spec.get("zero_on", ())) <= set(W.WORKLOADS), name


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(1, 201)]
    got = child.tail(samples)
    assert got["samples"] == 200
    assert sum(1 for s in samples if s > got["value"]) == 10
    assert got["percentile"] == pytest.approx(95.0)
    assert child.tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100.0, "samples": 3}
    few = [float(i) for i in range(13)]
    assert child.tail(few) == {"value": 12.0, "percentile": 100.0, "samples": 13}


# ----------------------------------------------------------------------
# Tiny configurations of every workload
# ----------------------------------------------------------------------

TINY_FAMILIES = {
    workload: tuple(
        W.Family(f.scenario, dict(f.warmup), dict(f.warmup), f.seeded) for f in families
    )
    for workload, families in W.FAMILIES.items()
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and pin the tiny inputs' digests."""
    monkeypatch.setattr(W, "FAMILIES", TINY_FAMILIES)
    monkeypatch.setattr(W, "STREAM_ROWS", 4_000)
    monkeypatch.setattr(W, "STREAM_USERS", 300)
    monkeypatch.setattr(W, "STREAM_SEGMENT_ROWS", 512)
    monkeypatch.setattr(W, "STREAM_CHECKPOINT_EVERY", 100)
    seed = 5
    expected = {}
    for workload, families in TINY_FAMILIES.items():
        expected[workload] = {
            f.scenario: W.run_family_op(workload, f, seed).digests for f in families
        }
    stream = W.run_stream_round(W.stream_inputs(seed), str(tmp_path / "spill"))
    expected["stream-ingest"] = {"final": stream.digest}
    monkeypatch.setattr(W, "load_expected", lambda: {str(W.variant_of(seed)): expected})
    yield seed
    gc.unfreeze()


def _child(capsys, *args: str) -> dict:
    assert child.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_workload_emits_declared_metrics(workload, tiny, capsys, tmp_path):
    out = str(tmp_path)
    result = _child(capsys, "--workload", workload, "--seed", str(tiny),
                    "--seconds", "0", "--out", out)
    assert result["correct"], result["failures_by_type"]
    assert result["attempted"] >= 1
    result.update({"seed": tiny, "error_rate": 0.0, "metrics": {
        name: 1.0 for name in run.END_TO_END_UNITS}})
    reported = run.report(result, trace=0)
    assert reported.keys() == run.END_TO_END_UNITS.keys()
    assert all(m["unit"] == run.END_TO_END_UNITS[n] for n, m in reported.items())
    for key in ("wall_s", "obs_per_s", "query_p50_ms"):
        assert result["end_to_end"][key] > 0

    traced = _child(capsys, "--workload", workload, "--seed", str(tiny),
                    "--seconds", "0", "--trace", "1", "--out", out)
    assert traced["correct"], traced["failures_by_type"]
    assert T.find_leaks() == []
    layers = _layers()
    assert traced["per_layer"].keys() == layers.keys()
    traced.update({"seed": tiny, "error_rate": 0.0})
    reported = run.report(traced, trace=1)
    assert {n: m["unit"] for n, m in reported.items()} == {
        n: spec["unit"] for n, spec in layers.items()
    }
    for name, spec in layers.items():
        if workload in spec.get("zero_on", ()):
            assert traced["per_layer"][name] == 0, name
    assert traced["per_layer"]["trace.overhead"] > 0
    assert os.path.exists(os.path.join(out, f"{workload}-spans.jsonl"))


def test_raising_query_is_counted_and_the_round_goes_on(tiny, monkeypatch):
    call, doc = W.QUERIES["verdict"]

    def verdict(run_):
        if run_.scenario_id == "odns":
            raise ValueError("injected")
        return call(run_)

    monkeypatch.setitem(W.QUERIES, "verdict", (verdict, doc))
    runner = child.FamilyRunner("audit", tiny)
    tally = child.Tally()
    ops = runner.round(tally)
    assert [op.family for op in ops] == ["mixnet", "odns", "mpr", "privcount"]
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.by_type == {"ValueError": {"odns.verdict": 1}}
    assert tally.correct  # a raised query fails its op but is not a wrong output


def test_digest_mismatch_is_a_failed_and_incorrect_op(tiny, monkeypatch):
    runner = child.FamilyRunner("crypto", tiny)
    runner.expected["odoh"] = dict(runner.expected["odoh"], table="0" * 64)
    tally = child.Tally()
    runner.round(tally)
    assert tally.failed == 1
    assert tally.by_type == {"DigestMismatch": {"odoh.table": 1}}
    assert not tally.correct


def test_mpr_recursion_error_is_counted_not_fatal():
    family = W.AUDIT_FAMILIES[2]
    assert (family.scenario, family.params) == ("mpr", {"requests": 1000})
    op = W.run_family_op("audit", family, 0)
    assert op.failures.get("coalitions") == "RecursionError"
    assert {"table", "verdict"} <= op.digests.keys()


def test_wrappers_restore_every_original_and_record_nothing_after(tiny):
    originals = {}
    for _name, locator, _counter in T.TARGETS:
        owner, attr, fn = T._resolve(locator)
        originals[locator] = fn
    tracer = T.Tracer()
    family = TINY_FAMILIES["crypto"][0]
    untraced = W.run_family_op("crypto", family, tiny)
    with tracer:
        assert T.find_leaks()
    assert T.find_leaks() == []
    traced = W.run_family_op("crypto", family, tiny, tracer=tracer)
    assert T.find_leaks() == []
    for locator, fn in originals.items():
        assert T._resolve(locator)[2] is fn, locator
    assert traced.fingerprint == untraced.fingerprint
    assert traced.digests == untraced.digests
    recorded = len(tracer.spans)
    assert recorded > 0
    W.run_family_op("crypto", family, tiny)
    assert len(tracer.spans) == recorded


def test_run_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
