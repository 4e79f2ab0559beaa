"""Tests of the benchmark itself: seeded inputs, exact counts, a tiny
smoke run of every workload in both modes, and metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_names_and_units():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [n for n in workloads.NAMES if n in gated]
    assert set(DESIGN["workloads"]) == set(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs_and_counts(name):
    a = workloads.build(name, 7, tiny=True)
    b = workloads.build(name, 7, tiny=True)
    assert [i.name for i in a.items] == [i.name for i in b.items]
    assert [i.name for i in a.probe] == [i.name for i in b.probe]
    counts_a, problems_a = run.count_pass(a)
    counts_b, problems_b = run.count_pass(b)
    assert counts_a == counts_b
    assert not problems_a and not problems_b


def test_other_seed_other_inputs():
    a = workloads.build("rewrite-deep", 1)
    b = workloads.build("rewrite-deep", 2)
    assert sorted(i.name for i in a.items) != sorted(i.name for i in b.items)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_smoke_run(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    result = run.run_one(name, seed=3, seconds=0.01, trace=bool(trace),
                         tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    out = capsys.readouterr().out
    for m in want:
        assert m["name"] in out
    if trace:
        assert list(tmp_path.glob("spans-*.jsonl"))


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((HERE / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "small-terms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
