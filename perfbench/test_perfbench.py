"""Tests of the benchmark itself.

    python -m pytest perfbench

They run every workload once at tiny sizes (the smoke mode), check that a
real run prints exactly the metrics BENCHMARK.json declares, with their
units, and check that the harness refuses to measure under a changed budget.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_src()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, env=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_smoke_mode_finds_no_problem():
    # every workload, traced and untraced digests equal, every layer named,
    # and a perturbed polygon closed form caught on oracle and closed_forms
    assert run.smoke() == []


def test_wrong_closed_form_is_counted_as_failed(monkeypatch):
    import pottsmotive.grothendieck as gr

    original = gr.banana_class_fixed_q
    monkeypatch.setattr(gr, "banana_class_fixed_q", lambda m: original(m) * 2)
    report = run.run_pass("oracle", 3, trace=False, tiny=True)
    names = {name for name, _ in report["failures"]}
    assert "fixed-q/banana-3" in names
    assert report["attempted"] > len(report["failures"]) > 0


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_run_emits_the_declared_metrics_with_units():
    plain = _bench("--workload", "closed_forms", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert _emitted(plain) == _declared("end_to_end")
    traced = _bench("--workload", "closed_forms", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert _emitted(traced) == _declared("per_layer")


def test_refuses_a_changed_budget():
    proc = _bench(
        "--workload", "closed_forms", "--seconds", "1",
        env=dict(os.environ, POTTS_BUDGET="1000"),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "POTTS_BUDGET" in proc.stderr
