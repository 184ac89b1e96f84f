"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: ``python3 -m pytest benchmarks -q``.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import record_golden  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from checks import RunRecorder  # noqa: E402
from hostref import NOMINAL_CHUNK_MS, HostRef  # noqa: E402
from workloads import ROOT, WORKLOADS, import_mhlogsim  # noqa: E402

import_mhlogsim()
from mhlogsim import engine, experiments  # noqa: E402
from mhlogsim.config import default_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_HORIZON = 1000.0
TINY = WORKLOADS["short-interval"].scaled(horizon=TINY_HORIZON, reps=2)
SEED = 7


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return record_golden.golden_entry(TINY, default_config(), SEED, tmp_path_factory.mktemp("golden"))


def _bindings():
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer.layer_targets()]


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section, golden, capsys):
    before = _bindings()
    run.print_result(*run.measure(TINY, SEED, 0.01, trace, golden, setup_probes=1))
    last = json.loads(capsys.readouterr().out.splitlines()[-1])

    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    # Every wrapped function is unwrapped again afterwards.
    assert all(getattr(o, a) is f for o, a, f in before)


def _perturbing(monkeypatch, **changes):
    original = engine.run_simulation

    def perturbed(cfg, kind, seed, trace=None):
        stats = original(cfg, kind, seed, trace=trace)
        return replace(stats, **{k: f(getattr(stats, k)) for k, f in changes.items()})

    monkeypatch.setattr(engine, "run_simulation", perturbed)


@pytest.mark.parametrize(
    "field, change, trace, use_golden",
    [
        ("total_recovery_cost", lambda v: v + 1e-9, False, True),  # golden digest
        ("handoff_count", lambda v: v + 1, False, False),  # intra + inter invariant
        ("recovery_success_count", lambda v: v + 10**6, False, False),  # <= failures
        ("mean_retrieval_time", lambda v: float("nan"), False, False),  # non-finite
        ("total_logging_cost", lambda v: v + 0.5, True, False),  # trace cost fold
        ("write_count", lambda v: v + 1, True, False),  # fold count and pairing
    ],
)
def test_perturbed_runstats_field_is_reported_failed(field, change, trace, use_golden, golden,
                                                     monkeypatch):
    _perturbing(monkeypatch, **{field: change})
    result, report = run.measure(TINY, SEED, 0.01, trace, golden if use_golden else None,
                                 setup_probes=1)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED run") for line in report)


def test_raising_run_is_reported_failed(monkeypatch):
    original = engine.run_simulation

    def raising(cfg, kind, seed, trace=None):
        # Spare the warm-up iteration, which runs at a longer horizon.
        if cfg.sim.sim_horizon == TINY_HORIZON and getattr(kind, "value", kind) == "proposed":
            raise RuntimeError("injected")
        return original(cfg, kind, seed, trace=trace)

    monkeypatch.setattr(engine, "run_simulation", raising)
    result, report = run.measure(TINY, SEED, 0.01, False, setup_probes=1)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("injected" in line for line in report)


def test_perturbed_csv_byte_fails_every_run_of_the_iteration(golden, monkeypatch):
    original = experiments.emit_csv

    def flip_last_byte(rows, out_path, provenance=()):
        path = original(rows, out_path, provenance)
        data = bytearray(path.read_bytes())
        data[-2] ^= 0x01
        path.write_bytes(bytes(data))
        return path

    monkeypatch.setattr(experiments, "emit_csv", flip_last_byte)
    result, _ = run.measure(TINY, SEED, 0.01, False, golden, setup_probes=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "long-log", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_chunks_are_left_out_of_wall_time(tmp_path):
    config = default_config()
    ref = HostRef()
    recorder = RunRecorder(engine.run_simulation, TINY.spec(config, SEED).swept_param, hostref=ref)
    with tracer.patched([(engine, "run_simulation", lambda _: recorder)]):
        t0 = time.perf_counter()
        it = run.run_iteration(TINY, config, SEED, tmp_path, hostref=ref)
        total = time.perf_counter() - t0
    runs_s = sum(r.elapsed_s for r in recorder.records)
    assert ref.chunks >= len(recorder.records)
    assert runs_s <= it.wall_s <= total - ref.spent_s
    assert ref.scale == NOMINAL_CHUNK_MS / ref.chunk_ms
