"""The benchmark's golden RunStats digests and CSV SHA-256, checked in the
tier-1 suite for every benchmark workload at the default seed."""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import record_golden  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, import_mhlogsim  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_recorded_golden(name, tmp_path):
    import_mhlogsim()
    from mhlogsim.config import default_config

    golden = json.loads((BENCHMARKS / "golden.json").read_text(encoding="utf-8"))
    entry = record_golden.golden_entry(WORKLOADS[name], default_config(), DEFAULT_SEED, tmp_path)
    assert entry == golden[name]


def test_every_traced_name_is_callable():
    # The benchmark's tracer wraps these by name, some with no caller in
    # src/; deleting one would break ``benchmarks/run.py --trace 1``.
    import_mhlogsim()
    import tracer

    for owner, attr, name in tracer.layer_targets():
        assert callable(getattr(owner, attr, None)), name
