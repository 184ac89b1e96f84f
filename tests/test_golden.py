"""The benchmark's golden RunStats digests and CSV SHA-256, checked in the
tier-1 suite for every benchmark workload at the default seed."""

import ast
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
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


# Defined in src/ with no reader in src/, scripts/ or benchmarks/, each for
# the reason its definition gives.
UNREAD_KEPT = {
    "expected_lazy_handoff_cost",
    "expected_pessimistic_handoff_cost",
    "replay_sequence",
}


def test_every_src_definition_has_a_reader():
    """Every module-level function and class of ``src/mhlogsim``, and every
    non-dunder method of those classes, is read by name in ``src/mhlogsim``,
    ``scripts`` or ``benchmarks``, or wrapped by the benchmark's tracer;
    the rest is exactly ``UNREAD_KEPT``. A new name only tests read fails
    here, and so does a kept name that gains a reader."""
    import_mhlogsim()
    import tracer

    read = {attr for _, attr, _ in tracer.layer_targets()}
    for folder in ("src/mhlogsim", "scripts", "benchmarks"):
        for path in (ROOT / folder).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name.rpartition(".")[2])

    defined = set()
    for path in (ROOT / "src" / "mhlogsim").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    m.name for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                )
    assert defined - read == UNREAD_KEPT
