"""The six default figure CSVs, provenance header included, pinned by
SHA-256 in ``tests/figures.sha256``.

A change that moves any figure number or provenance byte fails here. To
re-record the pin after a deliberate change to the figures, run from the
repository root:

    python3 scripts/run_figures.py --out results \\
        && (cd results && sha256sum fig*.csv) > tests/figures.sha256
"""

import hashlib
from pathlib import Path

import pytest

from mhlogsim.config import default_config
from mhlogsim.experiments import FIGURE_IDS, emit_csv, figure_spec, provenance_lines

PINS = Path(__file__).with_name("figures.sha256")


def pinned() -> dict[str, str]:
    lines = PINS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def test_every_figure_is_pinned():
    assert sorted(pinned()) == sorted(f"{f}.csv" for f in FIGURE_IDS)


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_csv_matches_pin(figure_id, figure_rows, tmp_path):
    cfg = default_config()
    spec = figure_spec(figure_id, cfg)
    path = emit_csv(
        figure_rows(figure_id), tmp_path / f"{figure_id}.csv", provenance_lines(spec, cfg)
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned()[path.name]
