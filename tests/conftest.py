import sys
from collections import Counter

import pytest

from mhlogsim import topology
from mhlogsim.config import default_config
from mhlogsim.experiments import figure_spec, run_figure


@pytest.fixture(scope="session")
def figure_rows():
    """``figure_rows(figure_id)``: the figure's rows at the default config
    (20 replications, master seed 12345), run once per session."""
    cache: dict[str, list] = {}
    cfg = default_config()

    def get(figure_id: str):
        if figure_id not in cache:
            spec = figure_spec(figure_id, cfg)
            cache[figure_id] = run_figure(spec, cfg)
        return cache[figure_id]

    return get


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*names)`` routes every mhlogsim binding of the named
    ``topology`` functions through one counter, keyed by name."""
    calls: Counter = Counter()

    def install(*names: str) -> Counter:
        for fname in names:
            original = getattr(topology, fname)

            def counting(*args, _original=original, _name=fname):
                calls[_name] += 1
                return _original(*args)

            for name, module in list(sys.modules.items()):
                if name.startswith("mhlogsim") and getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, counting)
        return calls

    return install
