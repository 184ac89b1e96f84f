import sys
from collections import Counter

import pytest

from mhlogsim import topology


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
