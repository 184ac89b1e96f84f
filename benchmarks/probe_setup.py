"""Child process behind the ``setup_s`` metric.

Run as ``python probe_setup.py WORKLOAD SEED``. It does what a fresh figure
run does (import, default config, spec, ``run_figure``) and prints the
wall-clock time at which the first ``run_simulation`` call starts, then
stops without simulating or tearing the interpreter down.
"""

import os
import sys
import time

from workloads import WORKLOADS, import_mhlogsim


class _FirstRun(Exception):
    pass


def _stop(*args, **kwargs):
    raise _FirstRun(time.time())


def main() -> int:
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    import_mhlogsim()
    from mhlogsim import engine, experiments
    from mhlogsim.config import default_config

    engine.run_simulation = _stop
    config = default_config()
    try:
        experiments.run_figure(workload.spec(config, seed), config)
    except _FirstRun as first:
        print(repr(first.args[0]), flush=True)
        os._exit(0)
    return 1


if __name__ == "__main__":
    sys.exit(main())
