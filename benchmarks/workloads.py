"""Workload definitions shared by the benchmark runner and its helpers.

Each workload is one figure-pipeline sweep: an ``ExperimentSpec`` built from
a figure's canonical definition, optionally narrowed to a single sweep point.
The master seed is a benchmark argument; golden outputs are recorded at
``DEFAULT_SEED``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEFAULT_SEED = 12345

# Config key of a swept parameter -> the SimParams attribute it sets, so a
# run can be labelled by its sweep point from the SimConfig it receives.
SIM_ATTR = {"sim.mu": "mu", "sim.T_c": "t_c", "sim.lambda_w": "lambda_w"}


def import_mhlogsim():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "mhlogsim" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no mhlogsim source at {init}; run it from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mhlogsim

    if Path(mhlogsim.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported mhlogsim from {mhlogsim.__file__}, not {init}")
    return mhlogsim


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    figure_id: str
    reps: int
    sweep_values: tuple[float, ...] | None = None  # None keeps the figure's sweep
    extra_overrides: tuple[tuple[str, object], ...] = ()

    def spec(self, config, seed: int):
        from mhlogsim.experiments import figure_spec

        spec = figure_spec(self.figure_id, config, reps=self.reps, master_seed=seed)
        return replace(
            spec,
            sweep_values=self.sweep_values or spec.sweep_values,
            overrides={**spec.overrides, **dict(self.extra_overrides)},
        )

    def scaled(self, horizon: float, reps: int) -> "Workload":
        """The same sweep at a shorter horizon, for warm-up and smoke tests."""
        return replace(
            self,
            reps=reps,
            extra_overrides=self.extra_overrides + (("sim.horizon", horizon),),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig4-recovery",
            "heaviest acceptance figure; the only one where on_write and recover carry real weight",
            "fig4",
            reps=1,
        ),
        Workload(
            "long-log",
            "fig7 point T_c=4000, mu=0.1: lazy keeps ~190 fragments, so the per-event placement "
            "rescan and ~400-entry log moves dominate",
            "fig7",
            reps=4,
            sweep_values=(4000.0,),
            extra_overrides=(("sim.mu", 0.1),),
        ),
        Workload(
            "short-interval",
            "long-log's timeline at T_c=50: logs stay tiny, so fixed per-event dispatch and "
            "topology lookups dominate",
            "fig7",
            reps=4,
            sweep_values=(50.0,),
            extra_overrides=(("sim.mu", 0.1),),
        ),
    )
}
