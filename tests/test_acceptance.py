"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Figure-based criteria
execute the canonical experiment definitions at their documented seeds, so
their outcomes are deterministic.

Criterion 5 carries a known, analyzed failure in its "pessimistic is
lowest" clause: with recovery cells drawn uniformly over the failure
region (or a foreign one), the BSC-resident log is one wired hop from
every base station in its region, while a BS-resident log averages
2 * (1 - 1/n) hops to its region siblings, so the consolidating strategy
retrieves strictly cheaper whenever a region has two or more cells. The
clause is asserted as stated rather than weakened.
"""

import numpy as np

from mhlogsim import analytic, cli
from mhlogsim.config import default_config
from mhlogsim.engine import failure_first
from mhlogsim.experiments import check_trends, crosscheck_analytic
from mhlogsim.model import CostParams, SimParams
from mhlogsim.strategies import make_strategy
from mhlogsim.topology import bsc_of, bsc_site, build_topology

from conftest import mean_pending_log


def report(criterion: int, description: str, violations: list[str]) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"[criterion {criterion:>2}] {status}: {description}")
    for v in violations:
        print(f"              - {v}")
    assert not violations, f"criterion {criterion}: " + "; ".join(violations)


def test_criterion_01_closed_form_exactness():
    violations = []
    cp = CostParams()

    def check(name, got, want):
        if want == 0:
            ok = got == 0
        else:
            ok = abs(got - want) / abs(want) <= 1e-12
        if not ok:
            violations.append(f"{name}: got {got!r}, want {want!r}")

    p01, p02 = analytic.markov_probs(1.0, 3.0)
    check("markov p01", p01, 0.75)
    check("markov p02", p02, 0.25)
    check("avg handoff (eta 0)", analytic.avg_handoff_cost(0.0, cp), 5.5)
    check("avg handoff (eta 2)", analytic.avg_handoff_cost(2.0, cp), 7.5)
    check("avg handoff (eta 9.5)", analytic.avg_handoff_cost(9.5, CostParams(c_1=2.0)), 24.5)
    check("total handoff", analytic.total_handoff_cost(5.0, 2.0, cp), 9.1)
    check("recovery", analytic.recovery_cost(2.0, cp), 0.75)
    check("total cost", analytic.total_cost(0.5, 0.5, 9.1, 0.75), 4.925)
    check("transfer ops", analytic.log_transfer_ops(2000.0, 0.001, 0.01), 30.0)
    check("c_prop", analytic.c_prop(2000.0, 0.001, 0.01, cp), 2.5)
    check("c_lazy", analytic.c_lazy(50.0, 0.002, CostParams(c_p=7.0)), 7.0)
    check("c_lazy default", analytic.c_lazy(100.0, 0.001, cp), 3.0)
    check("frcr", analytic.frcr(0.9, 0.6, 2.5, 1.5), 0.3)
    if analytic.frcr(0.9, 0.6, 2.0, 2.0) is not None:
        violations.append("frcr with equal costs should be undefined")

    rng = np.random.Generator(np.random.PCG64(2024))
    lf = rng.uniform(0.0, 5.0, 10_000)
    mu = rng.uniform(1e-9, 5.0, 10_000)
    worst = max(
        abs(sum(analytic.markov_probs(float(a), float(b))) - 1.0)
        for a, b in zip(lf, mu)
    )
    if worst > 1e-12:
        violations.append(f"p01+p02 deviates from 1 by {worst}")

    report(1, "closed forms reproduce hand-computed values to 1e-12", violations)


def test_criterion_02_markov_oracle():
    sp = SimParams(lambda_f=0.001, mu=0.01)
    p02_hat = float(np.mean(failure_first(sp, 20240, 100_000)))
    expected = 0.001 / 0.011
    err = abs(p02_hat - expected)
    violations = []
    if err > 0.01:
        violations.append(f"p02_hat {p02_hat:.5f} vs {expected:.5f}, |err| {err:.5f} > 0.01")
    report(2, f"interval simulation matches failure probability (err {err:.4f})", violations)


def test_criterion_03_mean_log_size_oracle():
    emp = mean_pending_log(seed=31)
    target = 9.5  # (k - 1) / 2 at k_expected = 20
    rel = abs(emp - target) / target
    violations = []
    if rel > 0.05:
        violations.append(f"mean pending log {emp:.4f} vs {target}, rel err {rel:.3%}")
    report(3, f"empirical mean log size {emp:.3f} within 5% of {target}", violations)


def test_criterion_04_handoff_cost_trends(figure_rows):
    rows = figure_rows("fig3")
    report(4, "handoff cost: lazy flat, pess >= prop >= lazy, pess steepest",
           check_trends("fig3", rows))


def test_criterion_05_recovery_cost_trends(figure_rows):
    rows = figure_rows("fig4")
    report(5, "recovery cost: lazy increasing, pess lowest, prop near pess at home",
           check_trends("fig4", rows))


def test_criterion_06_total_cost_trends(figure_rows):
    rows = figure_rows("fig5")
    report(6, "total cost per interval: proposed is the minimum at every mu",
           check_trends("fig5", rows))


def test_criterion_07_recovery_probability_trends(figure_rows):
    rows = figure_rows("fig6")
    report(7, "recovery probability: decreasing in write rate, proposed on top",
           check_trends("fig6", rows))


def test_criterion_08_frcr_trends(figure_rows):
    rows = figure_rows("fig8")
    report(8, "FRCR over checkpoint intervals: interior maximum, flat start",
           check_trends("fig8", rows))


def test_criterion_09_protocol_invariants():
    tree = build_topology(1, 3, 3, "ring")
    sp = SimParams(cache_capacity=3, recovery_deadline=1e9)
    cp = CostParams()
    violations = []
    n_sequences = 1000

    # Replay completeness on failure-free sequences (a failure legitimately
    # loses cached entries for the consolidating strategy).
    for kind in ("lazy", "pessimistic", "proposed"):
        for i in range(n_sequences):
            rng = np.random.Generator(np.random.PCG64(1000 + i))
            strat = make_strategy(kind, tree, sp, cp)
            expected: list[int] = []
            for _ in range(30):
                u = rng.random()
                if u < 0.6:
                    seq = strat.next_seq
                    strat.on_write()
                    expected.append(seq)
                elif u < 0.9:
                    to = int(rng.integers(tree.n_cells - 1))
                    to = to if to < strat.current_cell else to + 1
                    strat.on_handoff(to)
                else:
                    strat.on_checkpoint()
                    expected = []
                if strat.replay_sequence() != expected:
                    violations.append(f"{kind}: replay completeness broken (seq {i})")
                    break
            if violations:
                break

    # Placement invariants on sequences that do include failures.
    for kind in ("lazy", "pessimistic", "proposed"):
        for i in range(n_sequences):
            rng = np.random.Generator(np.random.PCG64(5000 + i))
            strat = make_strategy(kind, tree, sp, cp)
            for _ in range(30):
                u = rng.random()
                if u < 0.5:
                    strat.on_write()
                elif u < 0.8:
                    frm = strat.current_cell
                    to = int(rng.integers(tree.n_cells - 1))
                    to = to if to < frm else to + 1
                    inter = bsc_of(tree, frm) != bsc_of(tree, to)
                    delta = strat.on_handoff(to)
                    if kind == "lazy" and delta.data_items_moved != 0:
                        violations.append(f"lazy: handoff moved data (seq {i})")
                    if kind == "pessimistic":
                        sites = [f.site for f in strat.fragments]
                        if strat.cache or sites != [("bs", to)]:
                            violations.append(
                                f"pessimistic: fragment not solo at host BS (seq {i})"
                            )
                    if kind == "proposed" and inter:
                        if strat.checkpoint_site != bsc_site(strat.current_bsc):
                            violations.append(
                                f"proposed: checkpoint not at the host's BSC (seq {i})"
                            )
                        bad = [
                            f for f in strat.fragments
                            if f.entries and f.site != bsc_site(strat.current_bsc)
                        ]
                        if bad or strat.cache:
                            violations.append(
                                f"proposed: log not consolidated after inter-BSC (seq {i})"
                            )
                elif u < 0.9:
                    strat.on_checkpoint()
                else:
                    cell = int(rng.integers(tree.n_cells))
                    strat.recover(cell)
                if violations:
                    break
            if violations:
                break

    report(9, f"protocol invariants hold over {n_sequences} random sequences", violations)


def test_criterion_10_figure_determinism(tmp_path):
    flags = ["--reps", "5", "--seed", "12345"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.main(["figure", "fig5", "--out", str(out_a), *flags])
    code_b = cli.main(["figure", "fig5", "--out", str(out_b), *flags])
    violations = []
    if code_a != 0 or code_b != 0:
        violations.append(f"exit codes {code_a}, {code_b}")
    else:
        bytes_a = (out_a / "fig5.csv").read_bytes()
        bytes_b = (out_b / "fig5.csv").read_bytes()
        if bytes_a != bytes_b:
            violations.append("CSV outputs differ between identical invocations")
    report(10, "figure fig5 run twice with identical flags is byte-identical", violations)


def test_criterion_11_analytic_crosscheck():
    cfg = default_config()
    cc = crosscheck_analytic(cfg, n_intervals=100_000, seed=77, threshold=0.05)
    violations = [
        f"{r.name}: analytic {r.analytic:.6g} vs empirical {r.empirical:.6g} "
        f"({r.rel_err:.2%})"
        for r in cc.rows
        if r.flagged
    ]
    ct = next(r for r in cc.rows if r.name == "c_t")
    report(
        11,
        f"analytic total cost within 5% of matched simulation (err {ct.rel_err:.3%})",
        violations,
    )
