"""Simulator and cost-model evaluator for mobile-host transaction recovery.

Compares three log-management strategies (lazy, pessimistic, and a
BSC-consolidating scheme) on handoff cost, recovery cost, total cost,
recovery probability, and the recoverability-per-cost ratio, by seeded
discrete-event simulation and by closed-form evaluation.
"""

__version__ = "0.1.0"
