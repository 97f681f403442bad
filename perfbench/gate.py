"""Correctness gate: the checks every timed solve must pass.

Each check returns a list of problems, empty when the solve passes.  A
solve with any problem counts as failed, and a run with any failed
solve exits nonzero.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, List

import numpy as np

from repro.core.sparse import sparse_total_cost

# Relative tolerance for a sum recomputed in another order (costs, epsilon).
COST_RTOL = 1e-12


def feasibility_problems(problem: Any, solution: Any) -> List[str]:
    """Constraints (1)-(4) plus box and locality, dense or sparse."""
    report = solution.check_feasibility(problem)
    if report.feasible:
        return []
    worst = report.worst()
    return [
        f"infeasible: {report.by_constraint()} "
        f"(worst {worst.constraint} by {worst.amount:.3g})"
    ]


def ledger_problems(result: Any, epsilon: float) -> List[str]:
    """Every SBS booked one release of ``epsilon`` per phase it ran.

    Checks, per SBS, that the accountant holds exactly as many releases
    as the SBS ran fresh phases, and that those releases times epsilon
    equal the booked basic-composition total.
    """
    accountant = result.accountant
    if accountant is None:
        return ["privacy ledger missing"]
    problems: List[str] = []
    num_sbs = result.solution.caching.shape[0]
    for index in range(num_sbs):
        party = f"sbs-{index}"
        releases = sum(1 for release in accountant.releases if release.party == party)
        phases = sum(
            1 for record in result.history.phases if record.sbs == index and not record.stale
        )
        booked = accountant.total_epsilon_basic(party)
        if releases != phases:
            problems.append(f"ledger: {party} booked {releases} releases for {phases} phases")
        if not math.isclose(releases * epsilon, booked, rel_tol=COST_RTOL):
            problems.append(f"ledger: {party} booked {booked} != {releases} x {epsilon}")
    return problems


def fault_free_problems(result: Any) -> List[str]:
    """A fault-free run has no stale, retried or deadline-expired phase."""
    stats = result.channel.stats
    problems = []
    if result.stale_phases:
        problems.append(f"{result.stale_phases} stale phases in a fault-free run")
    if stats.deadline_expired:
        problems.append(f"{stats.deadline_expired} deadline-expired phases in a fault-free run")
    if stats.retransmissions:
        problems.append(f"{stats.retransmissions} retransmissions in a fault-free run")
    return problems


def sparse_cost_problems(instance: Any, result: Any) -> List[str]:
    """The sparse driver's incremental cost equals an independent recount."""
    recount = sparse_total_cost(instance, result.solution)
    if math.isclose(result.cost, recount, rel_tol=COST_RTOL):
        return []
    return [f"sparse cost {result.cost!r} disagrees with its recount {recount!r}"]


def socket_match_problems(result: Any, reference: Any) -> List[str]:
    """A fault-free socket solve equals the in-process solve bit for bit."""
    problems = []
    if result.cost != reference.cost:
        problems.append(f"socket cost {result.cost!r} != in-process {reference.cost!r}")
    if result.iterations != reference.iterations:
        problems.append(
            f"socket iterations {result.iterations} != in-process {reference.iterations}"
        )
    for field in ("caching", "routing"):
        if not np.array_equal(
            getattr(result.solution, field), getattr(reference.solution, field)
        ):
            problems.append(f"socket {field} differs from the in-process solve")
    if result.channel.stats.bytes_sent != reference.channel.stats.bytes_sent:
        problems.append(
            f"socket channel bytes {result.channel.stats.bytes_sent} != "
            f"in-process {reference.channel.stats.bytes_sent}"
        )
    return problems


def fingerprint(result: Any) -> str:
    """Digest of a solve's cost, iteration count and solution arrays.

    A pool item solved twice in one run must give the same digest: every
    solve is a pure function of its inputs and seeds.
    """
    digest = hashlib.sha256()
    digest.update(repr((float(result.cost), int(result.iterations))).encode())
    for field in ("caching", "routing"):
        value = getattr(result.solution, field)
        for array in value if isinstance(value, tuple) else (value,):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
