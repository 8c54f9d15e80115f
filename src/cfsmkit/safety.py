"""Safety properties of communicating systems.

Three kinds of bad configuration are detected:

* deadlock: every buffer is empty but every machine sits in a receiving
  state, so nobody will ever move;
* orphan message: every machine is final yet some buffer still holds a
  message that will never be consumed;
* unspecified reception: some machine is in a receiving state and every
  channel it could consume from has a nonempty buffer whose head message it
  cannot receive there.

``check_safety`` explores the reachable configurations within bounds and
reports, per property, either a violation with the breadth-first witness
trace, or that the system is safe within the explored bound, or safe
outright when the exploration was exhaustive.

Each property is judged in one place, the ``system`` module: the walk of
``explore`` flags each configuration's violations as it expands it and keeps
each property's first violator, which ``ExplorationResult.witness`` returns
with its breadth-first path, and ``system.violations`` judges one given
configuration the same way.  This module turns those into verdicts and
reports; it never sees a configuration in packed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .cfsm import Action
from .system import (
    DEADLOCK,
    DEFAULT_BOUND,
    DEFAULT_MAX_STATES,
    ORPHAN_MESSAGE,
    UNSPECIFIED_RECEPTION,
    CommunicatingSystem,
    Configuration,
    ExplorationResult,
    explore,
    violations,
)


class VerdictStatus(Enum):
    VIOLATION = "violation"
    SAFE_WITHIN_BOUND = "safe-within-bound"
    SAFE_COMPLETE = "safe-complete"


@dataclass(frozen=True)
class PropertyVerdict:
    status: VerdictStatus
    witness: Optional[tuple[Action, ...]] = None
    witness_configuration: Optional[Configuration] = None
    witness_digests: Optional[tuple[str, ...]] = None

    @property
    def violated(self) -> bool:
        return self.status is VerdictStatus.VIOLATION


@dataclass(frozen=True)
class ExplorationStats:
    configurations: int
    edges: int
    max_buffer_bound: int
    frontier_truncated: bool
    state_budget_exhausted: bool


@dataclass(frozen=True)
class SafetyReport:
    deadlock: PropertyVerdict
    orphan_message: PropertyVerdict
    unspecified_reception: PropertyVerdict
    stats: ExplorationStats

    def verdicts(self) -> dict[str, PropertyVerdict]:
        return {
            "deadlock": self.deadlock,
            "orphan-message": self.orphan_message,
            "unspecified-reception": self.unspecified_reception,
        }

    @property
    def has_violation(self) -> bool:
        return any(v.violated for v in self.verdicts().values())

    @property
    def conclusive(self) -> bool:
        return all(v.status is VerdictStatus.SAFE_COMPLETE for v in self.verdicts().values())


def is_deadlock(s: CommunicatingSystem, c: Configuration) -> bool:
    """All buffers empty and every machine in a receiving state."""
    return bool(violations(s, c) & DEADLOCK)


def is_orphan_message(s: CommunicatingSystem, c: Configuration) -> bool:
    """Every machine final, yet some buffer nonempty."""
    return bool(violations(s, c) & ORPHAN_MESSAGE)


def is_unspecified_reception(s: CommunicatingSystem, c: Configuration) -> bool:
    """Some receiving machine finds, on every channel it could consume from,
    a nonempty buffer whose head it cannot receive in its current state."""
    return bool(violations(s, c) & UNSPECIFIED_RECEPTION)


def report_from_exploration(s: CommunicatingSystem, result: ExplorationResult) -> SafetyReport:
    """Verdicts from the first violating configuration of each property that
    ``explore`` noted, with its witness path."""
    safe_status = (VerdictStatus.SAFE_COMPLETE if result.complete
                   else VerdictStatus.SAFE_WITHIN_BOUND)

    def verdict(bit: int) -> PropertyVerdict:
        found = result.witness(bit)
        if found is None:
            return PropertyVerdict(safe_status)
        path, at = found
        return PropertyVerdict(
            VerdictStatus.VIOLATION,
            witness=tuple(act for act, _ in path),
            witness_configuration=at,
            witness_digests=tuple(c.digest() for _, c in path),
        )

    stats = ExplorationStats(
        configurations=result.configuration_count,
        edges=result.edge_count,
        max_buffer_bound=result.max_buffer_bound,
        frontier_truncated=result.frontier_truncated,
        state_budget_exhausted=result.state_budget_exhausted,
    )
    return SafetyReport(
        deadlock=verdict(DEADLOCK),
        orphan_message=verdict(ORPHAN_MESSAGE),
        unspecified_reception=verdict(UNSPECIFIED_RECEPTION),
        stats=stats,
    )


def check_safety(s: CommunicatingSystem, max_buffer_bound: int = DEFAULT_BOUND,
                 max_states: int = DEFAULT_MAX_STATES) -> SafetyReport:
    """Explore within bounds and evaluate all three safety properties."""
    result = explore(s, max_buffer_bound=max_buffer_bound, max_states=max_states)
    return report_from_exploration(s, result)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _status_line(name: str, v: PropertyVerdict, bound: int) -> str:
    if v.status is VerdictStatus.VIOLATION:
        return f"{name}: VIOLATION"
    if v.status is VerdictStatus.SAFE_WITHIN_BOUND:
        return f"{name}: no violation within buffer bound {bound} (inconclusive)"
    return f"{name}: safe (exploration exhaustive)"


def render_report(report: SafetyReport) -> str:
    lines = []
    for name, verdict in report.verdicts().items():
        lines.append(_status_line(name, verdict, report.stats.max_buffer_bound))
        if verdict.violated and verdict.witness is not None:
            if verdict.witness:
                digests = verdict.witness_digests or ("",) * len(verdict.witness)
                for i, (act, digest) in enumerate(zip(verdict.witness, digests), start=1):
                    lines.append(f"  {i}. {act} {digest}")
            else:
                lines.append("  (violated at the initial configuration)")
            lines.append(f"  at {verdict.witness_configuration}")
    lines.append(
        f"explored {report.stats.configurations} configurations, "
        f"{report.stats.edges} edges, buffer bound {report.stats.max_buffer_bound}"
        + (", frontier truncated" if report.stats.frontier_truncated else "")
        + (", state budget exhausted" if report.stats.state_budget_exhausted else "")
    )
    return "\n".join(lines) + "\n"


def report_to_doc(report: SafetyReport) -> dict:
    """Machine-readable report document (schema versioned)."""
    def verdict_doc(v: PropertyVerdict) -> dict:
        doc: dict = {"status": v.status.value}
        if v.witness is not None:
            doc["witness"] = [str(a) for a in v.witness]
            doc["witness_digests"] = list(v.witness_digests or ())
            doc["witness_configuration"] = str(v.witness_configuration)
        return doc

    return {
        "schema": "cfsmkit.safety-report/1",
        "verdicts": {name: verdict_doc(v) for name, v in report.verdicts().items()},
        "stats": {
            "configurations": report.stats.configurations,
            "edges": report.stats.edges,
            "max_buffer_bound": report.stats.max_buffer_bound,
            "frontier_truncated": report.stats.frontier_truncated,
            "state_budget_exhausted": report.stats.state_budget_exhausted,
        },
    }
