"""Workload inputs and the check pipeline the benchmark times.

Every input is made here from the benchmark's seed; cfsmkit only sees the
finished inputs (protocol text or machine objects).  A check runs the same
public calls as ``cfsmkit check``: parse the named global types, parse and
validate the open-protocol expression, project and compose, explore within
the buffer bound, evaluate the safety report, and render it as text and as
the JSON document.  Each call into cfsmkit goes through ``tracer.call`` so a
traced run can time it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Optional

from cfsmkit import (
    Action,
    Base,
    Cfsm,
    CommunicatingSystem,
    compose,
    explore,
    parse_global_type,
    parse_gtir,
    project,
    render_report,
    report_to_doc,
    roles,
    validate_gtir,
)
from cfsmkit.safety import SafetyReport, report_from_exploration

DATA_DIR = Path(__file__).resolve().parent / "data"


class InvalidInput(Exception):
    """A generated input was rejected by the front end; no workload expects one."""


@dataclass(frozen=True)
class Case:
    """One check's input: protocol text (types plus expression), or machines
    given as ``((subject, transitions), ...)``."""

    key: str
    bound: int
    types: Optional[dict[str, str]] = None
    expr: Optional[str] = None
    machines: Optional[tuple] = None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def load_cases(workload: str, seed: int, smoke: bool = False) -> list[Case]:
    if workload == "relay-b4":
        return _relay_cases()
    if workload == "tiny-battery":
        return _tiny_cases(seed, systems=200 if smoke else 10_000)
    raise ValueError(f"unknown workload {workload!r}")


def _relay_cases() -> list[Case]:
    # The nine-role working example at the CLI's default bound.  The seed
    # does not change it: there is one input.
    types = {p.stem: p.read_text() for p in sorted(DATA_DIR.glob("*.gt"))}
    expr = (DATA_DIR / "composed.gtir").read_text()
    return [Case("relay", 4, types=types, expr=expr)]


# A tiny machine's transition is (src, is_send, message, dst) over states 0..2.
_TINY_MOVES = [(src, is_send, m, dst) for src in "012" for is_send in (True, False)
               for m in "ab" for dst in "012"]


def _machine_pool() -> list[tuple]:
    """Canonical sets of at most four transitions of one machine: states
    used contiguously from 0, so no two sets differ by a renaming of states."""
    contiguous = ({"0"}, {"0", "1"}, {"0", "1", "2"})
    variants = []
    for k in range(5):
        for combo in combinations(_TINY_MOVES, k):
            used = {t[0] for t in combo} | {t[3] for t in combo} | {"0"}
            if used in contiguous:
                variants.append(combo)
    return variants


def _tiny_cases(seed: int, systems: int) -> list[Case]:
    """A seeded sample of canonical two-machine systems (at most 3 states and
    4 transitions per machine), each checked at bounds 1 and 2."""
    pool = _machine_pool()
    transitions = {}
    for subject, other in (("A", "B"), ("B", "A")):
        for move in _TINY_MOVES:
            src, is_send, m, dst = move
            act = Action.send(subject, other, m) if is_send else Action.receive(other, subject, m)
            transitions[subject, move] = (src, act, dst)
    rng = random.Random(seed)
    cases = []
    for index in rng.sample(range(len(pool) ** 2), systems):
        ia, ib = divmod(index, len(pool))
        machines = tuple((subject, tuple(transitions[subject, move] for move in combo))
                         for subject, combo in (("A", pool[ia]), ("B", pool[ib])))
        for bound in (1, 2):
            cases.append(Case(f"{ia}x{ib}@{bound}", bound, machines=machines))
    return cases


def build_inputs(cases: list[Case]) -> list[Optional[CommunicatingSystem]]:
    """What each check starts from: None for a text case, and for machine
    cases a new system, one per machine set, so that no check inherits
    state cached on a system by an earlier pass."""
    built: dict[int, CommunicatingSystem] = {}
    inputs = []
    for case in cases:
        if case.machines is None:
            inputs.append(None)
            continue
        system = built.get(id(case.machines))
        if system is None:
            system = CommunicatingSystem({subject: Cfsm.make(subject, "0", transitions)
                                          for subject, transitions in case.machines})
            built[id(case.machines)] = system
        inputs.append(system)
    return inputs


# ---------------------------------------------------------------------------
# The check pipeline
# ---------------------------------------------------------------------------

class NoTrace:
    """Calls straight through; the untraced runs use this."""

    def call(self, name, fn, *args):
        return fn(*args)


def build_system(tracer, case: Case, system: Optional[CommunicatingSystem]) -> CommunicatingSystem:
    """Front end: text to the composed system, or the given system."""
    if system is not None:
        return system
    registry = {name: tracer.call("globaltype.parse", parse_global_type, text)
                for name, text in case.types.items()}
    expr = tracer.call("gtir.parse", parse_gtir, case.expr, registry)
    violations = tracer.call("gtir.validate", validate_gtir, expr)
    if violations:
        raise InvalidInput(f"{case.key}: " + "; ".join(str(v) for v in violations))
    return _semantics(tracer, expr)


def _semantics(tracer, expr) -> CommunicatingSystem:
    if isinstance(expr, Base):
        g = expr.global_type
        return CommunicatingSystem({p: tracer.call("globaltype.project", project, g, p)
                                    for p in sorted(roles(g))})
    left = _semantics(tracer, expr.left)
    right = _semantics(tracer, expr.right)
    return tracer.call("compose.compose", compose, left, expr.h, right, expr.k)


def _render_both(report: SafetyReport) -> str:
    return render_report(report) + json.dumps(report_to_doc(report))


def check(tracer, case: Case, system: Optional[CommunicatingSystem]
          ) -> tuple[CommunicatingSystem, SafetyReport]:
    """One check, from the case's input (text, or the system built from its
    machines) to the rendered verdict report."""
    system = build_system(tracer, case, system)
    result = tracer.call("system.explore", explore, system, case.bound)
    report = tracer.call("safety.report", report_from_exploration, system, result)
    tracer.call("cli.render", _render_both, report)
    return system, report
