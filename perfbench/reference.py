"""Expected outputs from outside the code under test, and witness replay.

Two independent searches give each input's expected outputs:

* ``naive_bounded_safety`` from ``tests/oracles.py``, a depth-first search
  over plain strings and tuples, gives the three verdicts;
* ``shortest_violations`` below, a breadth-first search over its own plain
  representation, gives the configuration and edge counts, whether a send
  was suppressed at the bound, and for each violated property the least
  number of steps that reach it.  cfsmkit reports the first violating
  configuration in breadth-first discovery order with a shortest path to it,
  so its witness length must equal that least depth.

Both must agree on the verdicts before either is used.  Only outputs that do
not depend on ``PYTHONHASHSEED`` are compared: verdicts, witness lengths and
counts.  Witness traces themselves may differ between hash seeds.
"""

from __future__ import annotations

from cfsmkit import (
    CommunicatingSystem,
    Direction,
    initial_configuration,
    is_deadlock,
    is_orphan_message,
    is_unspecified_reception,
    step,
)
from cfsmkit.safety import SafetyReport
from oracles import naive_bounded_safety

PROPERTIES = ("deadlock", "orphan_message", "unspecified_reception")

PREDICATES = {
    "deadlock": is_deadlock,
    "orphan_message": is_orphan_message,
    "unspecified_reception": is_unspecified_reception,
}

# The working example at bound 4: safe within the bound, cut off at the bound.
RELAY_EXPECTED = {"depths": {p: None for p in PROPERTIES},
                  "configurations": 27_574, "edges": 94_930, "truncated": True}


def shortest_violations(s: CommunicatingSystem, bound: int,
                        max_configs: int = 2_000_000) -> dict:
    """Breadth-first closure under the bounded semantics (a send into a
    buffer holding ``bound`` messages is skipped), on plain data."""
    roles = s.roles
    tables = []
    for role in roles:
        machine = s[role]
        table = {q: [] for q in machine.states}
        for src, act, dst in machine.transitions:
            channel = (act.channel.sender.name, act.channel.receiver.name)
            table[src].append((act.direction is Direction.SEND, channel, act.message.label, dst))
        tables.append(table)

    def kind(i: int, q: str) -> str:
        moves = tables[i][q]
        if not moves:
            return "final"
        sends = {is_send for is_send, _, _, _ in moves}
        return "mixed" if len(sends) == 2 else ("sending" if True in sends else "receiving")

    def violated(states, buffers) -> list[str]:
        kinds = [kind(i, q) for i, q in enumerate(states)]
        out = []
        if not buffers and all(k == "receiving" for k in kinds):
            out.append("deadlock")
        if buffers and all(k == "final" for k in kinds):
            out.append("orphan_message")
        heads = {channel: msgs[0] for channel, msgs in buffers}
        for i, q in enumerate(states):
            if kinds[i] != "receiving":
                continue
            accepts: dict = {}
            for _, channel, label, _ in tables[i][q]:
                accepts.setdefault(channel, set()).add(label)
            if all(channel in heads and heads[channel] not in labels
                   for channel, labels in accepts.items()):
                out.append("unspecified_reception")
                break
        return out

    start = (tuple(s[r].initial for r in roles), ())
    seen = {start}
    level = [start]
    depths = {p: None for p in PROPERTIES}
    edges = 0
    truncated = False
    depth = 0
    while level:
        following = []
        for states, buffers in level:
            for name in violated(states, buffers):
                if depths[name] is None:
                    depths[name] = depth
            queues = dict(buffers)
            for i, q in enumerate(states):
                for is_send, channel, label, dst in tables[i][q]:
                    queue = queues.get(channel, ())
                    if is_send:
                        if len(queue) >= bound:
                            truncated = True
                            continue
                        queue = queue + (label,)
                    elif queue and queue[0] == label:
                        queue = queue[1:]
                    else:
                        continue
                    after = {**queues, channel: queue}
                    nxt = (states[:i] + (dst,) + states[i + 1:],
                           tuple(sorted((c, m) for c, m in after.items() if m)))
                    edges += 1
                    if nxt not in seen:
                        if len(seen) >= max_configs:
                            raise RuntimeError("reference search too large")
                        seen.add(nxt)
                        following.append(nxt)
        level = following
        depth += 1
    return {"depths": depths, "configurations": len(seen), "edges": edges,
            "truncated": truncated}


def expected_outputs(s: CommunicatingSystem, bound: int) -> dict:
    """Both searches' outputs for one input; raises if they disagree."""
    found = shortest_violations(s, bound)
    verdicts = naive_bounded_safety(s, bound=bound, max_configs=2_000_000)
    for name in PROPERTIES:
        if verdicts[name] != (found["depths"][name] is not None):
            raise RuntimeError(f"the two reference searches disagree on {name}")
    return found


def mismatches(s: CommunicatingSystem, report: SafetyReport, expected: dict) -> list[str]:
    """How a report differs from the expected outputs; replays each witness
    with the public ``step`` and checks the public predicate at its end."""
    problems = []
    stats = report.stats
    for field, actual in (("configurations", stats.configurations), ("edges", stats.edges),
                          ("truncated", stats.frontier_truncated)):
        if actual != expected[field]:
            problems.append(f"{field} {actual} != expected {expected[field]}")
    if stats.state_budget_exhausted:
        problems.append("state budget exhausted")
    for name in PROPERTIES:
        verdict = getattr(report, name)
        depth = expected["depths"][name]
        if not verdict.violated:
            if depth is not None:
                problems.append(f"{name}: missed a violation at depth {depth}")
            continue
        if depth is None:
            problems.append(f"{name}: reported a violation the reference does not reach")
        elif len(verdict.witness) != depth:
            problems.append(f"{name}: witness has {len(verdict.witness)} steps, shortest is {depth}")
        if not replays(s, verdict.witness, verdict.witness_configuration, PREDICATES[name]):
            problems.append(f"{name}: witness does not replay to a violating configuration")
    return problems


def replays(s: CommunicatingSystem, witness, target, predicate) -> bool:
    """Whether firing ``witness`` from the initial configuration can reach
    ``target`` and ``predicate`` holds there."""
    reached = {initial_configuration(s)}
    for action in witness:
        reached = {after for c in reached for after in step(s, c, action)}
        if not reached:
            return False
    return target in reached and predicate(s, target)


def signature(report: SafetyReport) -> tuple:
    """The outputs of a report that must repeat exactly for the same input."""
    stats = report.stats
    return (tuple((getattr(report, p).status.value,
                   None if getattr(report, p).witness is None else len(getattr(report, p).witness))
                  for p in PROPERTIES),
            stats.configurations, stats.edges, stats.frontier_truncated,
            stats.state_budget_exhausted)
