"""Communicating systems, configurations, and bounded reachability.

A communicating system runs one machine per role; machines interact through
unbounded FIFO channel buffers, one per ordered role pair.  A configuration
snapshots one control state per machine plus every buffer's contents.

Full reachability of such systems is undecidable, so ``explore`` computes a
bounded under-approximation: a breadth-first closure of the initial
configuration in which a send into a buffer already holding
``max_buffer_bound`` messages is suppressed (and recorded as a truncated
frontier), and the whole exploration aborts with a reported resource verdict
when the visited set would outgrow ``max_states``.  When the frontier was
never truncated, the reachable set is exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .cfsm import (
    Action,
    Cfsm,
    CfsmError,
    Channel,
    Direction,
    Message,
    Role,
    RoleLike,
    StateKind,
    as_message,
    as_role,
    classify_state,
)


class InvalidSystemError(CfsmError):
    """A system definition violates a structural invariant."""


class SystemMismatchError(CfsmError):
    """A configuration does not belong to the system it is used with."""


class CommunicatingSystem:
    """A role-indexed family of machines over shared role and message sets."""

    def __init__(self, machines: Mapping[RoleLike, Cfsm]):
        table: dict[Role, Cfsm] = {}
        for key, m in machines.items():
            role = as_role(key)
            if m.subject != role:
                raise InvalidSystemError(f"machine for {role} has subject {m.subject}")
            table[role] = m
        roles = frozenset(table)
        for role, m in table.items():
            for other in m.roles_mentioned():
                if other not in roles:
                    raise InvalidSystemError(
                        f"machine for {role} mentions role {other}, which has no machine"
                    )
        self._machines = table
        self._roles: tuple[Role, ...] = tuple(sorted(table))

    @property
    def roles(self) -> tuple[Role, ...]:
        return self._roles

    @property
    def machines(self) -> dict[Role, Cfsm]:
        return dict(self._machines)

    def __getitem__(self, role: RoleLike) -> Cfsm:
        r = as_role(role)
        try:
            return self._machines[r]
        except KeyError:
            raise SystemMismatchError(f"system has no machine for role {r}") from None

    def __contains__(self, role: object) -> bool:
        if isinstance(role, str):
            role = Role(role)
        return role in self._machines

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicatingSystem):
            return NotImplemented
        return self._machines == other._machines

    def __repr__(self) -> str:
        return f"CommunicatingSystem(roles={[r.name for r in self._roles]})"

    def channels(self) -> tuple[Channel, ...]:
        """Channels actually used by some transition, in canonical order."""
        used = set()
        for m in self._machines.values():
            for _, act, _ in m.transitions:
                used.add(act.channel)
        return tuple(sorted(used))


@dataclass(frozen=True)
class Configuration:
    """A global snapshot: control states plus FIFO buffer contents.

    Stored canonically (roles sorted, buffers sorted with empty ones
    omitted), so equal snapshots are equal values and hash alike.
    """

    control: tuple[tuple[Role, str], ...]
    buffers: tuple[tuple[Channel, tuple[Message, ...]], ...]

    def __post_init__(self) -> None:
        # Visited-set lookups hash configurations constantly; cache the value.
        object.__setattr__(self, "_hash", hash((self.control, self.buffers)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(control: Mapping[RoleLike, str],
             buffers: Optional[Mapping[Channel, Sequence[object]]] = None) -> "Configuration":
        ctl = tuple(sorted((as_role(r), q) for r, q in control.items()))
        buf: list[tuple[Channel, tuple[Message, ...]]] = []
        if buffers:
            for ch, msgs in buffers.items():
                coerced = tuple(as_message(m) for m in msgs)
                if coerced:
                    buf.append((ch, coerced))
        return Configuration(ctl, tuple(sorted(buf)))

    @cached_property
    def control_map(self) -> dict[Role, str]:
        return dict(self.control)

    @cached_property
    def buffer_map(self) -> dict[Channel, tuple[Message, ...]]:
        return dict(self.buffers)

    def state_of(self, role: RoleLike) -> str:
        r = as_role(role)
        try:
            return self.control_map[r]
        except KeyError:
            raise SystemMismatchError(f"configuration has no control state for role {r}") from None

    def buffer(self, channel: Channel) -> tuple[Message, ...]:
        return self.buffer_map.get(channel, ())

    def digest(self) -> str:
        """Short stable fingerprint of the canonical form, for trace output."""
        text = ";".join(f"{r}={q}" for r, q in self.control) + "|" + ";".join(
            f"{ch}=" + ",".join(m.label for m in msgs) for ch, msgs in self.buffers
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def __str__(self) -> str:
        ctl = ", ".join(f"{r}:{q}" for r, q in self.control)
        if not self.buffers:
            return f"<{ctl} | all buffers empty>"
        buf = ", ".join(f"{ch}=[{' '.join(m.label for m in msgs)}]" for ch, msgs in self.buffers)
        return f"<{ctl} | {buf}>"


def initial_configuration(s: CommunicatingSystem) -> Configuration:
    """All machines at their initial states, every buffer empty."""
    return Configuration.make({r: s[r].initial for r in s.roles})


def _check_configuration(s: CommunicatingSystem, c: Configuration) -> None:
    roles = set(s.roles)
    seen = set()
    for role, state in c.control:
        if role not in roles:
            raise SystemMismatchError(f"configuration mentions unknown role {role}")
        if state not in s[role].states:
            raise SystemMismatchError(f"state {state!r} is not a state of machine {role}")
        seen.add(role)
    if seen != roles:
        missing = sorted(r.name for r in roles - seen)
        raise SystemMismatchError(f"configuration lacks control states for {missing}")
    if tuple(r for r, _ in c.control) != s.roles:
        # The state table is indexed by position in the control vector.
        raise SystemMismatchError("configuration control is not one state per role in role order")
    for ch, _ in c.buffers:
        if ch.sender not in roles or ch.receiver not in roles:
            raise SystemMismatchError(f"configuration buffers unknown channel {ch}")


def _with_state_and_buffer(c: Configuration, role_index: int, new_state: str,
                           channel: Channel, push: Optional[Message],
                           pop: bool) -> Configuration:
    old = c.control
    control = old[:role_index] + ((old[role_index][0], new_state),) + old[role_index + 1:]
    bufs = c.buffers
    for i, (ch, _) in enumerate(bufs):
        if ch is channel or ch == channel:
            at = i
            break
        if channel < ch:
            at = -i - 1  # insertion point, channel absent
            break
    else:
        at = -len(bufs) - 1
    if at < 0:
        if push is None:
            return Configuration(control, bufs)  # pop from an absent buffer: caller guards
        at = -at - 1
        buffers = bufs[:at] + ((channel, (push,)),) + bufs[at:]
    else:
        msgs = bufs[at][1]
        if pop:
            msgs = msgs[1:]
        if push is not None:
            msgs = msgs + (push,)
        if msgs:
            buffers = bufs[:at] + ((bufs[at][0], msgs),) + bufs[at + 1:]
        else:
            buffers = bufs[:at] + bufs[at + 1:]
    return Configuration(control, buffers)


class StateFacts(NamedTuple):
    """What exploration and the safety predicates need of one machine state."""

    # (action, target, is_send, channel, message), in canonical order.
    moves: tuple[tuple[Action, str, bool, Channel, Message], ...]
    kind: StateKind
    receivable: dict[Channel, frozenset[Message]]


# One ``{state: StateFacts}`` map per role, index-aligned with ``s.roles`` and
# so with the control vector of every canonical configuration.
StateTable = tuple[dict[str, StateFacts], ...]


def state_table(s: CommunicatingSystem) -> StateTable:
    table = []
    for role in s.roles:
        machine = s[role]
        facts = {}
        for q in machine.states:
            outs = machine.outgoing(q)
            receivable: dict[Channel, set[Message]] = {}
            for _, act, _ in outs:
                if act.direction is Direction.RECEIVE:
                    receivable.setdefault(act.channel, set()).add(act.message)
            facts[q] = StateFacts(
                tuple((act, dst, act.direction is Direction.SEND, act.channel, act.message)
                      for _, act, dst in outs),
                classify_state(machine, q),
                {ch: frozenset(msgs) for ch, msgs in receivable.items()},
            )
        table.append(facts)
    return tuple(table)


def _successors(table: StateTable, cfg: Configuration, bound: float = math.inf
                ) -> tuple[list[tuple[Action, Configuration]], bool]:
    """Every step from ``cfg`` (one action may have several targets when the
    machine is nondeterministic), and whether a send was suppressed because
    its buffer already held ``bound`` messages."""
    out: list[tuple[Action, Configuration]] = []
    truncated = False
    bufmap = dict(cfg.buffers)
    for index, (_, state) in enumerate(cfg.control):
        for act, dst, is_send, channel, message in table[index][state].moves:
            buf = bufmap.get(channel)
            if is_send:
                if buf is not None and len(buf) >= bound:
                    truncated = True
                    continue
                out.append((act, _with_state_and_buffer(
                    cfg, index, dst, channel, push=message, pop=False)))
            elif buf and buf[0] == message:
                out.append((act, _with_state_and_buffer(
                    cfg, index, dst, channel, push=None, pop=True)))
    return out, truncated


def step(s: CommunicatingSystem, c: Configuration, action: Action) -> frozenset[Configuration]:
    """Successor configurations reached by firing ``action`` at ``c``.

    The empty set means the action is not enabled.  A configuration that does
    not belong to the system raises SystemMismatchError instead.
    """
    _check_configuration(s, c)
    return frozenset(nxt for act, nxt in _successors(state_table(s), c)[0] if act == action)


def enabled_actions(s: CommunicatingSystem, c: Configuration) -> frozenset[Action]:
    """Exactly the actions with at least one successor at ``c``."""
    _check_configuration(s, c)
    return frozenset(act for act, _ in _successors(state_table(s), c)[0])


Edge = tuple[Configuration, Action, Configuration]


@dataclass(frozen=True)
class ExplorationResult:
    """Bounded reachability closure plus how it was cut off.

    ``frontier_truncated`` reports that some enabled send was suppressed at
    the buffer bound; ``state_budget_exhausted`` that the walk was aborted at
    the state budget.  Either flag makes the reachable set an
    under-approximation.

    ``parents`` maps each explored configuration, in breadth-first discovery
    order, to the configuration and action that first reached it (``None``
    for the initial one); ``edge_count`` counts the steps the walk took
    between explored configurations.
    """

    frontier_truncated: bool
    max_buffer_bound: int
    state_budget_exhausted: bool
    parents: dict[Configuration, Optional[tuple[Configuration, Action]]]
    edge_count: int
    table: StateTable = field(repr=False, compare=False)

    @property
    def initial(self) -> Configuration:
        return next(iter(self.parents))

    @property
    def reachable(self) -> frozenset[Configuration]:
        return frozenset(self.parents)

    @property
    def discovery_order(self) -> tuple[Configuration, ...]:
        return tuple(self.parents)

    @property
    def transition_edges(self) -> frozenset[Edge]:
        """Every bounded step between explored configurations, recomputed on
        demand.  Unless the state budget was exhausted, these are exactly the
        ``edge_count`` steps the walk took."""
        return frozenset(
            (cfg, act, nxt)
            for cfg in self.parents
            for act, nxt in _successors(self.table, cfg, self.max_buffer_bound)[0]
            if nxt in self.parents
        )

    @property
    def complete(self) -> bool:
        return not (self.frontier_truncated or self.state_budget_exhausted)

    def path_to(self, target: Configuration) -> tuple[tuple[Action, Configuration], ...]:
        """The breadth-first path from the initial configuration to
        ``target``: each step's action and the configuration it reaches."""
        if target not in self.parents:
            raise SystemMismatchError("target configuration is not connected to the initial one")
        out: list[tuple[Action, Configuration]] = []
        cfg = target
        while (parent := self.parents[cfg]) is not None:
            out.append((parent[1], cfg))
            cfg = parent[0]
        return tuple(reversed(out))

    def trace_to(self, target: Configuration) -> tuple[Action, ...]:
        """An action sequence leading from the initial configuration to ``target``."""
        return tuple(act for act, _ in self.path_to(target))


def explore(s: CommunicatingSystem, max_buffer_bound: int = 4,
            max_states: int = 1_000_000, jobs: int = 1) -> ExplorationResult:
    """Breadth-first closure of the initial configuration under ``step``.

    Sends into a full buffer are suppressed (flagging ``frontier_truncated``)
    and the walk aborts, flagging ``state_budget_exhausted``, rather than
    admit more than ``max_states`` configurations.  ``jobs`` is accepted for
    compatibility and ignored: the walk is sequential.
    """
    if max_buffer_bound < 1 or max_states < 1:
        raise ValueError("bounds must be at least 1")
    table = state_table(s)
    init = initial_configuration(s)
    parents: dict[Configuration, Optional[tuple[Configuration, Action]]] = {init: None}
    edges = 0
    truncated = False
    exhausted = False
    frontier: list[Configuration] = [init]
    while frontier and not exhausted:
        next_frontier: list[Configuration] = []
        for cfg in frontier:
            succ, cut = _successors(table, cfg, max_buffer_bound)
            truncated = truncated or cut
            for act, nxt in succ:
                if nxt not in parents:
                    if len(parents) >= max_states:
                        exhausted = True
                        break
                    parents[nxt] = (cfg, act)
                    next_frontier.append(nxt)
                edges += 1
            if exhausted:
                break
        frontier = next_frontier
    return ExplorationResult(
        frontier_truncated=truncated,
        max_buffer_bound=max_buffer_bound,
        state_budget_exhausted=exhausted,
        parents=parents,
        edge_count=edges,
        table=table,
    )


# ---------------------------------------------------------------------------
# System file format and trace rendering
# ---------------------------------------------------------------------------

def system_to_doc(s: CommunicatingSystem) -> dict:
    from .cfsm import machine_to_doc

    return {"machines": [machine_to_doc(s[r]) for r in s.roles]}


def serialize_system(s: CommunicatingSystem) -> str:
    return json.dumps(system_to_doc(s), indent=2) + "\n"


def system_from_doc(doc: object) -> CommunicatingSystem:
    from .cfsm import MachineFormatError, machine_from_doc

    if not isinstance(doc, dict) or not isinstance(doc.get("machines"), list):
        raise MachineFormatError("system document must be an object with a 'machines' list")
    machines: dict[Role, Cfsm] = {}
    for entry in doc["machines"]:
        m = machine_from_doc(entry)
        if m.subject in machines:
            raise MachineFormatError(f"duplicate machine for role {m.subject}")
        machines[m.subject] = m
    try:
        return CommunicatingSystem(machines)
    except InvalidSystemError as exc:
        raise MachineFormatError(str(exc)) from None


def parse_system(text: str) -> CommunicatingSystem:
    from .cfsm import MachineFormatError

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MachineFormatError(f"not valid JSON: {exc}") from None
    return system_from_doc(doc)


def render_trace(s: CommunicatingSystem, trace: Iterable[Action]) -> str:
    """One text line per step: the fired action and the resulting configuration digest."""
    table = state_table(s)
    cfg = initial_configuration(s)
    lines = [f"init {cfg.digest()}"]
    for i, act in enumerate(trace, start=1):
        succ = sorted((nxt for a, nxt in _successors(table, cfg)[0] if a == act),
                      key=lambda c: (c.control, c.buffers))
        if not succ:
            raise SystemMismatchError(f"trace step {i} ({act}) is not enabled")
        cfg = succ[0]
        lines.append(f"{i}. {act} {cfg.digest()}")
    return "\n".join(lines) + "\n"
