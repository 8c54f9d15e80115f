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
from typing import Mapping, Optional, Sequence

from .cfsm import (
    Action,
    Cfsm,
    CfsmError,
    Channel,
    Direction,
    MachineFormatError,
    Message,
    Role,
    RoleLike,
    as_message,
    as_role,
    machine_from_doc,
    machine_to_doc,
    parse_json_document,
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


@dataclass(frozen=True)
class Configuration:
    """A global snapshot: control states plus FIFO buffer contents.

    Stored canonically (roles sorted, buffers sorted with empty ones
    omitted), so equal snapshots are equal values and hash alike.
    """

    control: tuple[tuple[Role, str], ...]
    buffers: tuple[tuple[Channel, tuple[Message, ...]], ...]

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

    def state_of(self, role: RoleLike) -> str:
        r = as_role(role)
        try:
            return dict(self.control)[r]
        except KeyError:
            raise SystemMismatchError(f"configuration has no control state for role {r}") from None

    def buffer(self, channel: Channel) -> tuple[Message, ...]:
        return dict(self.buffers).get(channel, ())

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


#: A packed configuration: the control vector as one mixed-radix int, then one
#: string of message codes per channel slot (see ``PackedSystem``).
Packed = tuple

#: One move of a row, (action, target, is_send, slot, code, bit) with the
#: machine's own ``Action``, and the row of a control vector (see ``PackedSystem``).
Move = tuple[Action, int, bool, int, str, int]
Row = tuple[tuple[Move, ...], bool, bool, int]

#: The bits of the safety properties a configuration violates, as the third
#: value of ``_successors`` reports them.
DEADLOCK = 1
ORPHAN_MESSAGE = 2
UNSPECIFIED_RECEPTION = 4


class PackedSystem:
    """A system in the flat form exploration works on.

    A packed configuration is one flat tuple: the control vector, then one
    buffer per channel of ``channels``, in sorted order.  The control vector
    is one mixed-radix int, the sum over roles of the index of the role's
    state in ``states[r]`` (the machine's states, sorted) times the product
    of the earlier roles' state counts.  A buffer is a string with one
    character per message, the label's code: the label's position ``i`` in
    the sorted labels, as ``chr(i)``; an empty buffer is ``""``.  Such tuples
    hash and compare in C, the cyclic GC stops tracking them, and a buffer
    caches its hash.

    ``rows`` is the one table of the engine.  It maps each control vector
    met so far to its ``row``, built from the machines' transitions the
    first time a walk meets that vector: every role's outgoing transitions
    in role order, each in its machine's canonical order as a move
    ``(action, target, is_send, slot, code, bit)``; whether every role is
    final (has no moves); whether every role is receiving (never so without
    a role); and the mask of the receiving roles' bits.  ``target`` is the
    control vector the move leads to, the same int object in every row, so
    the configurations a walk stores share one int per control vector.
    ``bit`` is the role's bit ``1 << r`` when its state is receiving (it has
    moves and none of them sends), else 0.  ``action`` is the machine's own ``Action``.
    ``_successors`` is the only code that reads rows to judge a configuration.

    The channels are those some transition uses, and the labels those of the
    machines' alphabets, plus those of ``extra``'s buffers, so that a
    configuration given at the API boundary keeps a buffer on a channel, or a
    label, that no transition uses.
    """

    def __init__(self, s: CommunicatingSystem, extra: Optional[Configuration] = None):
        self.roles = roles = s.roles
        machines = [s._machines[r] for r in roles]
        # Keyed by names: string keys hash and compare in C.
        channels: dict[tuple[str, str], Channel] = {}
        messages = {m.label: m for machine in machines for m in machine.messages}
        for machine in machines:
            for _, act, _ in machine.transitions:
                ch = act.channel
                channels[ch.sender.name, ch.receiver.name] = ch
        if extra is not None:
            for ch, msgs in extra.buffers:
                channels[ch.sender.name, ch.receiver.name] = ch
                for m in msgs:
                    messages.setdefault(m.label, m)
        channel_keys = sorted(channels)
        self.channels = tuple([channels[key] for key in channel_keys])
        self._slots = {key: 1 + k for k, key in enumerate(channel_keys)}
        labels = sorted(messages)
        self._codes = codes = {label: chr(i) for i, label in enumerate(labels)}
        self._messages = {codes[label]: messages[label] for label in labels}
        self.states: list[tuple[str, ...]] = []
        # Per role, each state's index times the role's weight in the radix.
        self._places: list[dict[str, int]] = []
        self._outgoing = [machine._outgoing for machine in machines]
        weight = 1
        initial = 0
        for machine in machines:
            states = tuple(sorted(machine.states))
            places = dict(zip(states, range(0, len(states) * weight, weight)))
            self.states.append(states)
            self._places.append(places)
            initial += places[machine.initial]
            weight *= len(states)
        self.initial: Packed = (initial,) + ("",) * len(self.channels)
        self.rows: dict[int, Row] = {}
        # One int object per target control vector, shared by every row.
        self._targets: dict[int, int] = {}

    def row(self, control: int) -> Row:
        """Build and store in ``rows`` the row of control vector ``control``,
        from the transitions of each role's state in it: the one place where
        a machine transition becomes a move."""
        moves: list[Move] = []
        targets, slots, codes = self._targets, self._slots, self._codes
        SEND = Direction.SEND
        mask = 0
        rest = control
        for r, (states, places, outgoing) in enumerate(zip(self.states, self._places, self._outgoing)):
            rest, i = divmod(rest, len(states))
            q = states[i]
            ts = outgoing.get(q, ())
            bit = 1 << r if ts else 0
            for _, act, _ in ts:
                if act.direction is SEND:
                    bit = 0
                    break
            mask |= bit
            base = control - places[q]
            for _, act, dst in ts:
                ch = act.channel
                target = base + places[dst]
                moves.append((act, targets.setdefault(target, target), act.direction is SEND,
                              slots[ch.sender.name, ch.receiver.name], codes[act.message.label], bit))
        receiving = bool(moves) and mask == (1 << len(self.roles)) - 1
        row = self.rows[control] = (tuple(moves), not moves, receiving, mask)
        return row

    def decode(self, cfg: Packed) -> Configuration:
        """The public, canonical form of a packed configuration."""
        control = cfg[0]
        states = []
        for names in self.states:
            control, i = divmod(control, len(names))
            states.append(names[i])
        messages = self._messages
        return Configuration(
            tuple(zip(self.roles, states)),
            tuple((ch, tuple(map(messages.__getitem__, buf)))
                  for ch, buf in zip(self.channels, cfg[1:]) if buf),
        )

    def encode(self, c: Configuration) -> Packed:
        """The packed form of ``c``; SystemMismatchError when ``c`` does not
        belong to the system or has no packed form here."""
        places = dict(zip(self.roles, self._places))
        for role, q in c.control:
            if role not in places:
                raise SystemMismatchError(f"configuration mentions unknown role {role}")
            if q not in places[role]:
                raise SystemMismatchError(f"state {q!r} is not a state of machine {role}")
        missing = places.keys() - {role for role, _ in c.control}
        if missing:
            raise SystemMismatchError(
                f"configuration lacks control states for {sorted(r.name for r in missing)}")
        for ch, _ in c.buffers:
            if ch.sender not in places or ch.receiver not in places:
                raise SystemMismatchError(f"configuration buffers unknown channel {ch}")
        if tuple(role for role, _ in c.control) != self.roles:
            raise SystemMismatchError("configuration control is not one state per role in role order")
        cfg: list = [sum(places[role][q] for role, q in c.control)] + [""] * len(self.channels)
        codes = self._codes
        try:
            for ch, msgs in c.buffers:
                cfg[self._slots[ch.sender.name, ch.receiver.name]] = "".join(
                    codes[m.label] for m in msgs)
        except KeyError:
            raise SystemMismatchError(f"configuration {c} does not fit the system") from None
        return tuple(cfg)


def pack_configuration(s: CommunicatingSystem, c: Configuration) -> tuple[PackedSystem, Packed]:
    """Pack ``s`` and ``c``, or raise SystemMismatchError when ``c`` does not
    belong to ``s``.  A buffer on a channel that no transition uses gets a
    slot of its own, so steps carry it through unchanged."""
    packed = PackedSystem(s, c)
    return packed, packed.encode(c)


def _successors(p: PackedSystem, cfg: Packed, bound: float = math.inf
                ) -> tuple[list[tuple[Action, Packed]], bool, int]:
    """Every step from ``cfg`` as ``(action, successor)``, in row order (one
    action may have several targets when the machine is nondeterministic),
    whether a send was suppressed because its buffer already held ``bound``
    messages, and the bits of the safety properties (see ``safety``) ``cfg``
    violates.

    One pass over the row of ``cfg``'s control vector does it all.  A
    receiving role is blocked unless one of its receives faces an empty
    buffer or one headed by its message; such a receive sets the role's bit
    in ``free``, so some role is blocked exactly when ``free`` falls short of
    the row's mask."""
    out: list[tuple[Action, Packed]] = []
    truncated = False
    free = 0
    control = cfg[0]
    moves, final, receiving, mask = p.rows.get(control) or p.row(control)
    for action, target, is_send, slot, code, bit in moves:
        buf = cfg[slot]
        if is_send:
            if len(buf) >= bound:
                truncated = True
                continue
            buf += code
        elif not buf:
            free |= bit
            continue
        elif buf[0] == code:
            free |= bit
            buf = buf[1:]
        else:
            continue
        nxt = [*cfg]
        nxt[0] = target
        nxt[slot] = buf
        out.append((action, tuple(nxt)))
    if final or receiving:  # deadlock needs empty buffers, orphan message a queued one
        queued = any(cfg[1:])
        final, receiving = final and queued, receiving and not queued
    return out, truncated, DEADLOCK * receiving | ORPHAN_MESSAGE * final | UNSPECIFIED_RECEPTION * (free != mask)


def step(s: CommunicatingSystem, c: Configuration, action: Action) -> frozenset[Configuration]:
    """Successor configurations reached by firing ``action`` at ``c``.

    The empty set means the action is not enabled.  A configuration that does
    not belong to the system raises SystemMismatchError instead.
    """
    p, cfg = pack_configuration(s, c)
    return frozenset(p.decode(nxt) for act, nxt in _successors(p, cfg)[0] if act == action)


def enabled_actions(s: CommunicatingSystem, c: Configuration) -> frozenset[Action]:
    """Exactly the actions with at least one successor at ``c``."""
    p, cfg = pack_configuration(s, c)
    return frozenset(act for act, _ in _successors(p, cfg)[0])


def violations(s: CommunicatingSystem, c: Configuration) -> int:
    """The bits (``DEADLOCK``, ``ORPHAN_MESSAGE``, ``UNSPECIFIED_RECEPTION``)
    of the safety properties ``c`` violates."""
    return _successors(*pack_configuration(s, c))[2]


Edge = tuple[Configuration, Action, Configuration]
Path = tuple[tuple[Action, Configuration], ...]


@dataclass(frozen=True, eq=False)
class ExplorationResult:
    """Bounded reachability closure plus how it was cut off.

    ``frontier_truncated`` reports that some enabled send was suppressed at
    the buffer bound; ``state_budget_exhausted`` that the walk was aborted at
    the state budget.  Either flag makes the reachable set an
    under-approximation.

    The walk's own record stays packed: ``packed_parents`` maps each explored
    configuration, in breadth-first discovery order, to the stored
    configuration that first reached it (``None`` for the initial one), and
    ``first_violations`` maps each safety property's bit to its first
    violating configuration in that order; ``edge_count`` counts the steps
    the walk took between explored configurations.  No action is stored:
    ``_action`` recovers a step's where a view needs it.  The views decode:
    ``witness`` one path, ``trace_to`` none, and ``discovery_order``, from
    which ``reachable``, ``parents`` and ``transition_edges`` derive, all.
    """

    frontier_truncated: bool
    max_buffer_bound: int
    state_budget_exhausted: bool
    packed_parents: dict[Packed, Optional[Packed]] = field(repr=False)
    edge_count: int
    packing: PackedSystem = field(repr=False)
    first_violations: dict[int, Packed] = field(repr=False)

    @cached_property
    def parents(self) -> dict[Configuration, Optional[tuple[Configuration, Action]]]:
        """Each explored configuration, in discovery order, with the
        configuration and action that first reached it."""
        decoded = dict(zip(self.packed_parents, self.discovery_order))
        return {decoded[cfg]: None if parent is None else (decoded[parent], self._action(parent, cfg))
                for cfg, parent in self.packed_parents.items()}

    @property
    def initial(self) -> Configuration:
        return self.packing.decode(next(iter(self.packed_parents)))

    @property
    def configuration_count(self) -> int:
        return len(self.packed_parents)

    @property
    def reachable(self) -> frozenset[Configuration]:
        return frozenset(self.discovery_order)

    @property
    def discovery_order(self) -> tuple[Configuration, ...]:
        return tuple(map(self.packing.decode, self.packed_parents))

    @property
    def transition_edges(self) -> frozenset[Edge]:
        """Every bounded step between explored configurations, recomputed on
        demand.  Unless the state budget was exhausted, these are exactly the
        ``edge_count`` steps the walk took."""
        decoded = dict(zip(self.packed_parents, self.discovery_order))
        return frozenset(
            (decoded[cfg], act, decoded[nxt])
            for cfg in self.packed_parents
            for act, nxt in _successors(self.packing, cfg, self.max_buffer_bound)[0]
            if nxt in decoded
        )

    @property
    def complete(self) -> bool:
        return not (self.frontier_truncated or self.state_budget_exhausted)

    def _action(self, parent: Packed, child: Packed) -> Action:
        """The action of the recorded step from ``parent`` to ``child``: the
        first of ``parent``'s successors at the walk's bound that reaches it.
        Exact, since a step appends its message to one buffer (a send) or
        takes it off the head (a receive): the slot, the length and the code
        fix the action, so no two actions at ``parent`` reach one child."""
        return next(act for act, nxt in _successors(self.packing, parent, self.max_buffer_bound)[0]
                    if nxt == child)

    def _packed_path_to(self, target: Packed) -> list[tuple[Action, Packed]]:
        """The breadth-first path to the explored ``target``: each step's
        action and the configuration it reaches."""
        out = []
        cfg = target
        while (parent := self.packed_parents[cfg]) is not None:
            out.append((self._action(parent, cfg), cfg))
            cfg = parent
        return out[::-1]

    def witness(self, bit: int) -> Optional[tuple[Path, Configuration]]:
        """The breadth-first path to the first configuration that violates
        the safety property ``bit`` (each step's action and the configuration
        it reaches), and that configuration; None when no explored
        configuration violates it."""
        target = self.first_violations.get(bit)
        if target is None:
            return None
        decode = self.packing.decode
        path = tuple((act, decode(cfg)) for act, cfg in self._packed_path_to(target))
        return path, path[-1][1] if path else decode(target)

    def trace_to(self, target: Configuration) -> tuple[Action, ...]:
        """An action sequence leading from the initial configuration to ``target``."""
        try:
            cfg = self.packing.encode(target)
        except SystemMismatchError:
            cfg = None
        if cfg not in self.packed_parents:
            raise SystemMismatchError("target configuration is not connected to the initial one")
        return tuple(act for act, _ in self._packed_path_to(cfg))


def explore(s: CommunicatingSystem, max_buffer_bound: int = 4,
            max_states: int = 1_000_000, jobs: int = 1) -> ExplorationResult:
    """Breadth-first closure of the initial configuration under ``step``.

    Sends into a full buffer are suppressed (flagging ``frontier_truncated``)
    and the walk aborts, flagging ``state_budget_exhausted``, rather than
    admit more than ``max_states`` configurations.  Violations are noted as
    configurations are expanded, and, after an aborted walk, for those never
    expanded.  ``jobs`` is accepted for compatibility and ignored.
    """
    if max_buffer_bound < 1 or max_states < 1:
        raise ValueError("bounds must be at least 1")
    p = PackedSystem(s)
    parents: dict[Packed, Optional[Packed]] = {p.initial: None}
    first: dict[int, Packed] = {}

    def note(flags: int, cfg: Packed) -> None:
        first.update((bit, cfg) for bit in (DEADLOCK, ORPHAN_MESSAGE, UNSPECIFIED_RECEPTION)
                     if flags & bit and bit not in first)

    edges = 0
    truncated = False
    exhausted = False
    frontier: list[Packed] = [p.initial]
    while frontier and not exhausted:
        next_frontier: list[Packed] = []
        for i, cfg in enumerate(frontier):
            succ, cut, flags = _successors(p, cfg, max_buffer_bound)
            truncated = truncated or cut
            if flags:
                note(flags, cfg)
            for _, nxt in succ:
                if nxt not in parents:
                    if len(parents) >= max_states:
                        exhausted = True
                        break
                    parents[nxt] = cfg
                    next_frontier.append(nxt)
                edges += 1
            if exhausted:
                # Admitted but never expanded, in discovery order.
                for late in frontier[i + 1:] + next_frontier:
                    note(_successors(p, late)[2], late)
                break
        frontier = next_frontier
    return ExplorationResult(
        frontier_truncated=truncated,
        max_buffer_bound=max_buffer_bound,
        state_budget_exhausted=exhausted,
        packed_parents=parents,
        edge_count=edges,
        packing=p,
        first_violations=first,
    )


# ---------------------------------------------------------------------------
# System file format
# ---------------------------------------------------------------------------

def system_to_doc(s: CommunicatingSystem) -> dict:
    return {"machines": [machine_to_doc(s[r]) for r in s.roles]}


def serialize_system(s: CommunicatingSystem) -> str:
    return json.dumps(system_to_doc(s), indent=2) + "\n"


def system_from_doc(doc: object) -> CommunicatingSystem:
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
    return system_from_doc(parse_json_document(text))
