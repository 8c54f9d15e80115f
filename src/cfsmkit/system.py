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

Steps of two roles that share no channel commute, so the walk, one queue of
steps, gives the configuration each step reaches a sleep set of roles
(Godefroid and Wolper, 1991): it neither judges nor builds a move of a
sleeping role, whose successor another ordering of the same steps has
already reached, and carries that role's enabled steps, as bits, to count
them.  It visits the same configurations in the same order, counts the same
steps and finds the same first violations; see ``explore`` for the rule and
why it is safe.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
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
    Transition,
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
        # Keyed by role name: the roles are the machines' own subjects.
        table: dict[str, Cfsm] = {}
        for key, m in machines.items():
            name = key.name if isinstance(key, Role) else key
            if m.subject.name != name:
                raise InvalidSystemError(f"machine for {name} has subject {m.subject}")
            table[name] = m
        for m in table.values():
            for other in m.roles_mentioned():
                if other.name not in table:
                    raise InvalidSystemError(
                        f"machine for {m.subject} mentions role {other}, which has no machine"
                    )
        self._machines = table
        self._roles: tuple[Role, ...] = tuple(sorted(m.subject for m in table.values()))

    @property
    def roles(self) -> tuple[Role, ...]:
        return self._roles

    @property
    def machines(self) -> dict[Role, Cfsm]:
        return {m.subject: m for m in self._machines.values()}

    def __getitem__(self, role: RoleLike) -> Cfsm:
        name = role.name if isinstance(role, Role) else role
        try:
            return self._machines[name]
        except KeyError:
            raise SystemMismatchError(f"system has no machine for role {name}") from None

    def __contains__(self, role: object) -> bool:
        return (role.name if isinstance(role, Role) else role) in self._machines

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
        import hashlib  # deferred: libcrypto costs 3.8 MB, and only a witness needs it
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


#: The separator before each channel slot of a packed configuration.
SEP = "\x00"

#: A packed configuration: the control string, then ``SEP`` and one string of
#: message codes per channel slot (see ``PackedSystem``).
Packed = str

#: One move of a row, (action, target, is_send, slot, code, role, step, sleep)
#: with the machine's own ``Action``, the target's control string, the role's
#: bit, the move's step bit and its successor's sleep set; and the row of a
#: control string and sleep set, (moves, mask, final), which holds the moves
#: of the awake roles only: a sleeping role's steps, cut sends and blocked
#: receives are those of the configuration where it was last awake (see
#: ``PackedSystem``).
Move = tuple[Action, str, bool, int, str, int, int, int]
Row = tuple[tuple[Move, ...], int, bool]

#: The bits of the safety properties a configuration violates, as the third
#: value of ``_successors`` reports them.
DEADLOCK = 1
ORPHAN_MESSAGE = 2
UNSPECIFIED_RECEPTION = 4

#: The buffer bound and the state budget of a walk when none is given.
DEFAULT_BOUND = 4
DEFAULT_MAX_STATES = 1_000_000


class PackedSystem:
    """A system in the flat form exploration works on.

    A packed configuration is one string, so that it hashes and compares in
    C, caches its hash and is never tracked by the cyclic GC.  It starts with
    the control string, one character per role: the index ``i`` of the role's
    state in ``states[r]`` (the machine's states, sorted), as ``chr(1 + i)``.
    Then comes, once per channel of ``channels`` in sorted order, ``SEP``
    followed by that channel's buffer, one character per message: the code of
    its label, the label's position ``i`` in the sorted labels as
    ``chr(1 + i)``.  So ``cfg.split(SEP)`` is the control string followed by
    the buffers, buffer ``k`` at slot ``k``.  Keys hold indices, never names,
    and no code is ``SEP``; with more than 127 states or labels the
    characters leave ASCII and the keys get wider, not ambiguous.

    ``rows`` is the one table of the engine.  It maps each pair of a control
    string and a sleep set (see ``explore``) met so far to its ``row``, built
    the first time a walk meets the pair; with an empty sleep set, as every
    call outside ``explore`` has, the key is the control string alone.  A row
    lists the outgoing transitions of each awake role in role order, each in
    its machine's canonical order (``Cfsm.outgoing``'s), as moves
    ``(action, target, is_send, slot, code, role, step, sleep)``; a sleeping
    role has none.  ``target`` is the control string the move leads to,
    ``role`` the role's bit ``1 << r`` (so ``role - 1`` is the bits of the
    roles before it) and ``action`` the machine's own ``Action``.  The row's
    ``mask``, the bits of the roles whose state is receiving (it has moves
    and none of them sends), and ``final``, whether no role has a move,
    describe the whole control string, sleeping roles included.
    ``_successors`` is the only code that reads rows to judge a
    configuration.

    A sleeping role need not be judged: it is neither the role that stepped
    nor the other end of that step's channel, so it has the state and the
    buffers it had when it was last awake, and with them the same enabled
    steps, the same sends cut at the bound and the same blocked receives,
    which that configuration, explored earlier, already judged.  Only its
    enabled steps are carried, as bits, for the walk to count.  A sleep set
    of role bits ``m`` is held spread, as ``m * rep``: ``rep`` has bit
    ``n·j`` for each index ``j`` below the largest number of transitions
    leaving one state, with ``n`` roles, and the ``j``-th move of role ``r``
    in its state has the step bit ``1 << (n·j + r)``.  So ``bits & sleep``
    keeps exactly the step bits of the sleeping roles, and ``sleep & full``
    is the set of roles.  ``keeps[slot]`` is every role bit but those of the
    two ends of channel ``slot``, and a move's ``sleep``, the set its
    successor inherits, is ``((asleep | role - 1) & keeps[slot]) * rep``.
    With two roles, each channel joins both, so no role can ever sleep:
    ``keeps`` is empty, ``rep`` is 0, and so is every step bit and every
    sleep set.

    ``__init__`` numbers channels, labels and states and groups each
    machine's transitions by source state, once; a row resolves the groups
    of its roles' states into slots, codes and target controls and sorts
    them, so rows are the only table a walk builds.  These tables belong to
    the packing, so they live for one walk and a machine holds only its
    definition.

    The channels are those some transition uses, and the labels those of the
    machines' alphabets, plus those of ``extra``'s buffers, so that a
    configuration given at the API boundary keeps a buffer on a channel, or a
    label, that no transition uses.
    """

    def __init__(self, s: CommunicatingSystem, extra: Optional[Configuration] = None):
        self.roles = roles = s.roles
        machines = [s._machines[r.name] for r in roles]
        # Keyed by names: string keys hash and compare in C.
        channels: dict[tuple[str, str], Channel] = {}
        # Per role, the transitions leaving each state, by the state's name:
        # a row resolves only those of the states it meets.
        self._leaving: list[dict[str, list[Transition]]] = [{} for _ in roles]
        for machine, leaving in zip(machines, self._leaving):
            for t in machine.transitions:
                ch = t[1].channel
                channels[ch.sender.name, ch.receiver.name] = ch
                leaving.setdefault(t[0], []).append(t)
        messages = {m.label: m for machine in machines for m in machine.messages}
        if extra is not None:
            for ch, msgs in extra.buffers:
                channels[ch.sender.name, ch.receiver.name] = ch
                for m in msgs:
                    messages.setdefault(m.label, m)
        channel_keys = sorted(channels)
        self.channels = tuple([channels[key] for key in channel_keys])
        self._slots = {key: 1 + k for k, key in enumerate(channel_keys)}
        self.full = (1 << len(roles)) - 1
        self.keeps: list[int] = []
        self.rep = 0
        # A channel joins two roles, so only a system of three or more has a
        # role that a step can leave asleep.  By slot, every role bit but
        # those of the channel's two ends (slot 0 is the control string).  A
        # channel of ``extra``'s buffers may name a role outside ``s``, which
        # ``encode`` rejects.
        if len(roles) > 2:
            bits = {machine.subject.name: 1 << r for r, machine in enumerate(machines)}
            self.keeps = [0] + [~(bits.get(a, 0) | bits.get(b, 0)) for a, b in channel_keys]
            width = max((len(ts) for leaving in self._leaving for ts in leaving.values()),
                        default=0)
            self.rep = sum(1 << len(roles) * j for j in range(width))
        labels = sorted(messages)
        self._codes = codes = {label: chr(i) for i, label in enumerate(labels, 1)}
        self._messages = {codes[label]: messages[label] for label in labels}
        self.states = [tuple(sorted(machine.states)) for machine in machines]
        # Per role, each state's character in the control string.
        self._controls = [{q: chr(i) for i, q in enumerate(states, 1)} for states in self.states]
        self.initial: Packed = "".join(
            [controls[machine.initial] for controls, machine in zip(self._controls, machines)]
        ) + SEP * len(self.channels)
        self.rows: dict[str | tuple[str, int], Row] = {}

    def row(self, control: str, sleep: int = 0) -> Row:
        """Build and store in ``rows`` the row of control string ``control``
        under the spread sleep set ``sleep``, from the transitions of each
        role's state in it."""
        moves: list[Move] = []
        mask = 0
        final = True
        n, rep, keeps, asleep = len(control), self.rep, self.keeps, sleep & self.full
        slots, codes, SEND = self._slots, self._codes, Direction.SEND
        for r, (q, leaving, states, controls) in enumerate(
                zip(control, self._leaving, self.states, self._controls)):
            # Slots, codes and control characters number channels, labels and
            # states in name order, and a role only sends or only receives on
            # a channel, so this is ``transition_sort_key``'s order.
            exits = sorted([(slots[ch.sender.name, ch.receiver.name], act.direction is SEND,
                             codes[act.message.label], controls[dst], act)
                            for _, act, dst in leaving.get(states[ord(q) - 1], ())
                            for ch in (act.channel,)])
            if not exits:  # a final state: no moves, not receiving
                continue
            final = False
            role = receiving = 1 << r
            if role & asleep:  # no moves, but it still counts in ``mask``
                if not any(is_send for _, is_send, _, _, _ in exits):
                    mask |= role
                continue
            head, tail, step = control[:r], control[r + 1:], rep and role
            for slot, is_send, code, dst, act in exits:
                if is_send:
                    receiving = 0
                moves.append((act, head + dst + tail, is_send, slot, code, role, step,
                              rep and ((asleep | role - 1) & keeps[slot]) * rep))
                step <<= n
            mask |= receiving
        row = self.rows[(control, sleep) if sleep else control] = (tuple(moves), mask, final)
        return row

    def decode(self, cfg: Packed) -> Configuration:
        """The public, canonical form of a packed configuration."""
        parts = cfg.split(SEP)
        states = []
        for names, q in zip(self.states, parts[0]):
            states.append(names[ord(q) - 1])
        messages = self._messages
        return Configuration(
            tuple(zip(self.roles, states)),
            tuple((ch, tuple(map(messages.__getitem__, buf)))
                  for ch, buf in zip(self.channels, parts[1:]) if buf),
        )

    def encode(self, c: Configuration) -> Packed:
        """The packed form of ``c``; SystemMismatchError when ``c`` does not
        belong to the system or has no packed form here."""
        # Keyed by role names, which hash in C where roles hash in Python.
        controls = {role.name: table for role, table in zip(self.roles, self._controls)}
        for role, q in c.control:
            if role.name not in controls:
                raise SystemMismatchError(f"configuration mentions unknown role {role}")
            if q not in controls[role.name]:
                raise SystemMismatchError(f"state {q!r} is not a state of machine {role}")
        missing = controls.keys() - {role.name for role, _ in c.control}
        if missing:
            raise SystemMismatchError(f"configuration lacks control states for {sorted(missing)}")
        for ch, _ in c.buffers:
            if ch.sender.name not in controls or ch.receiver.name not in controls:
                raise SystemMismatchError(f"configuration buffers unknown channel {ch}")
        if tuple(role for role, _ in c.control) != self.roles:
            raise SystemMismatchError("configuration control is not one state per role in role order")
        parts = ["".join([table[q] for table, (_, q) in zip(self._controls, c.control)])]
        parts += [""] * len(self.channels)
        codes = self._codes
        try:
            for ch, msgs in c.buffers:
                parts[self._slots[ch.sender.name, ch.receiver.name]] = "".join(
                    codes[m.label] for m in msgs)
        except KeyError:
            raise SystemMismatchError(f"configuration {c} does not fit the system") from None
        return SEP.join(parts)


def pack_configuration(s: CommunicatingSystem, c: Configuration) -> tuple[PackedSystem, Packed]:
    """Pack ``s`` and ``c``, or raise SystemMismatchError when ``c`` does not
    belong to ``s``.  A buffer on a channel that no transition uses gets a
    slot of its own, so steps carry it through unchanged."""
    packed = PackedSystem(s, c)
    return packed, packed.encode(c)


def _successors(p: PackedSystem, cfg: Packed, bound: float = math.inf, asleep: int = 0,
                bits: int = 0) -> tuple[list[tuple[Action, Packed, int, int]], bool, int]:
    """Every step from ``cfg`` of a role awake in the spread sleep set
    ``asleep`` as ``(action, successor, sleep, carried)``, in row order (one
    action may have several targets when the machine is nondeterministic),
    whether such a send was suppressed because its buffer already held
    ``bound`` messages, and the bits of the safety properties (see
    ``safety``) ``cfg`` violates.

    ``sleep`` is the sleep set the successor inherits (see
    ``PackedSystem``) and ``carried`` is ``bits & sleep`` once the step's
    bit is in ``bits`` (see ``explore``).  A sleeping role is not judged: its
    moves are not in the row, and it counts as not blocked.  This is safe
    within ``explore``, which gives ``bits`` the sleeping roles' enabled
    steps carried from the parent: a sleeping role has the state and buffers
    it had where it was last awake, an ancestor explored earlier, so (1) its
    enabled steps are the ones carried, (2) a send of it cut at the bound
    was cut, and flagged, there, and (3) if it is blocked, it was blocked
    there, so that ancestor is a configuration that violates unspecified
    reception earlier in discovery order.  With no sleep set, as ``step``,
    ``enabled_actions``, witnesses and the recount of an aborting walk call
    it, every role is judged and every step listed.  With bound 0, as
    ``violations`` and ``explore`` (for configurations admitted but never
    expanded) call it, every send is cut and a receive that could fire is
    judged but not taken: every role is judged and no successor is built.

    One pass over the row does it all: ``cfg`` is split once into its parts,
    and each successor is those parts joined with the move's target control
    and its one changed buffer.  A receiving role is blocked unless one of
    its receives faces an empty buffer or one headed by its message; such a
    receive sets the role's bit in ``free``, which starts as the sleep set,
    so some awake receiving role is blocked exactly when ``free`` misses a
    bit of the row's mask.  When every role is final, a queued message is
    an orphan; with every role receiving and every buffer empty, the
    configuration is a deadlock."""
    out: list[tuple[Action, Packed, int, int]] = []
    truncated = False
    parts = cfg.split(SEP)
    control = parts[0]
    moves, mask, final = p.rows.get((control, asleep) if asleep else control) or p.row(
        control, asleep)
    free = asleep
    for action, target, is_send, slot, code, role, step, sleep in moves:
        buf = parts[slot]
        if is_send:
            if len(buf) >= bound:
                truncated = True
                continue
            parts[slot] = buf + code
        elif not buf:
            free |= role
            continue
        elif buf[0] == code:
            free |= role
            if not bound:
                continue
            parts[slot] = buf[1:]
        else:
            continue
        bits |= step
        parts[0] = target
        out.append((action, SEP.join(parts), sleep, bits & sleep))
        parts[slot] = buf
    if final:
        flags = ORPHAN_MESSAGE * (len(cfg) > len(p.initial))
    else:
        flags = DEADLOCK * (mask == p.full and len(cfg) == len(p.initial))
    flags |= UNSPECIFIED_RECEPTION * (free & mask != mask)
    return out, truncated, flags


def step(s: CommunicatingSystem, c: Configuration, action: Action) -> frozenset[Configuration]:
    """Successor configurations reached by firing ``action`` at ``c``.

    The empty set means the action is not enabled.  A configuration that does
    not belong to the system raises SystemMismatchError instead.
    """
    p, cfg = pack_configuration(s, c)
    return frozenset(p.decode(nxt) for act, nxt, _, _ in _successors(p, cfg)[0] if act == action)


def enabled_actions(s: CommunicatingSystem, c: Configuration) -> frozenset[Action]:
    """Exactly the actions with at least one successor at ``c``."""
    p, cfg = pack_configuration(s, c)
    return frozenset(act for act, _, _, _ in _successors(p, cfg)[0])


def violations(s: CommunicatingSystem, c: Configuration) -> int:
    """The bits (``DEADLOCK``, ``ORPHAN_MESSAGE``, ``UNSPECIFIED_RECEPTION``)
    of the safety properties ``c`` violates."""
    p, cfg = pack_configuration(s, c)
    return _successors(p, cfg, 0)[2]


Path = tuple[tuple[Action, Configuration], ...]


@dataclass(frozen=True, eq=False)
class ExplorationResult:
    """The record of one bounded breadth-first walk, and how it was cut off.

    ``frontier_truncated`` reports that some enabled send was suppressed at
    the buffer bound; ``state_budget_exhausted`` that the walk was aborted at
    the state budget.  Either flag makes the reachable set an
    under-approximation; ``complete`` is neither.

    The record stays packed, each configuration held once as one key string
    of ``packing``.  ``packed_parents`` maps each explored configuration's
    key, in breadth-first discovery order, to the stored key of the
    configuration that first reached it (``None`` for the initial one, which
    comes first); ``configuration_count`` is its size.  ``first_violations``
    maps each safety property's bit to its first violating key in that
    order.  ``edge_count`` counts the steps the walk took, built or skipped
    (see ``explore``): every step of every explored configuration when the
    walk ran to its end, and when the state budget was exhausted only the
    steps before the abort, which in the aborting configuration are those
    before the refused step in row order.

    No action or edge is stored.  The views decode on demand:
    ``discovery_order``, and ``reachable`` from it, every configuration;
    ``witness`` one breadth-first path and its end; ``trace_to`` the actions
    of one.  A path recovers each step's action from the parent's successors.
    """

    frontier_truncated: bool
    max_buffer_bound: int
    state_budget_exhausted: bool
    packed_parents: dict[Packed, Optional[Packed]] = field(repr=False)
    edge_count: int
    packing: PackedSystem = field(repr=False)
    first_violations: dict[int, Packed] = field(repr=False)

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
    def complete(self) -> bool:
        return not (self.frontier_truncated or self.state_budget_exhausted)

    def _packed_path_to(self, target: Packed) -> list[tuple[Action, Packed]]:
        """The breadth-first path to the explored ``target``: each step's
        action and the configuration it reaches."""
        out = []
        cfg = target
        while (parent := self.packed_parents[cfg]) is not None:
            # A step appends its message to one buffer (a send) or takes it
            # off the head (a receive): the slot, the length and the code fix
            # the action, so exactly one of the parent's successors at the
            # walk's bound reaches ``cfg``.
            succ = _successors(self.packing, parent, self.max_buffer_bound)[0]
            out.append((next(act for act, nxt, _, _ in succ if nxt == cfg), cfg))
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
        """An action sequence leading from the initial configuration to
        ``target``; SystemMismatchError, naming the fault, when ``target`` does
        not belong to the system or the walk did not reach it."""
        cfg = self.packing.encode(target)
        if cfg not in self.packed_parents:
            raise SystemMismatchError("target configuration is not connected to the initial one")
        return tuple(act for act, _ in self._packed_path_to(cfg))


def explore(s: CommunicatingSystem, max_buffer_bound: int = DEFAULT_BOUND,
            max_states: int = DEFAULT_MAX_STATES, jobs: int = 1) -> ExplorationResult:
    """Breadth-first closure of the initial configuration under ``step``.

    Sends into a full buffer are suppressed (flagging ``frontier_truncated``)
    and the walk aborts, flagging ``state_budget_exhausted``, rather than
    admit more than ``max_states`` configurations.  Violations are noted as
    configurations are expanded, and, after an aborted walk, for those never
    expanded.  ``jobs`` is accepted for compatibility and ignored.

    The walk is one first-in first-out queue of steps: an entry is the step
    that admitted its configuration, with its sleep set of roles and the
    step bits of its sleeping roles' enabled steps (see ``PackedSystem``).
    When ``s`` reaches a child by a step ``b`` of role ``B`` on channel
    ``k``, the child's sleep set is ``asleep(s)`` and the roles before
    ``B``, less ``B`` and the other end of ``k``, and its step bits are
    ``s``'s for those roles, ``bits & sleep`` as ``_successors`` lists
    ``b``.  That is final: the roles before ``B`` have all their moves
    before ``B``'s in the row, and those asleep at ``s`` came in with
    ``bits``.  A sleeping role's moves are neither judged nor built, and
    the walk counts a configuration's steps as those listed plus those
    carried.

    The invariant: a skipped step leads to a configuration already in
    ``parents`` when its source is expanded.  A slot has one sender and one
    receiver, so two steps of roles that share no channel touch different
    buffers: each stays enabled, or cut at the bound, after the other, and
    both orders end in one configuration.  Let ``A`` be asleep at ``s·b``
    with a step ``a``; ``A`` is neither ``B`` nor ``k``'s other end, so
    ``a`` is a step of ``s`` too.  Either ``A`` was asleep at ``s``, so
    ``s·a`` was in ``parents`` already, or ``A`` comes before ``B`` in the
    row, so ``s`` reached ``s·a`` before ``s·b``.  Either way ``s·a`` is
    expanded before ``s·b``, and that expansion reaches ``s·a·b = s·b·a``
    or, ``B`` being asleep there, finds it in ``parents``.

    Not judging ``A`` at ``s·b`` is observably the same.  ``A`` has the
    same control character and the same slots at ``s·b`` as at ``s``, and
    so back to the ancestor where it was last awake, which the walk
    expanded earlier (the initial configuration has every role awake).
    (1) ``A``'s enabled steps at ``s·b`` are its enabled steps at ``s``,
    so their bits carry and ``edge_count`` counts them.  (2) A send of
    ``A`` cut at the bound was already cut, and ``frontier_truncated``
    already set, at that ancestor.  (3) If ``A`` is a blocked receiving
    role, it was blocked at that ancestor too, which comes earlier in
    discovery order and was noted as violating unspecified reception; so
    treating a sleeping role as never blocked leaves every first violator
    as it is, and the first one is always found among awake roles.  A
    deadlock and an orphan message depend only on the whole control string
    and on whether every buffer is empty, which rows still describe.

    So the walk admits the same configurations in the same order with the
    same parents as one that builds every step, and ``edge_count`` counts
    every step of every expanded configuration.  When the budget refuses a
    configuration, only the steps of its source that come before the
    refused one in row order count: the source's steps are listed again
    with no sleep set, and the refused one is the first of them not in
    ``parents``.  The queue then holds, in discovery order, the
    configurations admitted but never expanded, each judged at bound 0.
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
    queue: deque[tuple[Optional[Action], Packed, int, int]] = deque([(None, p.initial, 0, 0)])
    while queue:
        _, cfg, asleep, carried = queue.popleft()
        succ, cut, flags = _successors(p, cfg, max_buffer_bound, asleep, carried)
        truncated = truncated or cut
        if flags:
            note(flags, cfg)
        for entry in succ:
            if entry[1] not in parents:
                if len(parents) >= max_states:
                    exhausted = True
                    break
                parents[entry[1]] = cfg
                queue.append(entry)
        if exhausted:
            steps = _successors(p, cfg, max_buffer_bound)[0]
            edges += next(n for n, (_, nxt, _, _) in enumerate(steps) if nxt not in parents)
            # Admitted but never expanded, in discovery order.
            for _, late, _, _ in queue:
                note(_successors(p, late, 0)[2], late)
            break
        edges += len(succ) + carried.bit_count()
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
