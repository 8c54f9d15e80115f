"""Core model of communicating finite-state machines.

A machine belongs to one role and steps through states by sending or
receiving messages over directed point-to-point channels.  Besides the data
model, this module holds the state classification and the per-message
send/receive determinism predicates that the interface-compatibility check
builds on, plus the JSON machine format used by the command-line tool and a
DOT export for visual inspection.

All types are immutable value objects; they hash and compare structurally and
are safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union


class CfsmError(Exception):
    """Base class for errors raised by the machine model."""


class InvalidMachineError(CfsmError):
    """A machine definition violates a structural invariant."""


class UnknownStateError(CfsmError):
    """A state identifier does not belong to the machine."""


class MachineFormatError(CfsmError):
    """A serialized machine document is malformed."""


# The value types below precompute their hash: building machines and systems
# (transition sets, alphabets, role and channel lookups) hashes them often.
# Exploration hashes none of them: it stores ints and strings of message codes
# (see ``system.PackedSystem``).  Equality stays structural.

@dataclass(frozen=True, slots=True, order=True)
class Role:
    """A participant name; two roles are identical iff their names are equal."""

    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidMachineError("role name must be a nonempty string")
        object.__setattr__(self, "_hash", hash(self.name))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True, order=True)
class Message:
    """A message label, compared by exact equality."""

    label: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.label:
            raise InvalidMachineError("message label must be a nonempty string")
        object.__setattr__(self, "_hash", hash(self.label))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.label


RoleLike = Union[Role, str]
MessageLike = Union[Message, str]


def as_role(r: RoleLike) -> Role:
    return r if isinstance(r, Role) else Role(r)


def as_message(m: MessageLike) -> Message:
    return m if isinstance(m, Message) else Message(m)


@dataclass(frozen=True, slots=True, order=True)
class Channel:
    """Directed channel carrying messages from ``sender`` to ``receiver``."""

    sender: Role
    receiver: Role
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise InvalidMachineError(
                f"channel endpoints must differ, got {self.sender}->{self.receiver}"
            )
        object.__setattr__(self, "_hash", hash((self.sender.name, self.receiver.name)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.sender}{self.receiver}"


class Direction(str, Enum):
    SEND = "!"
    RECEIVE = "?"

    def flipped(self) -> "Direction":
        return Direction.RECEIVE if self is Direction.SEND else Direction.SEND


@dataclass(frozen=True, slots=True, order=True)
class Action:
    """A send (``sr!a``) or receive (``sr?a``) of message ``a`` on channel ``sr``."""

    channel: Channel
    direction: Direction
    message: Message
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.channel, self.direction, self.message)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.channel}{self.direction.value}{self.message}"

    @property
    def subject(self) -> Role:
        """The role performing the action: the sender of a send, the receiver of a receive."""
        return self.channel.sender if self.direction is Direction.SEND else self.channel.receiver

    @staticmethod
    def send(sender: RoleLike, receiver: RoleLike, message: MessageLike) -> "Action":
        return Action(Channel(as_role(sender), as_role(receiver)), Direction.SEND, as_message(message))

    @staticmethod
    def receive(sender: RoleLike, receiver: RoleLike, message: MessageLike) -> "Action":
        return Action(Channel(as_role(sender), as_role(receiver)), Direction.RECEIVE, as_message(message))


#: A machine transition: (source state, action, target state).
Transition = tuple[str, Action, str]


def transition_sort_key(t: Transition):
    src, act, dst = t
    return (src, act.channel.sender.name, act.channel.receiver.name,
            act.direction.value, act.message.label, dst)


@dataclass(frozen=True)
class Cfsm:
    """A finite transition system over the send/receive actions of one role.

    Every state is accepting; a machine therefore recognizes a prefix-closed
    language over its actions.  Every transition must involve the subject
    role: sends originate from it, receives are addressed to it.
    """

    subject: Role
    states: frozenset[str]
    initial: str
    messages: frozenset[Message]
    transitions: frozenset[Transition]

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise InvalidMachineError(f"initial state {self.initial!r} not among the states")
        for q in self.states:
            if not isinstance(q, str) or not q:
                raise InvalidMachineError(f"state identifiers must be nonempty strings, got {q!r}")
        for src, act, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise InvalidMachineError(f"transition {src!r} -> {dst!r} leaves the state set")
            if act.message not in self.messages:
                raise InvalidMachineError(f"transition message {act.message} not in the machine alphabet")
            if act.subject != self.subject:
                raise InvalidMachineError(
                    f"transition {src} -{act}-> {dst} does not involve subject {self.subject}"
                )

    @staticmethod
    def make(subject: RoleLike, initial: str,
             transitions: Iterable[Transition] = (),
             extra_states: Iterable[str] = (),
             messages: Optional[Iterable[MessageLike]] = None) -> "Cfsm":
        """Build a machine, deriving states and alphabet from the transitions."""
        trs = frozenset(transitions)
        states = {initial} | set(extra_states)
        for src, _, dst in trs:
            states.add(src)
            states.add(dst)
        if messages is None:
            msgs = frozenset(act.message for _, act, _ in trs)
        else:
            msgs = frozenset(as_message(m) for m in messages)
        return Cfsm(as_role(subject), frozenset(states), initial, msgs, trs)

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Transition, ...]]:
        table: dict[str, list[Transition]] = {}
        for t in sorted(self.transitions, key=transition_sort_key):
            table.setdefault(t[0], []).append(t)
        return {q: tuple(ts) for q, ts in table.items()}

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        """Transitions leaving ``state``, in canonical order."""
        if state not in self.states:
            raise UnknownStateError(f"{self.subject} has no state {state!r}")
        return self._outgoing.get(state, ())

    def roles_mentioned(self) -> frozenset[Role]:
        """All roles occurring in channels of this machine's transitions."""
        out = set()
        for _, act, _ in self.transitions:
            out.add(act.channel.sender)
            out.add(act.channel.receiver)
        return frozenset(out)

    def renamed(self, mapping: Mapping[str, str]) -> "Cfsm":
        """Relabel states through ``mapping`` (missing entries keep their name)."""
        ren = lambda q: mapping.get(q, q)
        return replace(
            self,
            states=frozenset(ren(q) for q in self.states),
            initial=ren(self.initial),
            transitions=frozenset((ren(s), a, ren(d)) for s, a, d in self.transitions),
        )


class StateKind(Enum):
    FINAL = "final"
    SENDING = "sending"
    RECEIVING = "receiving"
    MIXED = "mixed"


def classify_state(m: Cfsm, q: str) -> StateKind:
    """Classify ``q``: final (no exits), sending, receiving, or mixed."""
    outs = m.outgoing(q)
    if not outs:
        return StateKind.FINAL
    dirs = {t[1].direction for t in outs}
    if dirs == {Direction.SEND}:
        return StateKind.SENDING
    if dirs == {Direction.RECEIVE}:
        return StateKind.RECEIVING
    return StateKind.MIXED


def mixed_states(m: Cfsm) -> tuple[str, ...]:
    return tuple(q for q in sorted(m.states) if classify_state(m, q) is StateKind.MIXED)


def has_mixed_states(m: Cfsm) -> bool:
    return bool(mixed_states(m))


def _determinism_witness(m: Cfsm, direction: Direction) -> Optional[tuple[Transition, Transition]]:
    # The determinism key is (state, message): the channel is deliberately
    # ignored, so two same-direction transitions on the same message must
    # agree on the target even when they use different channels.
    seen: dict[tuple[str, Message], Transition] = {}
    for t in sorted(m.transitions, key=transition_sort_key):
        src, act, dst = t
        if act.direction is not direction:
            continue
        key = (src, act.message)
        prev = seen.get(key)
        if prev is None:
            seen[key] = t
        elif prev[2] != dst:
            return (prev, t)
    return None


def io_determinism_witness(m: Cfsm) -> Optional[tuple[Transition, Transition]]:
    return _determinism_witness(m, Direction.RECEIVE) or _determinism_witness(m, Direction.SEND)


def is_receive_deterministic(m: Cfsm) -> bool:
    return _determinism_witness(m, Direction.RECEIVE) is None


def is_send_deterministic(m: Cfsm) -> bool:
    return _determinism_witness(m, Direction.SEND) is None


def is_io_deterministic(m: Cfsm) -> bool:
    return is_receive_deterministic(m) and is_send_deterministic(m)


def is_isomorphic(a: Cfsm, b: Cfsm) -> bool:
    """Whether a state bijection maps ``a`` onto ``b``, respecting the initial
    state and carrying the transition set exactly (actions included)."""
    if a.subject != b.subject:
        return False
    if len(a.states) != len(b.states) or len(a.transitions) != len(b.transitions):
        return False

    def tables(m: Cfsm):
        outs: dict[str, list[tuple[Action, str]]] = {q: [] for q in m.states}
        ins: dict[str, list[tuple[str, Action]]] = {q: [] for q in m.states}
        for src, act, dst in m.transitions:
            outs[src].append((act, dst))
            ins[dst].append((src, act))
        return outs, ins

    a_out, a_in = tables(a)
    b_out, b_in = tables(b)

    def sig(outs, ins, q):
        return (tuple(sorted(act for act, _ in outs[q])),
                tuple(sorted(act for _, act in ins[q])))

    b_by_sig: dict[tuple, list[str]] = {}
    for q in b.states:
        b_by_sig.setdefault(sig(b_out, b_in, q), []).append(q)

    candidates: dict[str, list[str]] = {}
    for q in a.states:
        cand = b_by_sig.get(sig(a_out, a_in, q), [])
        if q == a.initial:
            cand = [c for c in cand if c == b.initial]
        if not cand:
            return False
        candidates[q] = cand

    order = sorted(a.states, key=lambda q: (len(candidates[q]), q))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(qa: str, qb: str) -> bool:
        for act, dst in a_out[qa]:
            if dst in mapping and (qb, act, mapping[dst]) not in b.transitions:
                return False
        for src, act in a_in[qa]:
            if src in mapping and (mapping[src], act, qb) not in b.transitions:
                return False
        return True

    def assign(i: int) -> bool:
        if i == len(order):
            mapped = frozenset((mapping[s], act, mapping[d]) for s, act, d in a.transitions)
            return mapped == b.transitions
        qa = order[i]
        for qb in candidates[qa]:
            if qb in used or not consistent(qa, qb):
                continue
            mapping[qa] = qb
            used.add(qb)
            if assign(i + 1):
                return True
            del mapping[qa]
            used.discard(qb)
        return False

    return assign(0)


# ---------------------------------------------------------------------------
# Machine file format (JSON) and DOT export
# ---------------------------------------------------------------------------

def machine_to_doc(m: Cfsm) -> dict:
    """Canonical document form: states and transitions sorted lexicographically."""
    return {
        "subject": m.subject.name,
        "states": sorted(m.states),
        "initial": m.initial,
        "transitions": [
            {
                "from": src,
                "to": dst,
                "channel": {"sender": act.channel.sender.name,
                            "receiver": act.channel.receiver.name},
                "dir": act.direction.value,
                "msg": act.message.label,
            }
            for src, act, dst in sorted(m.transitions, key=transition_sort_key)
        ],
    }


def machine_from_doc(doc: object) -> Cfsm:
    if not isinstance(doc, dict):
        raise MachineFormatError("machine document must be an object")
    try:
        subject = doc["subject"]
        states = doc["states"]
        initial = doc["initial"]
        raw_transitions = doc["transitions"]
    except KeyError as exc:
        raise MachineFormatError(f"machine document lacks field {exc.args[0]!r}") from None
    if not isinstance(subject, str) or not isinstance(initial, str):
        raise MachineFormatError("'subject' and 'initial' must be strings")
    if not isinstance(states, list) or not all(isinstance(q, str) for q in states):
        raise MachineFormatError("'states' must be a list of strings")
    if not isinstance(raw_transitions, list):
        raise MachineFormatError("'transitions' must be a list")
    transitions = []
    for i, rec in enumerate(raw_transitions):
        try:
            names = (rec["from"], rec["to"], rec["msg"],
                     rec["channel"]["sender"], rec["channel"]["receiver"])
            if not all(isinstance(name, str) and name for name in names):
                raise MachineFormatError(
                    f"transition #{i} is malformed: 'from', 'to', 'msg' and the channel's "
                    "'sender' and 'receiver' must be nonempty strings")
            src, dst, msg, sender, receiver = names
            act = Action(Channel(Role(sender), Role(receiver)), Direction(rec["dir"]), Message(msg))
            transitions.append((src, act, dst))
        except (KeyError, TypeError, ValueError) as exc:
            raise MachineFormatError(f"transition #{i} is malformed: {exc}") from None
        except InvalidMachineError as exc:
            raise MachineFormatError(f"transition #{i} is malformed: {exc}") from None
    try:
        messages = frozenset(act.message for _, act, _ in transitions)
        return Cfsm(Role(subject), frozenset(states), initial, messages,
                    frozenset(transitions))
    except InvalidMachineError as exc:
        raise MachineFormatError(str(exc)) from None


def serialize_machine(m: Cfsm) -> str:
    return json.dumps(machine_to_doc(m), indent=2) + "\n"


def parse_json_document(text: str) -> object:
    """The JSON document ``text`` holds; MachineFormatError when it holds none."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MachineFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise MachineFormatError("not valid JSON: nested too deeply") from None


def parse_machine(text: str) -> Cfsm:
    return machine_from_doc(parse_json_document(text))


def _dot_quote(s: str) -> str:
    return '"' + s.replace('\\', '\\\\').replace('"', '\\"') + '"'


def machine_to_dot(m: Cfsm, name: Optional[str] = None) -> str:
    """Render a machine as a DOT digraph; edges are labelled ``sr!a`` / ``sr?a``."""
    title = name if name is not None else m.subject.name
    lines = [f"digraph {_dot_quote(title)} {{", "  rankdir=LR;", "  node [shape=circle];",
             '  "__start" [shape=point, label=""];',
             f"  \"__start\" -> {_dot_quote(m.initial)};"]
    for q in sorted(m.states):
        lines.append(f"  {_dot_quote(q)};")
    for src, act, dst in sorted(m.transitions, key=transition_sort_key):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(str(act))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
