"""Gateway construction: adapting an interface machine into a forwarder.

The transformation splits every transition of an interface machine in two,
inserting a fresh state in the middle, so that the machine relays messages
between its own system and a partner role: an original send first receives
the payload from the partner and then performs the send; an original receive
performs the receive and then forwards the payload to the partner.

Inserted states are named after the transition they split, and a machine
state bearing such a name is refused.  Structurally, an inserted state has
exactly one incoming and one outgoing transition and the outgoing one is a
send, while every carried-over state only receives.  ``contract`` inverts
the transformation by round trip: it collapses each inserted state's two
transitions into one and accepts the result only when its gateway is
isomorphic to the machine it started from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cfsm import (
    Action,
    Cfsm,
    CfsmError,
    Direction,
    RoleLike,
    Transition,
    as_role,
    is_isomorphic,
)


class GatewayPreconditionError(CfsmError):
    """The partner role clashes with the machine being transformed."""


class GatewayShapeError(CfsmError):
    """A machine does not have the in/out shape of a gateway."""


_INSERTED_MARK = "^("


@dataclass(frozen=True)
class GatewayState:
    """Provenance of a gateway state.

    ``transition is None`` marks a state carried over from the source
    machine; otherwise the state was inserted in the middle of that
    transition and is keyed by it.
    """

    source: str
    transition: Optional[Transition] = None

    @property
    def inserted(self) -> bool:
        return self.transition is not None

    def name(self) -> str:
        if self.transition is None:
            return self.source
        src, act, dst = self.transition
        return f"{self.source}{_INSERTED_MARK}{src},{act},{dst})"


def gateway(m: Cfsm, partner: RoleLike) -> Cfsm:
    """Split each transition of ``m`` through an inserted state that forwards
    the message to or from ``partner``.

    The partner must be a fresh role: not the machine's own subject and not
    mentioned by any of its channels (composition requires disjoint systems).
    No state of ``m`` may bear an inserted state's name.
    """
    k = as_role(partner)
    h = m.subject
    if k == h:
        raise GatewayPreconditionError(f"partner role {k} is the machine's own subject")
    if k in m.roles_mentioned():
        raise GatewayPreconditionError(f"partner role {k} already occurs in the machine's channels")

    states = set(m.states)
    transitions: set[Transition] = set()
    for t in sorted(m.transitions):
        src, act, dst = t
        mid = GatewayState(src, t).name()
        if mid in states:
            raise GatewayPreconditionError(f"state {mid!r} clashes with the name of an inserted state")
        states.add(mid)
        if act.direction is Direction.SEND:
            transitions.add((src, Action.receive(k, h, act.message), mid))
            transitions.add((mid, act, dst))
        else:
            transitions.add((src, act, mid))
            transitions.add((mid, Action.send(h, k, act.message), dst))
    return Cfsm(
        subject=h,
        states=frozenset(states),
        initial=m.initial,
        messages=m.messages,
        transitions=frozenset(transitions),
    )


def inserted_states(g: Cfsm) -> frozenset[str]:
    """The gateway states inserted mid-transition.

    In a gateway, a state has an outgoing send exactly when it was inserted:
    carried-over states only receive (or are final).
    """
    return frozenset(src for src, act, _ in g.transitions if act.direction is Direction.SEND)


def contract(g: Cfsm, partner: RoleLike) -> Cfsm:
    """The machine ``m`` with ``gateway(m, partner)`` isomorphic to ``g``.

    Each inserted state's incoming and outgoing transitions collapse into
    one: an incoming receive from the partner gives way to the outgoing
    transition, any other incoming transition is kept.  When the gateway of
    the result is not isomorphic to ``g``, ``g`` cannot have been produced
    by the transformation, and GatewayShapeError is raised.
    """
    k = as_role(partner)
    ins = inserted_states(g)
    exits: dict[str, list[tuple[Action, str]]] = {q: [] for q in ins}
    for src, act, dst in g.transitions:
        if src in ins:
            exits[src].append((act, dst))
    originals = frozenset(
        (src, out_act if in_act.channel.sender == k else in_act, dst)
        for src, in_act, mid in g.transitions if mid in ins
        for out_act, dst in exits[mid]
    )
    refusal = GatewayShapeError(f"machine {g.subject} is not a gateway toward {k}")
    try:
        m = Cfsm(g.subject, g.states - ins, g.initial, g.messages, originals)
        if is_isomorphic(gateway(m, k), g):
            return m
    except CfsmError as exc:
        raise refusal from exc
    raise refusal
