"""Gateway construction: adapting an interface machine into a forwarder.

The transformation splits every transition of an interface machine in two,
inserting a fresh state in the middle, so that the machine relays messages
between its own system and a partner role: an original send first receives
the payload from the partner and then performs the send; an original receive
performs the receive and then forwards the payload to the partner.

Inserted states are named after the transition they split, and a machine
state bearing such a name is refused.  Structurally, an inserted state has
exactly one incoming and one outgoing transition and the outgoing one is a
send, while every carried-over state only receives; ``contract`` exploits
this shape to recover the original machine.
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
    transition_sort_key,
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
    for t in sorted(m.transitions, key=transition_sort_key):
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
    return frozenset(
        q for q in g.states
        if any(t[1].direction is Direction.SEND for t in g.outgoing(q))
    )


def contract(g: Cfsm, partner: RoleLike) -> Cfsm:
    """Collapse each inserted state's in/out transition pair back into the
    original transition, undoing ``gateway(m, partner)``.

    Works structurally (from the in/out shape of inserted states), not from
    state names, and raises GatewayShapeError when the machine cannot have
    been produced by the transformation.
    """
    k = as_role(partner)
    h = g.subject
    ins = inserted_states(g)
    if g.initial in ins:
        raise GatewayShapeError("the initial state of a gateway cannot be an inserted state")

    incoming: dict[str, list[Transition]] = {q: [] for q in g.states}
    for t in g.transitions:
        incoming[t[2]].append(t)

    originals: set[Transition] = set()
    for mid in ins:
        outs = g.outgoing(mid)
        if len(outs) != 1:
            raise GatewayShapeError(f"inserted state {mid!r} must have exactly one outgoing transition")
        _, out_act, target = outs[0]
        if target in ins:
            raise GatewayShapeError(f"inserted state {mid!r} leads into another inserted state")
        if not incoming[mid]:
            raise GatewayShapeError(f"inserted state {mid!r} has no incoming transition")
        for src, in_act, _ in incoming[mid]:
            if in_act.direction is not Direction.RECEIVE or src in ins:
                raise GatewayShapeError(f"inserted state {mid!r} has a malformed incoming transition")
            if in_act.message != out_act.message:
                raise GatewayShapeError(f"inserted state {mid!r} does not forward its message")
            if in_act.channel.sender == k:
                # Forwarded send: the outgoing leg is the original action.
                if out_act.channel.receiver == k:
                    raise GatewayShapeError(f"inserted state {mid!r} bounces the message back to {k}")
                originals.add((src, out_act, target))
            else:
                # Original receive: the outgoing leg must hand off to the partner.
                if out_act.channel.receiver != k or out_act.channel.sender != h:
                    raise GatewayShapeError(f"inserted state {mid!r} does not forward to {k}")
                originals.add((src, in_act, target))
    return Cfsm(
        subject=h,
        states=frozenset(g.states - ins),
        initial=g.initial,
        messages=g.messages,
        transitions=frozenset(originals),
    )
