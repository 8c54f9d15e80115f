"""Interface compatibility and composition of communicating systems.

Two machines are compatible when the channel-erased language of one is the
dual of the other's, neither has a mixed state, and both are send- and
receive-deterministic per message.  Compatible interface machines of two
disjoint systems can then be replaced by their gateways, welding the systems
into one; every other machine is carried over untouched (reinterpreted over
the unioned role and message universes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .cfsm import (
    Cfsm,
    CfsmError,
    Role,
    RoleLike,
    Transition,
    as_role,
    io_determinism_witness,
    mixed_states,
)
from .gateway import gateway
from .lang import Word, dualize, erase_channels, format_word, separating_word
from .system import CommunicatingSystem


@dataclass(frozen=True)
class LanguageMismatch:
    """The erased languages are not duals; carries a separating erased word."""

    separating_word: Word

    def __str__(self) -> str:
        return f"language mismatch, separated by {format_word(self.separating_word)}"


@dataclass(frozen=True)
class MixedState:
    """A state mixing send and receive transitions."""

    role: Role
    state: str

    def __str__(self) -> str:
        return f"machine {self.role} has mixed state {self.state!r}"


@dataclass(frozen=True)
class NotIoDeterministic:
    """Two same-direction transitions on one message disagree on the target."""

    role: Role
    witness: tuple[Transition, Transition]

    def __str__(self) -> str:
        (s1, a1, d1), (s2, a2, d2) = self.witness
        return (f"machine {self.role} is not ?!-deterministic: "
                f"{s1} -{a1}-> {d1} vs {s2} -{a2}-> {d2}")


CompatibilityFailure = Union[LanguageMismatch, MixedState, NotIoDeterministic]


@dataclass(frozen=True)
class CompatibilityVerdict:
    compatible: bool
    failures: tuple[CompatibilityFailure, ...]

    def __post_init__(self) -> None:
        if self.compatible != (not self.failures):
            raise ValueError("verdict flag must match failure list")

    def __str__(self) -> str:
        if self.compatible:
            return "compatible"
        return "incompatible:\n" + "\n".join(f"  - {f}" for f in self.failures)


class CompositionError(CfsmError):
    """A composition precondition other than compatibility failed."""


class IncompatibleInterfacesError(CfsmError):
    """Composition was attempted on incompatible interface machines."""

    def __init__(self, h: Role, k: Role, verdict: CompatibilityVerdict):
        super().__init__(f"interface roles {h} and {k} are not compatible: {verdict}")
        self.h = h
        self.k = k
        self.verdict = verdict


def check_compatibility(mh: Cfsm, mk: Cfsm) -> CompatibilityVerdict:
    """Evaluate all three compatibility clauses, reporting every failure."""
    failures: list[CompatibilityFailure] = []
    word = separating_word(erase_channels(mh), dualize(erase_channels(mk)))
    if word is not None:
        failures.append(LanguageMismatch(word))
    for m in (mh, mk):
        for q in mixed_states(m):
            failures.append(MixedState(m.subject, q))
    for m in (mh, mk):
        witness = io_determinism_witness(m)
        if witness is not None:
            failures.append(NotIoDeterministic(m.subject, witness))
    return CompatibilityVerdict(not failures, tuple(failures))


def compose(s1: CommunicatingSystem, h: RoleLike,
            s2: CommunicatingSystem, k: RoleLike) -> CommunicatingSystem:
    """Union of the two systems with the interface machines replaced by their
    gateways toward each other.

    Requires disjoint role sets and compatible interface machines; the
    compatibility check is repeated here even if the caller already ran it,
    since the safety guarantees depend on it.
    """
    h = as_role(h)
    k = as_role(k)
    overlap = set(s1.roles) & set(s2.roles)
    if overlap:
        raise CompositionError(
            f"role sets must be disjoint; shared: {sorted(r.name for r in overlap)}"
        )
    if h not in s1:
        raise CompositionError(f"role {h} is not part of the first system")
    if k not in s2:
        raise CompositionError(f"role {k} is not part of the second system")
    verdict = check_compatibility(s1[h], s2[k])
    if not verdict.compatible:
        raise IncompatibleInterfacesError(h, k, verdict)

    alphabet = frozenset()
    for system in (s1, s2):
        for role in system.roles:
            alphabet |= system[role].messages

    machines: dict[Role, Cfsm] = {}
    for system, interface, partner in ((s1, h, k), (s2, k, h)):
        for role in system.roles:
            m = system[role]
            if role == interface:
                m = gateway(m, partner)
            machines[role] = replace(m, messages=alphabet)
    return CommunicatingSystem(machines)
