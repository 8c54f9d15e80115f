"""Global types with interface roles: expression trees, validation, semantics.

An open protocol is either a base global type with some roles designated as
interfaces (stand-ins for the environment), or a connection of two open
protocols through one interface role of each.  Connected interface roles are
consumed; the remaining ones stay open.  The expression's meaning is a
communicating system: projections of the base type in the base case, and in
the composite case the composition of the two subsystems through gateways.

Construction enforces the syntactic side conditions (interface sets contained
in the role sets, connected roles actually open, disjoint role universes).
``validate_gtir`` checks the two semantic conditions on top: base expressions
must not let interface roles talk to each other, and connected interface
roles must project to compatible machines.  Validation collects every
violation instead of stopping at the first, so it doubles as a diagnostic.

Both rest on one bottom-up walk that projects each role of each base type
once and lets ``compose`` decide each connection: ``validate_gtir`` returns
the violations it met, and ``semantics`` validates and builds the system in
that one walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .cfsm import Cfsm, CfsmError, Channel, Message, Role, RoleLike, as_role
from .compose import CompatibilityVerdict, IncompatibleInterfacesError, compose
from .globaltype import (
    GlobalType,
    ParseError,
    UnknownRoleError,
    _Parser,
    parse_global_type,
    project,
    roles as type_roles,
    tokenize,
)
from .system import CommunicatingSystem


class GtirError(CfsmError):
    """An expression violates the construction rules or is used while invalid."""


class GtirExpr:
    """Base class for open-protocol expressions."""

    __slots__ = ()

    def roles(self) -> frozenset[Role]:
        raise NotImplementedError

    def interfaces(self) -> frozenset[Role]:
        raise NotImplementedError

    def components(self) -> frozenset[GlobalType]:
        raise NotImplementedError


@dataclass(frozen=True)
class Base(GtirExpr):
    """A global type with a designated set of interface roles."""

    global_type: GlobalType
    interface_roles: frozenset[Role]

    def __post_init__(self) -> None:
        extra = self.interface_roles - type_roles(self.global_type)
        if extra:
            raise GtirError(
                f"interface roles must occur in the global type; unknown: "
                f"{sorted(r.name for r in extra)}"
            )

    def roles(self) -> frozenset[Role]:
        return type_roles(self.global_type)

    def interfaces(self) -> frozenset[Role]:
        return self.interface_roles

    def components(self) -> frozenset[GlobalType]:
        return frozenset([self.global_type])


@dataclass(frozen=True)
class Connect(GtirExpr):
    """Two expressions joined through interface roles ``h`` (left) and ``k`` (right)."""

    left: GtirExpr
    h: Role
    right: GtirExpr
    k: Role

    def __post_init__(self) -> None:
        if self.h not in self.left.interfaces():
            raise GtirError(f"{self.h} is not an open interface role of the left expression")
        if self.k not in self.right.interfaces():
            raise GtirError(f"{self.k} is not an open interface role of the right expression")
        shared = self.left.roles() & self.right.roles()
        if shared:
            raise GtirError(
                f"connected expressions must have disjoint roles; shared: "
                f"{sorted(r.name for r in shared)}"
            )

    def roles(self) -> frozenset[Role]:
        return self.left.roles() | self.right.roles()

    def interfaces(self) -> frozenset[Role]:
        # Recomputed rather than stored: the connected pair is consumed.
        return (self.left.interfaces() | self.right.interfaces()) - {self.h, self.k}

    def components(self) -> frozenset[GlobalType]:
        return self.left.components() | self.right.components()


def base(global_type: GlobalType, interface_roles=()) -> Base:
    return Base(global_type, frozenset(as_role(r) for r in interface_roles))


def connect(left: GtirExpr, h: RoleLike, right: GtirExpr, k: RoleLike) -> Connect:
    return Connect(left, as_role(h), right, as_role(k))


def project_gtir(g: GtirExpr, p: RoleLike) -> Cfsm:
    """Projection of the unique component global type containing ``p``."""
    p = as_role(p)
    for component in g.components():
        if p in type_roles(component):
            return project(component, p)
    raise UnknownRoleError(f"role {p} does not occur in the expression")


@dataclass(frozen=True)
class InterfaceCommunication:
    """A base expression lets two of its interface roles communicate."""

    channel: "Channel"
    message: "Message"

    def __str__(self) -> str:
        return f"communication between interface roles: {self.channel}:{self.message}"


@dataclass(frozen=True)
class IncompatibleInterfaces:
    """A connection whose interface machines failed the compatibility check."""

    h: Role
    k: Role
    verdict: CompatibilityVerdict

    def __str__(self) -> str:
        return f"interface roles {self.h} and {self.k} are {self.verdict}"


Violation = Union[InterfaceCommunication, IncompatibleInterfaces]


def validate_gtir(g: GtirExpr) -> list[Violation]:
    """All semantic violations in the expression; empty means it is well formed.

    Safety of base systems is deliberately *not* required here; it is a
    hypothesis of the preservation result, checked separately.
    """
    violations: list[Violation] = []
    _denote(g, violations)
    return violations


def semantics(g: GtirExpr) -> CommunicatingSystem:
    """The communicating system denoted by a valid expression."""
    violations: list[Violation] = []
    system = _denote(g, violations)
    if violations:
        raise GtirError(
            "not a valid composition:\n"
            + "\n".join(f"  - {v}" for v in violations)
        )
    return system


def _denote(g: GtirExpr, violations: list[Violation]) -> CommunicatingSystem:
    """The system ``g`` denotes, appending every violation met on the way.

    Each role of each base type is projected once.  ``compose`` decides each
    connection; when it finds the interfaces incompatible, the two sides are
    carried on unconnected, so violations further out are still collected.
    """
    if isinstance(g, Base):
        machines = {p: project(g.global_type, p) for p in sorted(g.roles())}
        interfaces = g.interfaces()
        offending = {
            (act.channel, act.message)
            for m in machines.values()
            for _, act, _ in m.transitions
            if act.channel.sender in interfaces and act.channel.receiver in interfaces
        }
        violations.extend(InterfaceCommunication(ch, msg) for ch, msg in sorted(offending))
        return CommunicatingSystem(machines)
    if isinstance(g, Connect):
        left = _denote(g.left, violations)
        right = _denote(g.right, violations)
        try:
            return compose(left, g.h, right, g.k)
        except IncompatibleInterfacesError as exc:
            violations.append(IncompatibleInterfaces(g.h, g.k, exc.verdict))
            return CommunicatingSystem({**left.machines, **right.machines})
    raise TypeError(f"not an expression: {g!r}")


# ---------------------------------------------------------------------------
# Textual syntax and the named-type registry
# ---------------------------------------------------------------------------

Registry = dict[str, GlobalType]


def load_global_types(directory) -> Registry:
    """Registry of named global types: every ``*.gt`` file, read as UTF-8 and
    named by its stem.  A file that cannot be read or parsed raises GtirError
    naming it."""
    if not Path(directory).is_dir():
        raise GtirError(f"cannot read {directory}: not a directory")
    registry: Registry = {}
    for path in sorted(Path(directory).glob("*.gt")):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise GtirError(f"cannot read {path}: {exc}") from None
        try:
            registry[path.stem] = parse_global_type(text)
        except ParseError as exc:
            raise GtirError(f"{path}: {exc}") from None
    return registry


class _GtirParser(_Parser):
    def __init__(self, tokens, registry: Registry):
        super().__init__(tokens)
        self.registry = registry

    def expression(self) -> GtirExpr:
        tok = self.here
        if tok.kind == "op" and tok.text == "(":
            self.enter()
            expr = self.expression()
            self.expect("op", ")")
            self.depth -= 1
            return expr
        if tok.kind == "ident" and tok.text == "base":
            self.advance()
            name = self.ident("a global type name")
            if name.text not in self.registry:
                raise ParseError(f"unknown global type {name.text!r}", name.line, name.column)
            self.expect("ident", "interfaces")
            interfaces = self.role_set()
            try:
                return Base(self.registry[name.text], interfaces)
            except GtirError as exc:
                raise ParseError(str(exc), name.line, name.column) from None
        if tok.kind == "ident" and tok.text == "connect":
            self.enter()
            left = self.expression()
            self.expect("ident", "via")
            h = self.ident("an interface role")
            self.expect("op", "<->")
            k = self.ident("an interface role")
            right = self.expression()
            self.depth -= 1
            try:
                expr = Connect(left, Role(h.text), right, Role(k.text))
            except GtirError as exc:
                raise ParseError(str(exc), h.line, h.column) from None
            if self.here.kind == "ident" and self.here.text == "interfaces":
                # Optional explicit (redundant) interface set; must match.
                mark = self.advance()
                declared = self.role_set()
                if declared != expr.interfaces():
                    computed = sorted(r.name for r in expr.interfaces())
                    raise ParseError(
                        f"declared interface set {sorted(r.name for r in declared)} "
                        f"does not match the computed one {computed}",
                        mark.line, mark.column,
                    )
            return expr
        raise self.fail(f"expected 'base', 'connect', or '(', found {tok.text!r}")

    def role_set(self) -> frozenset[Role]:
        self.expect("op", "{")
        out: set[Role] = set()
        if not (self.here.kind == "op" and self.here.text == "}"):
            out.add(Role(self.ident("a role name").text))
            while self.accept("op", ","):
                out.add(Role(self.ident("a role name").text))
        self.expect("op", "}")
        return frozenset(out)


def parse_gtir(text: str, registry: Registry) -> GtirExpr:
    """Parse an open-protocol expression against a registry of named types."""
    parser = _GtirParser(tokenize(text), registry)
    expr = parser.expression()
    if parser.here.kind != "eof":
        raise parser.fail(f"unexpected {parser.here.text!r} after the expression")
    return expr


def render_gtir(g: GtirExpr, registry: Optional[Registry] = None) -> str:
    """Textual form of an expression; interface sets are recomputed."""
    names = {}
    if registry:
        names = {gt: name for name, gt in registry.items()}

    def render(e: GtirExpr) -> str:
        if isinstance(e, Base):
            name = names.get(e.global_type, "_")
            ifaces = ", ".join(sorted(r.name for r in e.interfaces()))
            return f"base {name} interfaces {{{ifaces}}}"
        assert isinstance(e, Connect)
        ifaces = ", ".join(sorted(r.name for r in e.interfaces()))
        return (f"connect ({render(e.left)}) via {e.h} <-> {e.k} "
                f"({render(e.right)}) interfaces {{{ifaces}}}")

    return render(g)
