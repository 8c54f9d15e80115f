"""A minimal global-type language and its projection onto machines.

Protocols are described from a bird's-eye view: interactions ``p->q:a``
composed by sequencing, located choice (every branch opens with a message
from the deciding role), and loops.  A loop repeats its body zero or more
times; projection realizes it as a back-edge to the body's entry point with
an exit on the side.

``project`` extracts one role's machine: the role's own sends and receives
keep their order, everything else becomes invisible.  The construction goes
through an epsilon-NFA which is then determinized (subset construction);
since every state accepts, NFA nodes without outgoing symbol transitions
contribute nothing to a subset and are dropped from the subset keys, which
keeps projected machines free of duplicate dead-tail states.  Subset states
are renumbered in breadth-first order, so projection output is deterministic.

The language makes no well-formedness guarantees: a type whose choices pass
the structural guard always projects, and whether the projected system is
safe is established by exploration, not by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .cfsm import Action, Cfsm, CfsmError, Message, Role, RoleLike, as_message, as_role


class GlobalTypeError(CfsmError):
    """A global type violates a structural invariant."""


class UnknownRoleError(CfsmError):
    """A role does not occur in the global type (or expression) at hand."""


class ProjectionError(CfsmError):
    """A choice cannot be projected: a branch opens with a non-decider message."""

    def __init__(self, message: str, role: Optional[Role] = None,
                 decider: Optional[Role] = None, branch: Optional[int] = None):
        super().__init__(message)
        self.role = role
        self.decider = decider
        self.branch = branch


class GlobalType:
    """Base class of the protocol AST; all nodes are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class End(GlobalType):
    """The finished protocol."""


@dataclass(frozen=True)
class Interaction(GlobalType):
    """``sender`` asynchronously passes ``message`` to ``receiver``."""

    sender: Role
    receiver: Role
    message: Message

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise GlobalTypeError(f"interaction endpoints must differ, got {self.sender}")

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}:{self.message}"


@dataclass(frozen=True)
class Seq(GlobalType):
    items: tuple[GlobalType, ...]


@dataclass(frozen=True)
class Choice(GlobalType):
    decider: Role
    branches: tuple[GlobalType, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise GlobalTypeError("a choice needs at least one branch")


@dataclass(frozen=True)
class Loop(GlobalType):
    body: GlobalType


def interaction(sender: RoleLike, receiver: RoleLike, message) -> Interaction:
    return Interaction(as_role(sender), as_role(receiver), as_message(message))


def _walk(g: GlobalType) -> Iterator[GlobalType]:
    yield g
    if isinstance(g, Seq):
        for item in g.items:
            yield from _walk(item)
    elif isinstance(g, Choice):
        for br in g.branches:
            yield from _walk(br)
    elif isinstance(g, Loop):
        yield from _walk(g.body)


def roles(g: GlobalType) -> frozenset[Role]:
    """All roles occurring in interactions of ``g``."""
    out = set()
    for node in _walk(g):
        if isinstance(node, Interaction):
            out.add(node.sender)
            out.add(node.receiver)
    return frozenset(out)


def messages(g: GlobalType) -> frozenset[Message]:
    """All message labels occurring in interactions of ``g``."""
    return frozenset(node.message for node in _walk(g) if isinstance(node, Interaction))


def first_interactions(g: GlobalType) -> tuple[frozenset[Interaction], bool]:
    """The interactions that can occur first in ``g``, and whether ``g`` can
    complete without any interaction (nullability)."""
    if isinstance(g, End):
        return frozenset(), True
    if isinstance(g, Interaction):
        return frozenset([g]), False
    if isinstance(g, Seq):
        firsts: set[Interaction] = set()
        for item in g.items:
            f, nullable = first_interactions(item)
            firsts |= f
            if not nullable:
                return frozenset(firsts), False
        return frozenset(firsts), True
    if isinstance(g, Choice):
        firsts = set()
        nullable = False
        for br in g.branches:
            f, n = first_interactions(br)
            firsts |= f
            nullable = nullable or n
        return frozenset(firsts), nullable
    if isinstance(g, Loop):
        f, _ = first_interactions(g.body)
        return f, True
    raise TypeError(f"not a global type: {g!r}")


def check_projectable(g: GlobalType) -> None:
    """Enforce the choice guard: every branch's possible first interactions
    must be sent by the deciding role.  Otherwise some role would act
    differently across branches before it can know which branch was taken."""
    for node in _walk(g):
        if not isinstance(node, Choice):
            continue
        for i, br in enumerate(node.branches):
            firsts, _ = first_interactions(br)
            for inter in sorted(firsts, key=str):
                if inter.sender != node.decider:
                    raise ProjectionError(
                        f"choice at {node.decider}: branch {i + 1} can open with "
                        f"{inter}, sent by {inter.sender} rather than the decider",
                        role=inter.sender, decider=node.decider, branch=i + 1,
                    )


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

class _Nfa:
    """Epsilon-NFA accumulated while walking the AST for one role."""

    def __init__(self) -> None:
        self.count = 0
        self.eps: dict[int, list[int]] = {}
        self.sym: dict[int, list[tuple[Action, int]]] = {}

    def fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def add_eps(self, a: int, b: int) -> None:
        self.eps.setdefault(a, []).append(b)

    def add_sym(self, a: int, act: Action, b: int) -> None:
        self.sym.setdefault(a, []).append((act, b))

    def closure(self, nodes: frozenset[int]) -> frozenset[int]:
        seen = set(nodes)
        stack = list(nodes)
        while stack:
            n = stack.pop()
            for m in self.eps.get(n, ()):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return frozenset(seen)


def _build(nfa: _Nfa, g: GlobalType, p: Role, src: int, dst: int) -> None:
    if isinstance(g, End):
        nfa.add_eps(src, dst)
    elif isinstance(g, Interaction):
        if g.sender == p:
            nfa.add_sym(src, Action.send(g.sender, g.receiver, g.message), dst)
        elif g.receiver == p:
            nfa.add_sym(src, Action.receive(g.sender, g.receiver, g.message), dst)
        else:
            nfa.add_eps(src, dst)
    elif isinstance(g, Seq):
        cur = src
        for item in g.items:
            nxt = nfa.fresh()
            _build(nfa, item, p, cur, nxt)
            cur = nxt
        nfa.add_eps(cur, dst)
    elif isinstance(g, Choice):
        for br in g.branches:
            _build(nfa, br, p, src, dst)
    elif isinstance(g, Loop):
        body_in = nfa.fresh()
        body_out = nfa.fresh()
        nfa.add_eps(src, body_in)
        nfa.add_eps(src, dst)
        nfa.add_eps(body_out, src)
        _build(nfa, g.body, p, body_in, body_out)
    else:
        raise TypeError(f"not a global type: {g!r}")


def project(g: GlobalType, p: RoleLike) -> Cfsm:
    """The machine of role ``p``: its own interactions in protocol order,
    with everything not involving ``p`` erased."""
    p = as_role(p)
    if p not in roles(g):
        raise UnknownRoleError(f"role {p} does not occur in the global type")
    check_projectable(g)

    nfa = _Nfa()
    start = nfa.fresh()
    end = nfa.fresh()
    _build(nfa, g, p, start, end)

    def live_key(cl: frozenset[int]) -> frozenset[int]:
        return frozenset(n for n in cl if nfa.sym.get(n))

    init = live_key(nfa.closure(frozenset([start])))
    names = {init: "0"}
    order = [init]
    transitions = []
    i = 0
    while i < len(order):
        subset = order[i]
        i += 1
        moves: dict[Action, set[int]] = {}
        for node in subset:
            for act, target in nfa.sym.get(node, ()):
                moves.setdefault(act, set()).add(target)
        for act in sorted(moves):
            succ = live_key(nfa.closure(frozenset(moves[act])))
            if succ not in names:
                names[succ] = str(len(names))
                order.append(succ)
            transitions.append((names[subset], act, names[succ]))
    return Cfsm(
        subject=p,
        states=frozenset(names.values()),
        initial="0",
        messages=messages(g),
        transitions=frozenset(transitions),
    )


# ---------------------------------------------------------------------------
# Textual syntax
# ---------------------------------------------------------------------------

class ParseError(CfsmError):
    """A syntax error, located by line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'op', 'eof'
    text: str
    line: int
    column: int


# Tried in order: a newline, blanks, a comment, an operator (longest first),
# a name, and any other character.  The last alternative matches whatever the
# others do not, so every position of the text is matched: ``finditer`` would
# otherwise skip an unmatched character without a word.
_LEXEME = re.compile(r"(\n)|[ \t\r]+|(#[^\n]*)|(<->|->|[:;{},()])|(\w+)|(.)")


def tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, ending with an end-of-input token.

    Names are runs of Unicode letters, digits and ``_`` (as ``str.isalnum``).
    Blanks are space, tab and CR; newlines separate lines.  ``#`` starts a
    comment that runs to the end of the line.  Columns count code points from
    1, a tab counting as one, and the end-of-input token after a trailing
    comment sits at its ``#``.  Any other character raises ParseError."""
    tokens: list[_Token] = []
    line, line_start, end = 1, 0, 0
    for m in _LEXEME.finditer(text):
        newline, comment, op, name, other = m.groups()
        if newline:
            line, line_start = line + 1, m.end()
        elif other:
            raise ParseError(f"unexpected character {other!r}", line, m.start() - line_start + 1)
        elif op or name:
            tokens.append(_Token("op" if op else "ident", m[0], line, m.start() - line_start + 1))
        end = m.start() if comment else m.end()
    tokens.append(_Token("eof", "", line, end - line_start + 1))
    return tokens


# How deeply ``loop``, ``choice``, ``(`` and ``connect`` may nest.  The
# parser and the passes over its output (``_walk``, ``_build``,
# ``first_interactions``, the composition of nested connects) recurse once or
# twice per level, so a bound well inside the interpreter's recursion limit
# turns a deeper input into a ParseError instead of a RecursionError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def here(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, message: str) -> "ParseError":
        return ParseError(message, self.here.line, self.here.column)

    def advance(self) -> _Token:
        tok = self.here
        self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        tok = self.here
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text if text is not None else kind
            raise self.fail(f"expected {want!r}, found {self.here.text!r}")
        return tok

    def enter(self) -> _Token:
        """Consume the token that opens a nesting level; the caller closes
        the level with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")
        return self.advance()

    def ident(self, what: str) -> _Token:
        tok = self.accept("ident")
        if tok is None:
            raise self.fail(f"expected {what}, found {self.here.text!r}")
        return tok

    # -- global type grammar ------------------------------------------------

    _ITEM_STARTERS = ("choice", "loop", "end")

    def global_type(self) -> GlobalType:
        g = self.sequence()
        if self.here.kind != "eof":
            raise self.fail(f"unexpected {self.here.text!r} after the protocol")
        return g

    def sequence(self) -> GlobalType:
        items = [self.item()]
        while self.accept("op", ";"):
            if self.here.kind == "op" and self.here.text == "}" or self.here.kind == "eof":
                break  # tolerate a trailing separator
            items.append(self.item())
        if len(items) == 1:
            return items[0]
        return Seq(tuple(items))

    def item(self) -> GlobalType:
        tok = self.here
        if tok.kind == "ident" and tok.text == "end":
            self.advance()
            return End()
        if tok.kind == "ident" and tok.text == "loop":
            self.enter()
            self.expect("op", "{")
            body = self.sequence()
            self.expect("op", "}")
            self.depth -= 1
            return Loop(body)
        if tok.kind == "ident" and tok.text == "choice":
            self.enter()
            self.expect("ident", "at")
            decider = self.ident("the deciding role")
            self.expect("op", "{")
            branches = [self.sequence()]
            while self.accept("ident", "or"):
                branches.append(self.sequence())
            self.expect("op", "}")
            self.depth -= 1
            return Choice(Role(decider.text), tuple(branches))
        if tok.kind == "ident":
            sender = self.advance()
            self.expect("op", "->")
            receiver = self.ident("the receiving role")
            self.expect("op", ":")
            message = self.ident("a message label")
            try:
                return interaction(sender.text, receiver.text, message.text)
            except GlobalTypeError as exc:
                raise ParseError(str(exc), sender.line, sender.column) from None
        raise self.fail(f"expected an interaction, 'choice', 'loop', or 'end', found {tok.text!r}")


def parse_global_type(text: str) -> GlobalType:
    """Parse the protocol syntax; raises ParseError with line/column."""
    parser = _Parser(tokenize(text))
    g = parser.global_type()
    return g
