"""Independent brute-force oracles the tests check the implementation against.

Nothing here goes through subset construction, the product search, or the
exploration engine: languages are enumerated word by word over the raw
transition relation, and reachability is recomputed from scratch over plain
string/tuple data.
"""

from __future__ import annotations

from typing import NamedTuple

from cfsmkit import CommunicatingSystem, ErasedAutomaton


def erased_words_up_to(aut: ErasedAutomaton, max_len: int) -> frozenset[tuple]:
    """All accepted words of length <= max_len, by walking the word tree.

    Every state accepts, so a word is in the language exactly when at least
    one path from the initial state spells it.
    """
    moves: dict[tuple[str, object], set[str]] = {}
    for src, sym, dst in aut.transitions:
        moves.setdefault((src, sym), set()).add(dst)
    alphabet = sorted(aut.alphabet)
    words: set[tuple] = set()

    def walk(frontier: frozenset[str], word: tuple) -> None:
        words.add(word)
        if len(word) == max_len:
            return
        for sym in alphabet:
            nxt = set()
            for q in frontier:
                nxt |= moves.get((q, sym), set())
            if nxt:
                walk(frozenset(nxt), word + (sym,))

    walk(frozenset([aut.initial]), ())
    return frozenset(words)


def plain_system(s: CommunicatingSystem):
    """Strip a system down to strings and tuples."""
    roles = tuple(r.name for r in s.roles)
    tables = {}
    for role in s.roles:
        machine = s[role]
        per_state = {}
        for q in machine.states:
            entries = []
            for src, act, dst in machine.transitions:
                if src != q:
                    continue
                kind = "send" if act.direction.value == "!" else "recv"
                channel = (act.channel.sender.name, act.channel.receiver.name)
                entries.append((kind, channel, act.message.label, dst))
            per_state[q] = sorted(entries)
        tables[role.name] = per_state
    initial = tuple(s[r].initial for r in s.roles)
    return roles, tables, initial


def _plain_successors(roles, tables, bound: int, cfg):
    """Every step from a plain configuration under the bounded semantics, and
    whether a send was skipped because its buffer already held ``bound``
    messages."""
    states, bufs = cfg
    bufmap = dict(bufs)
    out = []
    truncated = False
    for i, role in enumerate(roles):
        for kind, channel, msg, dst in tables[role][states[i]]:
            queue = bufmap.get(channel, ())
            if kind == "send":
                if len(queue) >= bound:
                    truncated = True
                    continue
                new_bufs = dict(bufmap)
                new_bufs[channel] = queue + (msg,)
            else:
                if not queue or queue[0] != msg:
                    continue
                new_bufs = dict(bufmap)
                if queue[1:]:
                    new_bufs[channel] = queue[1:]
                else:
                    del new_bufs[channel]
            new_states = states[:i] + (dst,) + states[i + 1:]
            out.append((new_states, tuple(sorted(new_bufs.items()))))
    return out, truncated


def naive_reachable(s: CommunicatingSystem, bound: int,
                    max_configs: int = 500_000) -> tuple[frozenset, bool]:
    """Re-derive the bounded reachable set with a from-scratch search.

    A configuration is ``(state per role, sorted tuple of ((sender,
    receiver), messages))`` over names, with empty buffers omitted.  Returns
    the set and whether some send was skipped at the bound.
    """
    roles, tables, initial = plain_system(s)
    start = (initial, ())
    seen = {start}
    stack = [start]
    truncated = False
    while stack:
        succ, cut = _plain_successors(roles, tables, bound, stack.pop())
        truncated = truncated or cut
        for nxt in succ:
            if nxt not in seen:
                if len(seen) >= max_configs:
                    raise RuntimeError("oracle exploration too large")
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen), truncated


def naive_violations(roles, tables, cfg) -> frozenset[str]:
    """The safety properties the plain configuration ``cfg`` violates, by
    name: ``deadlock``, ``orphan_message`` and ``unspecified_reception``.

    ``roles`` and ``tables`` come from ``plain_system``; ``cfg`` is as in
    ``naive_reachable``.
    """
    states, bufs = cfg
    bufmap = dict(bufs)

    def classify(role: str, state: str) -> str:
        entries = tables[role][state]
        if not entries:
            return "final"
        kinds = {e[0] for e in entries}
        if kinds == {"send"}:
            return "sending"
        if kinds == {"recv"}:
            return "receiving"
        return "mixed"

    def deadlock() -> bool:
        if bufs:
            return False
        # Without a role, no machine waits.
        return bool(roles) and all(classify(roles[i], states[i]) == "receiving"
                                   for i in range(len(roles)))

    def orphan() -> bool:
        if not bufs:
            return False
        return all(classify(roles[i], states[i]) == "final" for i in range(len(roles)))

    def unspecified() -> bool:
        for i, role in enumerate(roles):
            if classify(role, states[i]) != "receiving":
                continue
            receivable: dict[tuple, set[str]] = {}
            for kind, channel, msg, _ in tables[role][states[i]]:
                if kind == "recv":
                    receivable.setdefault(channel, set()).add(msg)
            stuck = True
            for channel, msgs in receivable.items():
                queue = bufmap.get(channel, ())
                if not queue or queue[0] in msgs:
                    stuck = False
                    break
            if stuck:
                return True
        return False

    return frozenset(name for name, holds in (("deadlock", deadlock), ("orphan_message", orphan),
                                              ("unspecified_reception", unspecified))
                     if holds())


def naive_bounded_safety(s: CommunicatingSystem, bound: int,
                         max_configs: int = 500_000) -> dict[str, bool]:
    """Re-derive the three safety verdicts with a from-scratch search.

    Uses the same bounded semantics (sends into a full buffer are skipped)
    but its own data representation, successor code, and predicate logic.
    Returns whether a violating configuration of each kind is reachable.
    """
    roles, tables, initial = plain_system(s)
    start = (initial, ())  # (state per role, sorted tuple of (channel, msgs))

    found = {"deadlock": False, "orphan_message": False, "unspecified_reception": False}
    seen = {start}
    stack = [start]
    while stack:
        cfg = stack.pop()
        for name in naive_violations(roles, tables, cfg):
            found[name] = True
        if all(found.values()):
            break
        for nxt in _plain_successors(roles, tables, bound, cfg)[0]:
            if nxt not in seen:
                if len(seen) >= max_configs:
                    raise RuntimeError("oracle exploration too large")
                seen.add(nxt)
                stack.append(nxt)
    return found


class Walk(NamedTuple):
    """The record of ``naive_walk``, configurations as in ``naive_reachable``."""

    order: list            # every admitted configuration, in discovery order
    parents: dict          # each one's first discoverer; None for the initial one
    edge_count: int
    truncated: bool
    exhausted: bool
    first: dict            # each violated property's first violator, by name


def naive_walk(s: CommunicatingSystem, bound: int, max_states: int = 500_000) -> Walk:
    """Re-derive ``explore``'s whole record with a plain breadth-first search.

    Steps are taken in the engine's row order: roles in order, and each
    machine's transitions as ``Cfsm.outgoing`` sorts them, by channel,
    direction (``!`` before ``?``), label and target.  Every step of every
    expanded configuration counts as an edge; when a new configuration would
    exceed ``max_states`` the walk stops, and only the steps before that one
    count.  Violations are looked up in every admitted configuration, in
    discovery order.
    """
    roles, tables, initial = plain_system(s)
    ordered = {role: {q: sorted(entries, key=lambda e: (e[1], "!" if e[0] == "send" else "?",
                                                          e[2], e[3]))
                      for q, entries in per_state.items()}
               for role, per_state in tables.items()}
    start = (initial, ())
    parents: dict = {start: None}
    order = [start]
    edges = 0
    truncated = exhausted = False
    for cfg in order:  # grows as the walk admits configurations
        succ, cut = _plain_successors(roles, ordered, bound, cfg)
        truncated = truncated or cut
        for nxt in succ:
            if nxt not in parents:
                if len(parents) >= max_states:
                    exhausted = True
                    break
                parents[nxt] = cfg
                order.append(nxt)
            edges += 1
        if exhausted:
            break
    first: dict = {}
    for cfg in order:
        for name in naive_violations(roles, tables, cfg):
            first.setdefault(name, cfg)
    return Walk(order, parents, edges, truncated, exhausted, first)
