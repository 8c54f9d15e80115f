import gc
import itertools
import math
import random
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cfsmkit import (
    Action,
    Cfsm,
    Channel,
    CommunicatingSystem,
    Configuration,
    Direction,
    InvalidSystemError,
    Message,
    Role,
    StateKind,
    SystemMismatchError,
    check_safety,
    classify_state,
    enabled_actions,
    explore,
    initial_configuration,
    inserted_states,
    is_deadlock,
    is_orphan_message,
    is_unspecified_reception,
    parse_system,
    semantics,
    serialize_system,
    step,
)
from cfsmkit.cfsm import mixed_states
from cfsmkit.gtir import load_global_types, parse_gtir
from cfsmkit.safety import report_from_exploration
import cfsmkit.system
from cfsmkit.system import (
    DEADLOCK,
    ORPHAN_MESSAGE,
    SEP,
    UNSPECIFIED_RECEPTION,
    PackedSystem,
    _successors,
    pack_configuration,
    violations,
)
from generators import random_machine
from oracles import (
    _plain_successors,
    naive_bounded_safety,
    naive_reachable,
    naive_violations,
    naive_walk,
    plain_system,
)


def handoff_system():
    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q1")])
    b = Cfsm.make("B", "r0", [("r0", Action.receive("A", "B", "a"), "r1")])
    return CommunicatingSystem({"A": a, "B": b})


def pump_system():
    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q0")])
    b = Cfsm.make("B", "r0")
    return CommunicatingSystem({"A": a, "B": b})


def cfg(control, buffers=None):
    return Configuration.make(control, buffers or {})


AB = Channel(Role("A"), Role("B"))


# -- construction -------------------------------------------------------------

def test_machine_key_must_match_subject(mj):
    for key in ("X", Role("X"), ""):
        with pytest.raises(InvalidSystemError):
            CommunicatingSystem({key: mj})


def test_membership_takes_a_role_or_its_name():
    s = handoff_system()
    assert "A" in s and Role("B") in s
    assert "C" not in s and "" not in s and Role("C") not in s


def test_a_system_equals_only_a_system_with_its_machines():
    s = handoff_system()
    assert s == handoff_system() and s != pump_system()
    assert s != "A" and s != {"A": s["A"], "B": s["B"]}
    assert repr(s) == "CommunicatingSystem(roles=['A', 'B'])"


def test_a_system_holds_its_machines_own_roles():
    s = handoff_system()
    assert all(r is s[r].subject for r in s.roles)
    assert all(r is m.subject for r, m in s.machines.items())


@pytest.mark.parametrize("role", ["Z", Role("Z"), ""])
def test_lookup_of_a_missing_role_names_it(role):
    with pytest.raises(SystemMismatchError, match=f"no machine for role {role}$"):
        handoff_system()[role]


def test_state_of_a_missing_role_names_it():
    with pytest.raises(SystemMismatchError, match="no control state for role Z$"):
        initial_configuration(handoff_system()).state_of("Z")


def test_channels_must_stay_inside_the_system(mj):
    # J's machine talks to M, so a system without M is rejected.
    with pytest.raises(InvalidSystemError):
        CommunicatingSystem({"J": mj})


def test_initial_configuration_examples(relay_expr):
    s = handoff_system()
    assert initial_configuration(s) == cfg({"A": "q0", "B": "r0"})

    solo = CommunicatingSystem({"A": Cfsm.make("A", "q7")})
    assert initial_configuration(solo) == cfg({"A": "q7"})

    composed = semantics(relay_expr)
    init = initial_configuration(composed)
    assert init.buffers == ()
    for role in composed.roles:
        assert init.state_of(role) == composed[role].initial


# -- step ---------------------------------------------------------------------

def test_step_send_appends_and_moves_only_the_sender():
    s = handoff_system()
    init = initial_configuration(s)
    succ = step(s, init, Action.send("A", "B", "a"))
    assert succ == frozenset({cfg({"A": "q1", "B": "r0"}, {AB: ["a"]})})


def test_step_receive_pops_the_head():
    s = handoff_system()
    mid = cfg({"A": "q1", "B": "r0"}, {AB: ["a"]})
    succ = step(s, mid, Action.receive("A", "B", "a"))
    assert succ == frozenset({cfg({"A": "q1", "B": "r1"})})


def test_step_receive_on_empty_buffer_is_not_enabled():
    s = handoff_system()
    assert step(s, initial_configuration(s), Action.receive("A", "B", "a")) == frozenset()


def test_step_send_without_matching_transition_is_not_enabled():
    s = handoff_system()
    assert step(s, initial_configuration(s), Action.send("A", "B", "zzz")) == frozenset()


def test_step_rejects_foreign_configurations():
    s = handoff_system()
    with pytest.raises(SystemMismatchError):
        step(s, cfg({"A": "q0"}), Action.send("A", "B", "a"))
    with pytest.raises(SystemMismatchError):
        step(s, cfg({"A": "nope", "B": "r0"}), Action.send("A", "B", "a"))
    extra_role = cfg({"A": "q0", "B": "r0", "C": "s0"})
    foreign_channel = cfg({"A": "q0", "B": "r0"}, {Channel(Role("A"), Role("C")): ["a"]})
    for c, message in ((extra_role, "unknown role C"), (foreign_channel, "unknown channel AC")):
        with pytest.raises(SystemMismatchError, match=message):
            step(s, c, Action.send("A", "B", "a"))
        with pytest.raises(SystemMismatchError, match=message):
            enabled_actions(s, c)
        with pytest.raises(SystemMismatchError, match=message):
            is_deadlock(s, c)


def test_step_returns_all_targets_of_a_nondeterministic_send():
    a = Cfsm.make("A", "q0", [
        ("q0", Action.send("A", "B", "a"), "q1"),
        ("q0", Action.send("A", "B", "a"), "q2"),
    ])
    b = Cfsm.make("B", "r0")
    s = CommunicatingSystem({"A": a, "B": b})
    succ = step(s, initial_configuration(s), Action.send("A", "B", "a"))
    assert len(succ) == 2


# -- buffers on channels no transition uses -----------------------------------

BA = Channel(Role("B"), Role("A"))


def test_step_carries_a_buffer_on_an_unused_channel():
    # No transition uses BA, yet a configuration may buffer on it: every step
    # carries that buffer through unchanged.
    s = handoff_system()
    start = cfg({"A": "q0", "B": "r0"}, {BA: ["z"]})
    (mid,) = step(s, start, Action.send("A", "B", "a"))
    assert mid == cfg({"A": "q1", "B": "r0"}, {AB: ["a"], BA: ["z"]})
    assert step(s, mid, Action.receive("A", "B", "a")) == frozenset(
        {cfg({"A": "q1", "B": "r1"}, {BA: ["z"]})})


def test_enabled_actions_ignore_a_buffer_on_an_unused_channel():
    s = handoff_system()
    assert enabled_actions(s, cfg({"A": "q0", "B": "r0"}, {BA: ["z"]})) == frozenset(
        {Action.send("A", "B", "a")})
    assert enabled_actions(s, cfg({"A": "q1", "B": "r0"}, {BA: ["z"]})) == frozenset()


# -- enabled actions ----------------------------------------------------------

def test_enabled_actions_examples(relay_expr):
    s = handoff_system()
    assert enabled_actions(s, initial_configuration(s)) == frozenset({Action.send("A", "B", "a")})

    # Mutual wait: nothing is enabled.
    a = Cfsm.make("A", "q0", [("q0", Action.receive("B", "A", "x"), "q1")])
    b = Cfsm.make("B", "r0", [("r0", Action.receive("A", "B", "y"), "r1")])
    stuck = CommunicatingSystem({"A": a, "B": b})
    assert enabled_actions(stuck, initial_configuration(stuck)) == frozenset()

    # In the composed example, only machines whose initial state sends may move.
    composed = semantics(relay_expr)
    init = initial_configuration(composed)
    expected = set()
    for role in composed.roles:
        m = composed[role]
        if classify_state(m, m.initial) is StateKind.SENDING:
            expected |= {t[1] for t in m.outgoing(m.initial)}
    enabled = enabled_actions(composed, init)
    assert enabled == frozenset(expected)
    assert enabled == frozenset({
        Action.send("I", "C", "trialsNum"),
        Action.send("A", "K", "text"),
        Action.send("B", "K", "text"),
    })


def test_enabled_actions_match_step():
    s = handoff_system()
    mid = cfg({"A": "q1", "B": "r0"}, {AB: ["a"]})
    for c in (initial_configuration(s), mid):
        enabled = enabled_actions(s, c)
        for act in enabled:
            assert step(s, c, act)


# -- exploration --------------------------------------------------------------

def test_explore_handoff_exactly_three_configurations():
    s = handoff_system()
    result = explore(s, max_buffer_bound=1)
    expected = {
        cfg({"A": "q0", "B": "r0"}),
        cfg({"A": "q1", "B": "r0"}, {AB: ["a"]}),
        cfg({"A": "q1", "B": "r1"}),
    }
    assert result.reachable == frozenset(expected)
    assert not result.frontier_truncated
    assert not result.state_budget_exhausted
    assert result.edge_count == 2


def test_explore_transitionless_machines_single_configuration():
    s = CommunicatingSystem({"A": Cfsm.make("A", "q0"), "B": Cfsm.make("B", "r0")})
    result = explore(s)
    assert len(result.reachable) == 1


def test_explore_truncates_at_the_buffer_bound():
    result = explore(pump_system(), max_buffer_bound=3)
    assert result.frontier_truncated
    assert len(result.reachable) == 4  # buffer lengths 0..3
    assert max(len(c.buffer(AB)) for c in result.reachable) == 3


def test_explore_reports_state_budget_exhaustion():
    result = explore(pump_system(), max_buffer_bound=100, max_states=5)
    assert result.state_budget_exhausted
    assert len(result.reachable) == 5


def test_explore_bounds_must_be_positive():
    with pytest.raises(ValueError):
        explore(handoff_system(), max_buffer_bound=0)


def test_reachable_monotone_in_the_bound():
    rng = random.Random(5)
    for _ in range(25):
        machines = {}
        for name, partner in (("A", "B"), ("B", "A")):
            machines[name] = random_machine(rng, subject=name, partners=(partner,),
                                            max_states=3, max_transitions=4)
        s = CommunicatingSystem(machines)
        prev = None
        for bound in (1, 2, 3):
            result = explore(s, max_buffer_bound=bound, max_states=50_000)
            if prev is not None:
                assert prev.reachable <= result.reachable
                if not prev.frontier_truncated:
                    assert prev.reachable == result.reachable
            prev = result


def test_edges_change_one_buffer_and_one_machine():
    s = pump_system()
    result = explore(s, max_buffer_bound=2)
    moved_any = False
    edges = [(src, act, dst) for src in result.discovery_order
             for act in enabled_actions(s, src) for dst in step(s, src, act)]
    assert edges
    for src, act, dst in edges:
        changed_roles = [r for r, q in src.control if dst.state_of(r) != q]
        assert changed_roles in ([], [act.subject])  # self-loops keep the state
        moved_any = moved_any or bool(changed_roles)
        src_bufs = dict(src.buffers)
        dst_bufs = dict(dst.buffers)
        touched = {ch for ch in set(src_bufs) | set(dst_bufs)
                   if src_bufs.get(ch, ()) != dst_bufs.get(ch, ())}
        assert touched == {act.channel}
        if act.direction.value == "!":
            assert dst.buffer(act.channel) == src.buffer(act.channel) + (act.message,)
        else:
            assert src.buffer(act.channel)[0] == act.message
            assert dst.buffer(act.channel) == src.buffer(act.channel)[1:]


def test_trace_to_replays_to_the_target():
    s = handoff_system()
    result = explore(s, max_buffer_bound=1)
    target = cfg({"A": "q1", "B": "r1"})
    trace = result.trace_to(target)
    assert trace == (Action.send("A", "B", "a"), Action.receive("A", "B", "a"))


@pytest.mark.parametrize("target, message", [
    (cfg({"A": "q9", "B": "r0"}), "state 'q9' is not a state of machine A"),
    (cfg({"A": "q0", "B": "r0", "C": "s0"}), "configuration mentions unknown role C"),
    (cfg({"A": "q1", "B": "r0"}, {AB: ["b"]}), "does not fit the system"),
    (cfg({"A": "q0", "B": "r1"}), "target configuration is not connected to the initial one"),
    (Configuration(((Role("B"), "r0"), (Role("A"), "q0")), ()),
     "configuration control is not one state per role in role order"),
], ids=["unknown-state", "unknown-role", "unknown-label", "unreached", "role-order"])
def test_trace_to_names_what_is_wrong_with_its_target(target, message):
    # A configuration of another system is named as such; one of this
    # system that the walk did not reach is not connected.
    result = explore(handoff_system(), max_buffer_bound=1)
    with pytest.raises(SystemMismatchError, match=re.escape(message)):
        result.trace_to(target)


def test_step_in_the_composed_example(relay_expr):
    # At the initial configuration, the screener gateway cannot yet receive
    # A's text (its buffer is empty); A's send deposits it.
    s = semantics(relay_expr)
    init = initial_configuration(s)
    assert step(s, init, Action.receive("A", "K", "text")) == frozenset()
    (after,) = step(s, init, Action.send("A", "K", "text"))
    assert after.buffer(Channel(Role("A"), Role("K"))) == (Message("text"),)
    assert after.state_of("A") != init.state_of("A")
    for role in s.roles:
        if role != Role("A"):
            assert after.state_of(role) == init.state_of(role)


def test_every_reachable_configuration_is_connected(relay_expr):
    # Firing ``trace_to(c)`` from the initial configuration through ``step``
    # reaches ``c`` in exactly its breadth-first depth, read off the parents.
    # Each distinct prefix of a trace is fired once.
    s = semantics(relay_expr)
    result = explore(s, max_buffer_bound=1)
    depth = assert_parents_fix_their_steps(result)
    reached = {(): {initial_configuration(s)}}
    for c, key in zip(result.discovery_order, result.packed_parents):
        trace = result.trace_to(c)
        assert len(trace) == depth[key]
        for i, act in enumerate(trace):
            if trace[:i + 1] not in reached:
                before = reached[trace[:i]]
                reached[trace[:i + 1]] = {nxt for prev in before for nxt in step(s, prev, act)}
        assert c in reached[trace]


def test_parallel_exploration_is_identical(relay_expr):
    # ``jobs`` is accepted and ignored: the walk is sequential.
    s = semantics(relay_expr)
    seq = explore(s, max_buffer_bound=2)
    par = explore(s, max_buffer_bound=2, jobs=3)
    assert seq.discovery_order == par.discovery_order
    assert seq.packed_parents == par.packed_parents
    assert seq.edge_count == par.edge_count


@st.composite
def small_systems(draw):
    """Systems of 2-4 roles, each machine with at most 3 states, on a sparse
    partner graph: no more links than roles, so roles that share no channel,
    whose commuting steps the walk builds in one order only, are common.  A
    role with partners has 1-4 transitions, one without none."""
    names = ["A", "B", "C", "D"][:draw(st.integers(2, 4))]
    links = draw(st.sets(st.sampled_from(list(itertools.combinations(names, 2))),
                         min_size=1, max_size=len(names)))
    machines = {}
    for role in names:
        states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
        partners = [b if a == role else a for a, b in sorted(links) if role in (a, b)]
        transitions = []
        for _ in range(draw(st.integers(1, 4)) if partners else 0):
            src, dst = draw(st.sampled_from(states)), draw(st.sampled_from(states))
            other, msg = draw(st.sampled_from(partners)), draw(st.sampled_from(["a", "b"]))
            act = (Action.send(role, other, msg) if draw(st.booleans())
                   else Action.receive(other, role, msg))
            transitions.append((src, act, dst))
        machines[role] = Cfsm.make(role, "s0", transitions, extra_states=states)
    return CommunicatingSystem(machines)


def plain(c: Configuration):
    return (tuple(q for _, q in c.control),
            tuple(((ch.sender.name, ch.receiver.name), tuple(m.label for m in msgs))
                  for ch, msgs in c.buffers))


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.integers(1, 3))
def test_exploration_agrees_with_the_reachability_oracle(s, bound):
    result = explore(s, max_buffer_bound=bound)
    reachable, truncated = naive_reachable(s, bound)
    assert frozenset(plain(c) for c in result.reachable) == reachable
    assert result.frontier_truncated == truncated
    assert_parents_fix_their_steps(result)
    report = check_safety(s, max_buffer_bound=bound)
    expected = naive_bounded_safety(s, bound=bound)
    for name in expected:
        verdict = getattr(report, name)
        assert verdict.violated == expected[name]
        if verdict.violated:
            assert verdict.witness_configuration in replay(s, verdict.witness, verdict.witness_digests)


def replay(s: CommunicatingSystem, trace, digests) -> frozenset[Configuration]:
    """Every configuration that firing ``trace`` from the initial configuration
    can end in, following every target of a nondeterministic step; each step
    must be enabled from some configuration and reach one with its digest."""
    current = frozenset({initial_configuration(s)})
    for i, (act, digest) in enumerate(zip(trace, digests, strict=True), start=1):
        current = frozenset(nxt for c in current for nxt in step(s, c, act))
        assert digest in {c.digest() for c in current}, f"step {i} ({act})"
    return current


def unplain(s: CommunicatingSystem, cfg) -> Configuration:
    states, bufs = cfg
    return Configuration.make(dict(zip(s.roles, states)),
                              {Channel(Role(a), Role(b)): msgs for (a, b), msgs in bufs})


PREDICATES = {"deadlock": is_deadlock, "orphan_message": is_orphan_message,
              "unspecified_reception": is_unspecified_reception}


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.data())
def test_predicates_agree_with_the_oracle(s, data):
    roles, tables, _ = plain_system(s)
    configs = set().union(*(naive_reachable(s, bound)[0] for bound in (1, 2, 3)))
    # Buffers the walk cannot fill, possibly with a label no transition uses.
    channels = [(a.name, b.name) for a in s.roles for b in s.roles if a != b]
    queues = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3).map(tuple)
    for _ in range(5):
        states = tuple(data.draw(st.sampled_from(sorted(s[r].states))) for r in s.roles)
        bufs = data.draw(st.dictionaries(st.sampled_from(channels), queues))
        configs.add((states, tuple(sorted(bufs.items()))))
    for cfg in configs:
        c = unplain(s, cfg)
        expected = naive_violations(roles, tables, cfg)
        for name, holds in PREDICATES.items():
            assert holds(s, c) == (name in expected), (name, str(c))


def oracle_entry(act: Action) -> tuple:
    """The first three fields of an oracle table entry for ``act``."""
    return ("send" if act.direction.value == "!" else "recv",
            (act.channel.sender.name, act.channel.receiver.name), act.message.label)


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.data())
def test_every_control_vector_agrees_with_the_oracle(s, data):
    # Each role in each of its states, reachable together or not, with random
    # buffers: steps, enabled actions and predicates match the oracle's, and
    # every such configuration packs and unpacks unchanged.
    roles, tables, _ = plain_system(s)
    channels = [(a.name, b.name) for a in s.roles for b in s.roles if a != b]
    queues = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3).map(tuple)
    actions = sorted({act for r in s.roles for _, act, _ in s[r].transitions},
                     key=oracle_entry) + [Action.send(s.roles[0], s.roles[1], "c")]
    for states in itertools.product(*(sorted(s[r].states) for r in s.roles)):
        bufs = data.draw(st.dictionaries(st.sampled_from(channels), queues))
        cfg = (states, tuple(sorted(bufs.items())))
        c = unplain(s, cfg)
        p, packed = pack_configuration(s, c)
        assert p.decode(packed) == c
        enabled = set()
        for act in actions:
            only = {role: {q: [e for e in entries if e[:3] == oracle_entry(act)]
                           for q, entries in per_state.items()}
                    for role, per_state in tables.items()}
            expected = frozenset(_plain_successors(roles, only, math.inf, cfg)[0])
            assert frozenset(plain(nxt) for nxt in step(s, c, act)) == expected, (str(act), str(c))
            if expected:
                enabled.add(act)
        assert enabled_actions(s, c) == enabled, str(c)
        flagged = naive_violations(roles, tables, cfg)
        for name, holds in PREDICATES.items():
            assert holds(s, c) == (name in flagged), (name, str(c))


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_rows_list_each_roles_outgoing_transitions_in_canonical_order(s):
    # The engine orders and resolves transitions itself; its rows must keep
    # the public order of ``Cfsm.outgoing``, role by role.
    p = PackedSystem(s)
    for states in itertools.product(*p.states):
        control = "".join(p._controls[r][q] for r, q in enumerate(states))
        moves, mask, final = p.row(control)
        expected = [t for r, q in zip(s.roles, states) for t in s[r].outgoing(q)]
        got = []
        index = {}  # each move's place among its role's moves
        for act, target, is_send, slot, code, role, step, sleep in moves:
            r = s.roles.index(act.subject)
            index[r] = j = index.get(r, -1) + 1
            got.append((states[r], act, p.states[r][ord(target[r]) - 1]))
            assert target[:r] + target[r + 1:] == control[:r] + control[r + 1:]
            assert is_send == (act.direction is Direction.SEND)
            assert (p.channels[slot - 1], p._messages[code]) == (act.channel, act.message)
            # The sleep-set masks: the role's bit, every role but it and the
            # other end of its channel, the move's step bit, and the roles
            # before it that the channel leaves out, spread.
            other = act.channel.receiver if is_send else act.channel.sender
            assert role == 1 << r
            if len(s.roles) == 2:
                assert not p.keeps and p.rep == step == sleep == 0
                continue
            assert p.keeps[slot] == ~(role | 1 << s.roles.index(other))
            assert step == 1 << (len(s.roles) * j + r)
            assert sleep == ((role - 1) & p.keeps[slot]) * p.rep
        assert got == expected
        # Under a sleep set, only the awake roles' moves, with the sleeping
        # roles added to each successor's set; the mask and ``final`` still
        # describe every role.
        for asleep in range(p.full + 1):
            spread = asleep * p.rep
            assert p.row(control, spread) == (
                tuple(move[:7] + (p.rep and ((asleep | move[5] - 1) & p.keeps[move[3]]) * p.rep,)
                      for move in moves if not move[5] & asleep or not spread),
                mask, final)
        assert final == (not moves)
    for r in s.roles:
        m = s[r]
        assert mixed_states(m) == tuple(
            q for q in sorted(m.states) if classify_state(m, q) is StateKind.MIXED)
        assert inserted_states(m) == frozenset(
            q for q in m.states if any(t[1].direction is Direction.SEND for t in m.outgoing(q)))


@pytest.mark.parametrize("bound, rows", [(1, 204), (2, 216), (4, 216)])
def test_each_walk_builds_one_row_per_control_vector(relay_expr, monkeypatch, bound, rows):
    # One row per pair of a control vector and a sleep set met, and the
    # pairs cover every control vector reached: 220, 244 and 244 of them.
    built: list[tuple[str, int]] = []
    build = PackedSystem.row

    def counted(self, control, sleep=0):
        built.append((control, sleep))
        return build(self, control, sleep)

    monkeypatch.setattr(PackedSystem, "row", counted)
    result = explore(semantics(relay_expr), max_buffer_bound=bound)
    assert len(built) == len(set(built)) == {1: 220, 2: 244, 4: 244}[bound]
    assert len(result.packing.rows) == len(built)
    assert {control for control, _ in built} == {cfg.split(SEP)[0] for cfg in result.packed_parents}
    assert len({c.control for c in result.discovery_order}) == rows


def test_a_bound_4_walk_holds_at_most_016_kb_per_configuration(data_dir):
    # Each configuration is held as one key string plus its ``parents`` entry.
    expr = parse_gtir((data_dir / "composed.gtir").read_text(), load_global_types(str(data_dir)))
    s = semantics(expr)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = explore(s, max_buffer_bound=4)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.configuration_count == 27_574
    assert held / 1024 / result.configuration_count <= 0.16


def ring_system(n: int, distinct_labels: bool) -> CommunicatingSystem:
    """A sends once from each of the ``n`` states of a ring; B receives every
    label but the last state's ``z``, so the walk must get round the ring to
    find the unspecified reception."""
    states = [f"s{i:03}" for i in range(n)]
    labels = [f"m{i:03}" if distinct_labels else "a" for i in range(n - 1)] + ["z"]
    a = Cfsm.make("A", states[0], [(states[i], Action.send("A", "B", labels[i]), states[(i + 1) % n])
                                   for i in range(n)])
    b = Cfsm.make("B", "r", [("r", Action.receive("A", "B", label), "r") for label in set(labels[:-1])])
    return CommunicatingSystem({"A": a, "B": b})


class CountedTransitions(frozenset):
    """A machine's transition set that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_a_walk_passes_over_each_machines_transitions_a_fixed_number_of_times():
    # The packing groups each machine's transitions by state once, so a walk
    # that meets every state of a long machine does not scan it per state.
    passes = {}
    for n in (5, 50):
        s = ring_system(n, distinct_labels=False)
        machines = {r: replace(s[r], transitions=CountedTransitions(s[r].transitions))
                    for r in s.roles}
        s = CommunicatingSystem(machines)
        for m in machines.values():
            m.transitions.passes = 0
        result = explore(s, max_buffer_bound=1)
        assert len({key[0] for key in result.packed_parents}) == n  # A meets every state
        passes[n] = [m.transitions.passes for m in machines.values()]
    assert passes[5] == passes[50]


def nul_named_system() -> CommunicatingSystem:
    # Names holding the separator: B takes "\x00" and answers it, but not "x\x00".
    a = Cfsm.make("A", "\x00", [("\x00", Action.send("A", "B", "\x00"), "a\x00"),
                                ("a\x00", Action.send("A", "B", "x\x00"), "\x00"),
                                ("a\x00", Action.receive("B", "A", "\x00"), "a\x00")])
    b = Cfsm.make("B", "\x00", [("\x00", Action.receive("A", "B", "\x00"), "\x00\x00"),
                                ("\x00\x00", Action.send("B", "A", "\x00"), "\x00")])
    return CommunicatingSystem({"A": a, "B": b})


KEY_EDGE_CASES = {
    "130-states": lambda: ring_system(130, distinct_labels=False),
    "300-labels": lambda: ring_system(300, distinct_labels=True),
    "nul-names": nul_named_system,
    "no-channels": lambda: CommunicatingSystem({"A": Cfsm.make("A", "q"),
                                                "B": Cfsm.make("B", "r", extra_states=["t"])}),
}


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("case", KEY_EDGE_CASES)
def test_keys_round_trip_and_agree_with_the_oracle(case, bound):
    s = KEY_EDGE_CASES[case]()
    result = explore(s, max_buffer_bound=bound)
    p = result.packing
    for key, c in zip(result.packed_parents, result.discovery_order):
        control, *buffers = key.split(SEP)
        assert len(control) == len(s.roles) and len(buffers) == len(p.channels)
        assert p.encode(c) == key and p.decode(key) == c
    reachable, truncated = naive_reachable(s, bound)
    assert frozenset(plain(c) for c in result.reachable) == reachable
    assert result.frontier_truncated == truncated
    report = report_from_exploration(s, result)
    for name, violated in naive_bounded_safety(s, bound=bound).items():
        verdict = getattr(report, name)
        assert verdict.violated == violated, name
        if violated:
            assert verdict.witness_configuration in replay(s, verdict.witness, verdict.witness_digests)
    # The widest code reached: past ASCII with 130 states, past Latin-1 with 300 labels.
    widest = max(map(ord, "".join(result.packed_parents)))
    assert widest == {"130-states": 130, "300-labels": 300, "nul-names": 2, "no-channels": 1}[case]


def assert_parents_fix_their_steps(result):
    # The walk records only each configuration's parent, the stored key object
    # itself, and the action is recovered from the parent's successors: exactly
    # one of them reaches the configuration.  The parents form a breadth-first
    # tree: the initial configuration comes first, each parent before its
    # child and one level above it, levels never fall in discovery order, and
    # no step leads more than one level down.  Unless the state budget was
    # exhausted, ``edge_count`` is the number of steps between explored
    # configurations.  Returns each key's breadth-first depth.
    p, bound = result.packing, result.max_buffer_bound
    keys = {id(cfg) for cfg in result.packed_parents}
    depth = {}
    for cfg, parent in result.packed_parents.items():
        if parent is None:
            assert not depth and cfg == p.initial
            depth[cfg] = 0
            continue
        assert id(parent) in keys
        depth[cfg] = depth[parent] + 1  # a KeyError if the parent came later
        succ = _successors(p, parent, bound)[0]
        assert sum(nxt == cfg for _, nxt, _, _ in succ) == 1
    levels = list(depth.values())
    assert levels == sorted(levels)
    edges = 0
    for cfg in result.packed_parents:
        # With no sleep mask: every step, none skipped.
        for _, nxt, _, _ in _successors(p, cfg, bound)[0]:
            if nxt in depth:
                assert depth[nxt] <= depth[cfg] + 1
                edges += 1
    if not result.state_budget_exhausted:
        assert edges == result.edge_count
    return depth


def test_each_parent_reaches_its_child_by_one_step_in_the_relay(relay_expr):
    assert_parents_fix_their_steps(explore(semantics(relay_expr), max_buffer_bound=2))


@pytest.mark.parametrize("call", ["violations", "step", "enabled_actions"])
def test_an_api_call_builds_only_its_configurations_row(relay_expr, monkeypatch, call):
    # One call on one configuration builds the row of that configuration's
    # control vector, and no other.
    s = semantics(relay_expr)
    configurations = explore(s, max_buffer_bound=2).discovery_order[::500]
    controls = [pack_configuration(s, c)[1].split(SEP)[0] for c in configurations]
    built: list[tuple[str, int]] = []
    build = PackedSystem.row

    def counted(self, control, sleep=0):
        built.append((control, sleep))
        return build(self, control, sleep)

    monkeypatch.setattr(PackedSystem, "row", counted)
    for c, control in zip(configurations, controls):
        built.clear()
        if call == "violations":
            violations(s, c)
        elif call == "step":
            step(s, c, Action.send("J", "M", "text"))
        else:
            enabled_actions(s, c)
        assert built == [(control, 0)], str(c)


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(1, 2))
def test_verdicts_under_every_state_budget(s, bound):
    # Each verdict names the first configuration in discovery order that the
    # oracle flags, also when the budget stops the walk before it expands
    # every admitted configuration.
    roles, tables, _ = plain_system(s)
    full = explore(s, max_buffer_bound=bound)
    flagged = {c: naive_violations(roles, tables, plain(c)) for c in full.discovery_order}
    for budget in range(1, len(flagged) + 1):
        result = explore(s, max_buffer_bound=bound, max_states=budget)
        report = report_from_exploration(s, result)
        for name in PREDICATES:
            first = next((c for c in result.discovery_order if name in flagged[c]), None)
            verdict = getattr(report, name)
            assert verdict.violated == (first is not None)
            assert verdict.witness_configuration == first


PROPERTY_NAMES = {DEADLOCK: "deadlock", ORPHAN_MESSAGE: "orphan_message",
                  UNSPECIFIED_RECEPTION: "unspecified_reception"}


def assert_walk_is_the_reference_walk(s, bound, max_states=500_000):
    # The whole record of the walk, in order, is the plain walk's: which
    # configurations, their order and parents, the edge count, the flags and
    # each property's first violator.
    result = explore(s, max_buffer_bound=bound, max_states=max_states)
    walk = naive_walk(s, bound, max_states)
    decode = result.packing.decode
    order = [plain(c) for c in result.discovery_order]
    assert order == walk.order
    assert [None if parent is None else plain(decode(parent))
            for parent in result.packed_parents.values()] == [walk.parents[c] for c in order]
    assert result.edge_count == walk.edge_count
    assert result.frontier_truncated == walk.truncated
    assert result.state_budget_exhausted == walk.exhausted
    assert {PROPERTY_NAMES[bit]: plain(decode(key))
            for bit, key in result.first_violations.items()} == walk.first
    return result


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.integers(1, 3))
def test_the_walk_is_the_reference_walk_under_every_budget(s, bound):
    # The walk builds no successor for a move of a sleeping role, but still
    # counts it, and when the budget stops it counts only the steps before
    # the refused one, in row order.  Every budget up to the full count, or
    # up to 250 for the few larger walks drawn, whose sweep would be slow.
    count = assert_walk_is_the_reference_walk(s, bound).configuration_count
    for budget in range(1, min(count, 250) + 1):
        assert_walk_is_the_reference_walk(s, bound, budget)


def count_skipped_steps(monkeypatch, s: CommunicatingSystem) -> list[int]:
    """Make ``explore`` of ``s`` add up its steps built and skipped, the
    moves it judges, and the moves its configurations' full rows hold."""
    counts = [0, 0, 0, 0]
    held: dict[str, int] = {}

    def counted(p, cfg, bound=math.inf, asleep=0, bits=0):
        out = _successors(p, cfg, bound, asleep, bits)
        control = cfg.split(SEP)[0]
        if control not in held:
            held[control] = sum(len(s[r].outgoing(states[ord(q) - 1]))
                                for r, q, states in zip(s.roles, control, p.states))
        counts[0] += len(out[0])
        counts[1] += bits.bit_count()
        counts[2] += len(p.rows[(control, asleep) if asleep else control][0])
        counts[3] += held[control]
        return out

    monkeypatch.setattr(cfsmkit.system, "_successors", counted)
    return counts


# Some budgets stop the walk at a configuration with skipped steps after the
# refused one (106, 183 and 883 do), which must not count.
@pytest.mark.parametrize("bound, budgets", [(1, (1, 2, 3, 106, 617)), (2, (57, 183, 2222)),
                                            (3, (883, 4444))])
def test_the_working_example_walk_is_the_reference_walk(data_dir, monkeypatch, bound, budgets):
    # Most of the working example's roles share no channel: the walk builds
    # well under half of its steps, and its record is still the plain walk's.
    expr = parse_gtir((data_dir / "composed.gtir").read_text(), load_global_types(str(data_dir)))
    s = semantics(expr)
    counts = count_skipped_steps(monkeypatch, s)
    result = assert_walk_is_the_reference_walk(s, bound)
    built, skipped, _, _ = counts
    assert built + skipped == result.edge_count
    assert skipped / result.edge_count > 0.6
    for budget in budgets:
        assert_walk_is_the_reference_walk(s, bound, budget)


def test_the_working_example_walk_judges_only_its_awake_roles(data_dir, monkeypatch):
    # At bound 4 most roles of most configurations are asleep, so the walk
    # judges under a third of the moves that the full rows hold.
    expr = parse_gtir((data_dir / "composed.gtir").read_text(), load_global_types(str(data_dir)))
    s = semantics(expr)
    counts = count_skipped_steps(monkeypatch, s)
    result = explore(s, max_buffer_bound=4)
    built, skipped, judged, held = counts
    assert (result.configuration_count, result.edge_count) == (27_574, 94_930)
    assert built + skipped == result.edge_count
    assert judged <= 0.35 * held


def sparse_systems(count: int, seed: int = 20261020):
    """``count`` seeded systems of 5-6 roles on a sparse partner graph, as
    ``small_systems`` draws them, so that long chains of sleeping roles are
    common."""
    rng = random.Random(seed)
    for _ in range(count):
        names = "ABCDEF"[:rng.randint(5, 6)]
        pairs = list(itertools.combinations(names, 2))
        links = sorted(rng.sample(pairs, rng.randint(2, len(names))))
        machines = {}
        for role in names:
            states = [f"s{i}" for i in range(rng.randint(1, 3))]
            partners = [b if a == role else a for a, b in links if role in (a, b)]
            transitions = []
            for _ in range(rng.randint(1, 4) if partners else 0):
                other, msg = rng.choice(partners), rng.choice("ab")
                act = (Action.send(role, other, msg) if rng.random() < 0.5
                       else Action.receive(other, role, msg))
                transitions.append((rng.choice(states), act, rng.choice(states)))
            machines[role] = Cfsm.make(role, "s0", transitions, extra_states=states)
        yield CommunicatingSystem(machines)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_five_and_six_role_walks_are_the_reference_walk(bound):
    # Deeper sleep sets than ``small_systems`` draws: steps carried across
    # several generations, under a few budgets too.
    for s in sparse_systems(40):
        count = assert_walk_is_the_reference_walk(s, bound, 3_000).configuration_count
        for budget in (1, 2, 5, 17, count // 2):
            if budget < count:
                assert_walk_is_the_reference_walk(s, bound, budget)


def test_judging_alone_builds_no_step(data_dir):
    # Bound 0 judges every role, lists no step and builds no successor: the
    # flags are those of a call that lists every step, and ``violations``'s.
    expr = parse_gtir((data_dir / "composed.gtir").read_text(), load_global_types(str(data_dir)))
    cases = [(semantics(expr), 4, 200), (ring_system(6, distinct_labels=True), 2, 100),
             (nul_named_system(), 2, 100)]
    flagged = 0
    for s, bound, count in cases:
        result = explore(s, max_buffer_bound=bound)
        p, keys = result.packing, list(result.packed_parents)
        for key in keys[::max(1, len(keys) // count)][:count]:
            steps, _, flags = _successors(p, key, 0)
            assert steps == []
            assert flags == _successors(p, key, bound)[2] == violations(s, p.decode(key))
            flagged += bool(flags)
    assert flagged


def test_violation_in_a_configuration_admitted_but_never_expanded():
    # A's first send ends in an orphan message; its second starts a pump.
    # With room for two configurations, the walk admits the orphan and stops
    # at the pump before expanding it.
    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q1"),
                              ("q0", Action.send("A", "B", "b"), "q2"),
                              ("q2", Action.send("A", "B", "b"), "q2")])
    s = CommunicatingSystem({"A": a, "B": Cfsm.make("B", "r0")})
    orphan = cfg({"A": "q1", "B": "r0"}, {AB: ["a"]})
    result = explore(s, max_states=2)
    assert result.state_budget_exhausted
    assert result.discovery_order == (initial_configuration(s), orphan)
    report = report_from_exploration(s, result)
    assert report.orphan_message.witness_configuration == orphan
    assert not report.deadlock.violated and not report.unspecified_reception.violated


# -- serialization and traces -------------------------------------------------

def test_system_round_trip(relay_expr):
    # The file format carries no alphabet field (a parsed machine's message
    # set is derived from its transitions), so round-tripping is bit-exact on
    # the text and exact on everything but unused alphabet entries.
    s = semantics(relay_expr)
    text = serialize_system(s)
    again = parse_system(text)
    assert serialize_system(again) == text
    assert set(again.roles) == set(s.roles)
    for role in s.roles:
        assert again[role].states == s[role].states
        assert again[role].initial == s[role].initial
        assert again[role].transitions == s[role].transitions


def test_witness_follows_every_target_of_a_nondeterministic_step():
    # A's first send may stay in s0 or move to s1; only s1 goes on to send a.
    a = Cfsm.make("A", "s0", [
        ("s0", Action.send("A", "B", "b"), "s0"),
        ("s0", Action.send("A", "B", "b"), "s1"),
        ("s1", Action.send("A", "B", "a"), "s0"),
    ])
    b = Cfsm.make("B", "t0", [("t0", Action.receive("A", "B", "b"), "t0")])
    s = CommunicatingSystem({"A": a, "B": b})
    result = explore(s, max_buffer_bound=1)
    verdict = report_from_exploration(s, result).unspecified_reception
    assert [str(act) for act in verdict.witness] == ["AB!b", "AB?b", "AB!a"]
    path, at = result.witness(UNSPECIFIED_RECEPTION)
    assert tuple(act for act, _ in path) == verdict.witness == result.trace_to(at)
    assert at == path[-1][1] == verdict.witness_configuration
    assert verdict.witness_digests == tuple(c.digest() for _, c in path)
    reached = initial_configuration(s)
    for act, c in path:
        assert c in step(s, reached, act)
        reached = c
    assert result.witness(DEADLOCK) is None
    with pytest.raises(SystemMismatchError):
        result.trace_to(cfg({"A": "s1", "B": "t0"}, {AB: ["a"]}))
