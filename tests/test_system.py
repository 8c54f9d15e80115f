import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cfsmkit import (
    Action,
    Cfsm,
    Channel,
    CommunicatingSystem,
    Configuration,
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
    is_deadlock,
    is_orphan_message,
    is_unspecified_reception,
    parse_system,
    semantics,
    serialize_system,
    step,
)
from cfsmkit.safety import report_from_exploration
from cfsmkit.system import (
    DEADLOCK,
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
    with pytest.raises(InvalidSystemError):
        CommunicatingSystem({"X": mj})


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
    assert len(result.transition_edges) == 2


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
    result = explore(pump_system(), max_buffer_bound=2)
    moved_any = False
    for src, act, dst in result.transition_edges:
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


def test_edge_targets_agree_with_step():
    s = handoff_system()
    result = explore(s, max_buffer_bound=2)
    for src, act, dst in result.transition_edges:
        assert dst in step(s, src, act)


def test_trace_to_replays_to_the_target():
    s = handoff_system()
    result = explore(s, max_buffer_bound=1)
    target = cfg({"A": "q1", "B": "r1"})
    trace = result.trace_to(target)
    assert trace == (Action.send("A", "B", "a"), Action.receive("A", "B", "a"))


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


def test_composed_edges_replay_through_step(relay_expr):
    s = semantics(relay_expr)
    result = explore(s, max_buffer_bound=1)
    sample = sorted(result.transition_edges,
                    key=lambda e: (e[0].control, e[0].buffers, e[1]))[::7][:150]
    for src, act, dst in sample:
        assert dst in step(s, src, act)


def test_every_reachable_configuration_is_connected(relay_expr):
    s = semantics(relay_expr)
    result = explore(s, max_buffer_bound=1)
    for cfg in result.reachable:
        trace = result.trace_to(cfg)  # raises if disconnected
        assert len(trace) >= 0


def test_parallel_exploration_is_identical(relay_expr):
    # ``jobs`` is accepted and ignored: the walk is sequential.
    s = semantics(relay_expr)
    seq = explore(s, max_buffer_bound=2)
    par = explore(s, max_buffer_bound=2, jobs=3)
    assert seq.discovery_order == par.discovery_order
    assert seq.parents == par.parents
    assert seq.edge_count == par.edge_count


def test_parents_are_recorded_at_discovery(relay_expr):
    # Each configuration's recorded parent was discovered before it, one
    # breadth-first level closer to the initial configuration, and the
    # recorded action steps from the parent to the child.
    s = semantics(relay_expr)
    result = explore(s, max_buffer_bound=1)
    position = {c: i for i, c in enumerate(result.discovery_order)}
    depth = {}
    for child, parent in result.parents.items():
        if parent is None:
            assert child == result.initial
            depth[child] = 0
            continue
        src, act = parent
        assert position[src] < position[child]
        assert child in step(s, src, act)
        depth[child] = depth[src] + 1
    for src, _, dst in result.transition_edges:
        assert depth[dst] <= depth[src] + 1
    assert len(result.transition_edges) == result.edge_count


@st.composite
def small_systems(draw):
    """Systems of 2-3 roles, each machine with at most 3 states."""
    names = ["A", "B", "C"][:draw(st.integers(2, 3))]
    machines = {}
    for role in names:
        states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
        partners = [r for r in names if r != role]
        transitions = []
        for _ in range(draw(st.integers(0, 4))):
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
    assert result.edge_count == len(result.transition_edges)
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


@pytest.mark.parametrize("bound, rows", [(1, 204), (2, 216), (4, 216)])
def test_each_walk_builds_one_row_per_control_vector(relay_expr, monkeypatch, bound, rows):
    built: list[int] = []
    build = PackedSystem.row

    def counted(self, control):
        built.append(control)
        return build(self, control)

    monkeypatch.setattr(PackedSystem, "row", counted)
    result = explore(semantics(relay_expr), max_buffer_bound=bound)
    assert len(built) == len(set(built)) == rows
    assert set(built) == {cfg[0] for cfg in result.packed_parents}
    assert len({c.control for c in result.discovery_order}) == rows


def assert_parents_fix_their_steps(result):
    # The walk records only each configuration's parent, the stored key object
    # itself, and the action is recovered from the parent's successors: exactly
    # one of them reaches the configuration.
    keys = {id(cfg) for cfg in result.packed_parents}
    for cfg, parent in result.packed_parents.items():
        if parent is None:
            continue
        assert id(parent) in keys
        succ = _successors(result.packing, parent, result.max_buffer_bound)[0]
        assert sum(nxt == cfg for _, nxt in succ) == 1


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(1, 3))
def test_each_parent_reaches_its_child_by_one_step(s, bound):
    assert_parents_fix_their_steps(explore(s, max_buffer_bound=bound))


def test_each_parent_reaches_its_child_by_one_step_in_the_relay(relay_expr):
    assert_parents_fix_their_steps(explore(semantics(relay_expr), max_buffer_bound=2))


@pytest.mark.parametrize("call", ["violations", "step", "enabled_actions"])
def test_an_api_call_builds_only_its_configurations_row(relay_expr, monkeypatch, call):
    # The engine has no per-state table: one call on one configuration builds
    # the row of that configuration's control vector, and no other.
    s = semantics(relay_expr)
    configurations = explore(s, max_buffer_bound=2).discovery_order[::500]
    controls = [pack_configuration(s, c)[1][0] for c in configurations]
    built: list[int] = []
    build = PackedSystem.row

    def counted(self, control):
        built.append(control)
        return build(self, control)

    monkeypatch.setattr(PackedSystem, "row", counted)
    for c, control in zip(configurations, controls):
        built.clear()
        if call == "violations":
            violations(s, c)
        elif call == "step":
            step(s, c, Action.send("J", "M", "text"))
        else:
            enabled_actions(s, c)
        assert built == [control], str(c)


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
    reached = result.initial
    for act, c in path:
        assert c in step(s, reached, act)
        reached = c
    assert result.witness(DEADLOCK) is None
    with pytest.raises(SystemMismatchError):
        result.trace_to(cfg({"A": "s1", "B": "t0"}, {AB: ["a"]}))


def test_stored_configurations_share_one_int_per_control_vector(relay_expr):
    # A row holds its moves' target control vectors, the same int object for
    # the same vector in every row, so the stored configurations do not each
    # hold an int of their own.
    result = explore(semantics(relay_expr), max_buffer_bound=4)
    controls = {id(cfg[0]) for cfg in result.packed_parents}
    assert len(controls) <= len(result.packing.rows) + 1
