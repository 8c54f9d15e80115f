import random

from cfsmkit import (
    Action,
    Cfsm,
    Channel,
    CommunicatingSystem,
    Configuration,
    Role,
    VerdictStatus,
    check_safety,
    is_deadlock,
    is_orphan_message,
    is_unspecified_reception,
    render_report,
    report_to_doc,
    semantics,
    step,
)
from generators import random_machine
from oracles import naive_bounded_safety


def ch(a, b):
    return Channel(Role(a), Role(b))


def mutual_wait_system():
    a = Cfsm.make("A", "q0", [("q0", Action.receive("B", "A", "x"), "q1")])
    b = Cfsm.make("B", "r0", [("r0", Action.receive("A", "B", "y"), "r1")])
    return CommunicatingSystem({"A": a, "B": b})


def orphan_system():
    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q1")])
    b = Cfsm.make("B", "r0", extra_states=["r0"], messages=["a"])
    return CommunicatingSystem({"A": a, "B": b})


# -- deadlock -----------------------------------------------------------------

def test_deadlock_at_mutual_wait_initial():
    s = mutual_wait_system()
    assert is_deadlock(s, Configuration.make({"A": "q0", "B": "r0"}))


def test_no_deadlock_with_a_nonempty_buffer():
    s = mutual_wait_system()
    c = Configuration.make({"A": "q0", "B": "r0"}, {ch("B", "A"): ["x"]})
    assert not is_deadlock(s, c)


def test_no_deadlock_when_some_machine_is_final():
    # Final is not receiving: a finished machine rules the deadlock shape out.
    s = mutual_wait_system()
    c = Configuration.make({"A": "q1", "B": "r0"})
    assert not is_deadlock(s, c)


# -- orphan message -----------------------------------------------------------

def test_orphan_when_all_final_and_buffer_nonempty():
    s = orphan_system()
    c = Configuration.make({"A": "q1", "B": "r0"}, {ch("A", "B"): ["a"]})
    assert is_orphan_message(s, c)


def test_no_orphan_with_empty_buffers():
    s = orphan_system()
    assert not is_orphan_message(s, Configuration.make({"A": "q1", "B": "r0"}))


def test_no_orphan_when_somebody_can_still_move():
    s = orphan_system()
    c = Configuration.make({"A": "q0", "B": "r0"}, {ch("A", "B"): ["a"]})
    assert not is_orphan_message(s, c)  # A is sending, not final


# -- unspecified reception ----------------------------------------------------

def ur_fixture(buffers):
    r = Cfsm.make("R", "q", [
        ("q", Action.receive("S", "R", "a"), "q1"),
        ("q", Action.receive("T", "R", "c"), "q2"),
    ])
    s_ = Cfsm.make("S", "s0", [("s0", Action.send("S", "R", "a"), "s1"),
                               ("s0", Action.send("S", "R", "b"), "s1")])
    t_ = Cfsm.make("T", "t0", [("t0", Action.send("T", "R", "c"), "t1")])
    system = CommunicatingSystem({"R": r, "S": s_, "T": t_})
    return system, Configuration.make({"R": "q", "S": "s1", "T": "t1"}, buffers)


def test_unspecified_when_the_only_head_is_unreceivable():
    r = Cfsm.make("R", "q", [("q", Action.receive("S", "R", "a"), "q1")])
    s_ = Cfsm.make("S", "s0", [("s0", Action.send("S", "R", "a"), "s1"),
                               ("s0", Action.send("S", "R", "b"), "s1")])
    system = CommunicatingSystem({"R": r, "S": s_})
    c = Configuration.make({"R": "q", "S": "s1"}, {ch("S", "R"): ["b"]})
    assert is_unspecified_reception(system, c)


def test_no_unspecified_reception_on_an_empty_buffer():
    r = Cfsm.make("R", "q", [("q", Action.receive("S", "R", "a"), "q1")])
    s_ = Cfsm.make("S", "s0", [("s0", Action.send("S", "R", "b"), "s1")])
    system = CommunicatingSystem({"R": r, "S": s_})
    c = Configuration.make({"R": "q", "S": "s1"})
    assert not is_unspecified_reception(system, c)


def test_one_receivable_channel_clears_the_blockage():
    # The universal reading: every consumable channel must be blocked.  Here
    # channel TR's head is receivable, so the configuration is fine.
    system, c = ur_fixture({ch("S", "R"): ["b"], ch("T", "R"): ["c"]})
    assert not is_unspecified_reception(system, c)
    # Direct evaluation of the same clause, written independently:
    def formula(system, c):
        machine = system["R"]
        chans = {}
        for _, act, _ in machine.outgoing("q"):
            if act.direction.value == "?":
                chans.setdefault(act.channel, set()).add(act.message)
        return all(c.buffer(chan) and c.buffer(chan)[0] not in msgs
                   for chan, msgs in chans.items())
    assert not formula(system, c)
    blocked_both = {ch("S", "R"): ["b"], ch("T", "R"): ["a"]}
    system2, c2 = ur_fixture(blocked_both)
    assert formula(system2, c2) == is_unspecified_reception(system2, c2) == True  # noqa: E712


# -- buffers on channels no transition uses -----------------------------------

def test_predicates_see_a_buffer_on_an_unused_channel():
    # No transition uses CA, yet a configuration may buffer on it: the
    # buffer is nonempty for deadlock and orphan message, and it is no
    # receiving machine's head.
    a = Cfsm.make("A", "q0", [("q0", Action.receive("B", "A", "x"), "q1")])
    b = Cfsm.make("B", "r0", [("r0", Action.receive("A", "B", "y"), "r1")])
    c = Cfsm.make("C", "c0", [("c0", Action.receive("A", "C", "w"), "c1")])
    s = CommunicatingSystem({"A": a, "B": b, "C": c})
    waiting = {"A": "q0", "B": "r0", "C": "c0"}
    done = {"A": "q1", "B": "r1", "C": "c1"}
    stray = {ch("C", "A"): ["z"]}
    assert is_deadlock(s, Configuration.make(waiting))
    assert not is_deadlock(s, Configuration.make(waiting, stray))
    assert not is_unspecified_reception(s, Configuration.make(waiting, stray))
    assert not is_orphan_message(s, Configuration.make(done))
    assert is_orphan_message(s, Configuration.make(done, stray))


# -- check_safety -------------------------------------------------------------

def test_composed_example_is_safe_within_bound(relay_expr):
    report = check_safety(semantics(relay_expr), max_buffer_bound=2)
    assert not report.has_violation
    assert report.deadlock.status is VerdictStatus.SAFE_WITHIN_BOUND
    assert report.stats.frontier_truncated


def test_mutual_wait_yields_deadlock_with_empty_witness():
    report = check_safety(mutual_wait_system())
    assert report.deadlock.status is VerdictStatus.VIOLATION
    assert report.deadlock.witness == ()
    assert not report.orphan_message.violated
    assert not report.unspecified_reception.violated


def test_orphan_violation_after_one_send():
    report = check_safety(orphan_system())
    assert report.orphan_message.status is VerdictStatus.VIOLATION
    assert report.orphan_message.witness == (Action.send("A", "B", "a"),)


def test_safe_complete_on_a_finite_protocol():
    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q1")])
    b = Cfsm.make("B", "r0", [("r0", Action.receive("A", "B", "a"), "r1")])
    report = check_safety(CommunicatingSystem({"A": a, "B": b}))
    assert report.conclusive
    assert report.deadlock.status is VerdictStatus.SAFE_COMPLETE


def test_budget_exhaustion_is_reported_not_raised():
    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q0")])
    b = Cfsm.make("B", "r0")
    report = check_safety(CommunicatingSystem({"A": a, "B": b}),
                          max_buffer_bound=50, max_states=10)
    assert report.stats.state_budget_exhausted
    assert report.deadlock.status is VerdictStatus.SAFE_WITHIN_BOUND


def test_witness_replays_to_a_violating_configuration():
    for system, predicate in ((mutual_wait_system(), is_deadlock),
                              (orphan_system(), is_orphan_message)):
        report = check_safety(system)
        verdict = [v for v in report.verdicts().values() if v.violated][0]
        configs = {Configuration.make({r.name: system[r].initial for r in system.roles})}
        for act in verdict.witness:
            configs = set().union(*(step(system, c, act) for c in configs))
            assert configs
        assert verdict.witness_configuration in configs
        assert predicate(system, verdict.witness_configuration)


def test_deadlock_and_orphan_are_disjoint(relay_expr):
    # Deadlock needs empty buffers and receiving states; orphan nonempty
    # buffers and final states.
    from cfsmkit import explore

    s = semantics(relay_expr)
    result = explore(s, max_buffer_bound=2)
    for cfg in result.discovery_order:
        assert not (is_deadlock(s, cfg) and is_orphan_message(s, cfg))


def test_agreement_with_the_naive_enumerator_small_batch():
    rng = random.Random(99)
    for _ in range(150):
        machines = {}
        for name, partner in (("A", "B"), ("B", "A")):
            machines[name] = random_machine(rng, subject=name, partners=(partner,),
                                            max_states=3, max_transitions=3)
        system = CommunicatingSystem(machines)
        report = check_safety(system, max_buffer_bound=2)
        expected = naive_bounded_safety(system, bound=2)
        assert report.deadlock.violated == expected["deadlock"]
        assert report.orphan_message.violated == expected["orphan_message"]
        assert report.unspecified_reception.violated == expected["unspecified_reception"]


# -- rendering ----------------------------------------------------------------

def test_render_report_text():
    text = render_report(check_safety(mutual_wait_system()))
    assert "deadlock: VIOLATION" in text
    assert "orphan-message" in text
    assert "explored" in text


def test_report_doc_is_schema_versioned():
    doc = report_to_doc(check_safety(orphan_system()))
    assert doc["schema"] == "cfsmkit.safety-report/1"
    assert doc["verdicts"]["orphan-message"]["status"] == "violation"
    assert doc["verdicts"]["orphan-message"]["witness"] == ["AB!a"]
    assert doc["stats"]["configurations"] > 0
