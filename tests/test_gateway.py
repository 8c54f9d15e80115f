import random

import pytest
from hypothesis import given, settings, strategies as st

from cfsmkit import (
    Action,
    Cfsm,
    Direction,
    GatewayPreconditionError,
    GatewayShapeError,
    GatewayState,
    StateKind,
    classify_state,
    contract,
    gateway,
    has_mixed_states,
    inserted_states,
    is_isomorphic,
)
from cfsmkit.cfsm import transition_sort_key
from conftest import clashing_machine
from generators import random_machine


def test_submitter_gateway_matches_the_expected_machine(mj, fig_gw_j):
    gw = gateway(mj, "K")
    assert len(gw.states) == 5
    assert len(gw.transitions) == 6
    assert is_isomorphic(gw, fig_gw_j)


def test_screener_gateway_matches_the_expected_machine(mk, fig_gw_k):
    gw = gateway(mk, "J")
    assert len(gw.states) == 10
    assert len(gw.transitions) == 12
    assert is_isomorphic(gw, fig_gw_k)


def test_gateway_transitions_spotcheck(mj):
    gw = gateway(mj, "K")
    mid = GatewayState("1", ("1", Action.send("J", "M", "text"), "2")).name()
    assert ("1", Action.receive("K", "J", "text"), mid) in gw.transitions
    assert (mid, Action.send("J", "M", "text"), "2") in gw.transitions


def test_gateway_of_empty_machine_is_identical():
    m = Cfsm.make("H", "s0")
    assert gateway(m, "K") == m


def test_gateway_preconditions(mj):
    with pytest.raises(GatewayPreconditionError):
        gateway(mj, "J")  # the machine's own subject
    with pytest.raises(GatewayPreconditionError):
        gateway(mj, "M")  # already mentioned by a channel


def test_gateway_refuses_a_state_named_like_an_inserted_one():
    m = clashing_machine()
    assert GatewayState("0", ("0", Action.send("J", "M", "a"), "1")).name() in m.states
    with pytest.raises(GatewayPreconditionError, match=r"0\^\(0,JM!a,1\)"):
        gateway(m, "K")


def test_inserted_state_names_encode_the_transition(mj):
    gw = gateway(mj, "K")
    new = gw.states - mj.states
    assert new == {
        "1^(1,JM!text,2)",
        "2^(2,MJ?ok,1)",
        "2^(2,MJ?fail,1)",
    }
    assert inserted_states(gw) == new


def test_structural_counts_and_degrees(mj, mk):
    rng = random.Random(42)
    samples = [mj, mk] + [random_machine(rng) for _ in range(40)]
    for m in samples:
        partner = "K" if m.subject.name != "K" else "Z"
        gw = gateway(m, partner)
        assert len(gw.states) == len(m.states) + len(m.transitions)
        assert len(gw.transitions) == 2 * len(m.transitions)
        ins = inserted_states(gw)
        assert len(ins) == len(m.transitions)
        incoming = {q: 0 for q in gw.states}
        outgoing = {q: 0 for q in gw.states}
        for src, act, dst in gw.transitions:
            outgoing[src] += 1
            incoming[dst] += 1
        for q in ins:
            assert incoming[q] == 1
            assert outgoing[q] == 1
            (out,) = gw.outgoing(q)
            assert out[1].direction is Direction.SEND
        # Carried-over states only receive.
        for q in gw.states - ins:
            assert all(t[1].direction is Direction.RECEIVE for t in gw.outgoing(q))


def test_gateway_has_no_mixed_states():
    rng = random.Random(17)
    for _ in range(40):
        m = random_machine(rng)
        assert not has_mixed_states(gateway(m, "K"))


def test_classification_of_carried_states_is_preserved(mj, mk):
    for m in (mj, mk):
        gw = gateway(m, "K" if m.subject.name != "K" else "Z")
        for q in m.states:
            kind = classify_state(m, q)
            if kind in (StateKind.RECEIVING, StateKind.FINAL):
                assert classify_state(gw, q) is kind


def test_contraction_recovers_the_original(mj, mk):
    rng = random.Random(23)
    samples = [mj, mk] + [random_machine(rng) for _ in range(40)]
    for m in samples:
        partner = "K" if m.subject.name != "K" else "Z"
        assert contract(gateway(m, partner), partner) == m


def test_contract_rejects_machines_without_gateway_shape(mj):
    # The second machine's only transition, and the third's stray receive
    # from the partner, have no place in the gateway of any machine.
    forwarder = gateway(Cfsm.make("H", "0", [("0", Action.send("H", "A", "x"), "1")]), "K")
    stray = ("1", Action.receive("K", "H", "y"), "0")
    for g in (mj,
              Cfsm.make("H", "0", [("0", Action.receive("A", "H", "x"), "1")]),
              Cfsm.make("H", "0", forwarder.transitions | {stray})):
        with pytest.raises(GatewayShapeError, match=f"machine {g.subject} is not a gateway toward K"):
            contract(g, "K")


@settings(deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_contract_of_a_mutated_gateway_raises_or_round_trips(rng):
    # Drop, add or retarget one transition of a gateway: whatever ``contract``
    # returns must have the mutant as its gateway.
    gw = gateway(random_machine(rng), "K")
    transitions = sorted(gw.transitions, key=transition_sort_key)
    states = sorted(gw.states)
    edit = rng.choice(["drop", "add", "retarget"] if transitions else ["add"])
    if edit != "add":
        src, act, dst = transitions.pop(rng.randrange(len(transitions)))
    if edit != "drop":
        if edit == "add":
            src, other, msg = rng.choice(states), rng.choice(["K", "P"]), rng.choice("ab")
            act = rng.choice([Action.send("H", other, msg), Action.receive(other, "H", msg)])
        transitions.append((src, act, rng.choice(states)))
    mutated = Cfsm.make("H", gw.initial, transitions, extra_states=states)
    try:
        m2 = contract(mutated, "K")
    except GatewayShapeError:
        return
    assert is_isomorphic(gateway(m2, "K"), mutated)


def test_gateway_state_provenance():
    original = GatewayState("1")
    assert not original.inserted
    assert original.name() == "1"
    t = ("1", Action.send("J", "M", "text"), "2")
    mid = GatewayState("1", t)
    assert mid.inserted
    assert mid.name() == "1^(1,JM!text,2)"
