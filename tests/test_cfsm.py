import json

import pytest
from hypothesis import given, strategies as st

from cfsmkit import (
    Action,
    Cfsm,
    Channel,
    Direction,
    InvalidMachineError,
    MachineFormatError,
    Message,
    Role,
    StateKind,
    UnknownStateError,
    classify_state,
    has_mixed_states,
    is_io_deterministic,
    is_isomorphic,
    is_receive_deterministic,
    is_send_deterministic,
    machine_to_dot,
    parse_machine,
    serialize_machine,
)
from cfsmkit.cfsm import transition_sort_key


def empty_machine(subject="H"):
    return Cfsm.make(subject, "s0")


# -- construction invariants --------------------------------------------------

def test_initial_must_be_a_state():
    with pytest.raises(InvalidMachineError):
        Cfsm(Role("H"), frozenset({"a"}), "b", frozenset(), frozenset())


def test_channel_endpoints_must_differ():
    with pytest.raises(InvalidMachineError):
        Channel(Role("A"), Role("A"))


def test_role_and_message_names_nonempty():
    with pytest.raises(InvalidMachineError):
        Role("")
    with pytest.raises(InvalidMachineError):
        Message("")


def test_transitions_must_involve_subject():
    foreign = Action.send("P", "Q", "a")
    with pytest.raises(InvalidMachineError):
        Cfsm.make("H", "s0", [("s0", foreign, "s1")])


def test_transition_message_must_be_declared():
    act = Action.send("H", "P", "a")
    with pytest.raises(InvalidMachineError):
        Cfsm(Role("H"), frozenset({"s0", "s1"}), "s0", frozenset(), frozenset({("s0", act, "s1")}))


def test_unreachable_states_are_allowed():
    m = Cfsm.make("H", "s0", [], extra_states=["s0", "lonely"])
    assert "lonely" in m.states


# -- classification -----------------------------------------------------------

def test_classify_submitter_states(mj):
    assert classify_state(mj, "1") is StateKind.SENDING
    assert classify_state(mj, "2") is StateKind.RECEIVING


def test_classify_final_on_empty_machine():
    m = empty_machine()
    assert classify_state(m, "s0") is StateKind.FINAL


def test_classify_mixed():
    m = Cfsm.make("H", "q", [
        ("q", Action.send("H", "P", "a"), "q1"),
        ("q", Action.receive("R", "H", "b"), "q2"),
    ])
    assert classify_state(m, "q") is StateKind.MIXED
    assert has_mixed_states(m)


def test_classify_unknown_state_is_an_error(mj):
    with pytest.raises(UnknownStateError):
        classify_state(mj, "99")


# -- determinism predicates ---------------------------------------------------

def test_screener_is_receive_deterministic(mk):
    assert is_receive_deterministic(mk)


def test_receive_determinism_ignores_channels():
    # Same message from two different senders must agree on the target.
    bad = Cfsm.make("H", "q", [
        ("q", Action.receive("P", "H", "a"), "q1"),
        ("q", Action.receive("R", "H", "a"), "q2"),
    ])
    assert not is_receive_deterministic(bad)
    ok = Cfsm.make("H", "q", [
        ("q", Action.receive("P", "H", "a"), "q1"),
        ("q", Action.receive("P", "H", "b"), "q2"),
    ])
    assert is_receive_deterministic(ok)


def test_submitter_is_send_deterministic(mj):
    assert is_send_deterministic(mj)


def test_send_determinism_ignores_channels():
    bad = Cfsm.make("H", "q", [
        ("q", Action.send("H", "P", "a"), "q1"),
        ("q", Action.send("H", "R", "a"), "q2"),
    ])
    assert not is_send_deterministic(bad)


def test_empty_machine_is_deterministic():
    assert is_send_deterministic(empty_machine())
    assert is_io_deterministic(empty_machine())


def test_io_determinism_examples(mj, mk):
    assert is_io_deterministic(mj)
    assert is_io_deterministic(mk)
    bad = Cfsm.make("H", "q", [
        ("q", Action.receive("P", "H", "a"), "q1"),
        ("q", Action.receive("R", "H", "a"), "q2"),
    ])
    assert not is_io_deterministic(bad)


def test_sort_key_orders_a_send_before_a_receive():
    # Same state, channel, label and target: only the direction differs, and
    # it orders as its text does, "!" before "?".
    send = ("q", Action.send("A", "B", "m"), "q")
    receive = ("q", Action.receive("A", "B", "m"), "q")
    assert "!" < "?"
    assert transition_sort_key(send) < transition_sort_key(receive)
    assert sorted([receive, send], key=transition_sort_key) == [send, receive]


def test_action_text_is_stored_once():
    send, receive = Action.send("J", "M", "text"), Action.receive("M", "J", "ok")
    assert (str(send), str(receive)) == ("JM!text", "MJ?ok")
    assert str(send) is str(send)
    assert send == Action.send("J", "M", "text") and hash(send) == hash(Action.send("J", "M", "text"))


def test_no_mixed_states_in_fixtures(mj, mk):
    assert not has_mixed_states(mj)
    assert not has_mixed_states(mk)
    assert not has_mixed_states(empty_machine())


# -- property tests -----------------------------------------------------------

@st.composite
def machines(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    states = [f"s{i}" for i in range(n)]
    n_tr = draw(st.integers(min_value=0, max_value=8))
    transitions = []
    for _ in range(n_tr):
        src = draw(st.sampled_from(states))
        dst = draw(st.sampled_from(states))
        other = draw(st.sampled_from(["P", "Q"]))
        msg = draw(st.sampled_from(["a", "b"]))
        if draw(st.booleans()):
            act = Action.send("H", other, msg)
        else:
            act = Action.receive(other, "H", msg)
        transitions.append((src, act, dst))
    return Cfsm.make("H", "s0", transitions, extra_states=states)


@given(machines())
def test_classification_partitions(m):
    for q in m.states:
        kind = classify_state(m, q)
        outs = m.outgoing(q)
        dirs = {t[1].direction for t in outs}
        expected = (StateKind.FINAL if not outs
                    else StateKind.SENDING if dirs == {Direction.SEND}
                    else StateKind.RECEIVING if dirs == {Direction.RECEIVE}
                    else StateKind.MIXED)
        assert kind is expected


@given(machines())
def test_io_determinism_is_the_conjunction(m):
    assert is_io_deterministic(m) == (is_receive_deterministic(m) and is_send_deterministic(m))


@given(machines())
def test_classification_invariant_under_renaming(m):
    mapping = {q: f"r_{q}" for q in m.states}
    renamed = m.renamed(mapping)
    for q in m.states:
        assert classify_state(m, q) is classify_state(renamed, mapping[q])
    assert is_io_deterministic(m) == is_io_deterministic(renamed)
    assert has_mixed_states(m) == has_mixed_states(renamed)


# -- isomorphism --------------------------------------------------------------

def test_isomorphic_to_renamed_copy(mk):
    renamed = mk.renamed({q: f"state_{q}" for q in mk.states})
    assert is_isomorphic(mk, renamed)


def test_not_isomorphic_when_transition_dropped(mk):
    smaller = Cfsm.make("K", "1", set(list(sorted(mk.transitions, key=str))[:-1]),
                        extra_states=mk.states)
    assert not is_isomorphic(mk, smaller)


def test_not_isomorphic_when_subject_differs():
    # Without transitions, the subject is all that tells the machines apart.
    assert not is_isomorphic(Cfsm.make("A", "q"), Cfsm.make("B", "q"))
    assert is_isomorphic(Cfsm.make("A", "q"), Cfsm.make("A", "r"))


def test_not_isomorphic_when_initial_moved(mj):
    moved = Cfsm(mj.subject, mj.states, "2", mj.messages, mj.transitions)
    assert not is_isomorphic(mj, moved)


# -- serialization ------------------------------------------------------------

def test_machine_round_trip(mj, mk):
    for m in (mj, mk):
        text = serialize_machine(m)
        again = parse_machine(text)
        assert again == m
        assert serialize_machine(again) == text  # parse . serialize = identity


def test_serialized_form_is_canonical(mj):
    doc = json.loads(serialize_machine(mj))
    assert doc["states"] == sorted(doc["states"])
    keys = [(t["from"], t["channel"]["sender"], t["channel"]["receiver"],
             t["dir"], t["msg"], t["to"]) for t in doc["transitions"]]
    assert keys == sorted(keys)


def test_parse_rejects_malformed_documents():
    with pytest.raises(MachineFormatError):
        parse_machine("not json")
    with pytest.raises(MachineFormatError):
        parse_machine(json.dumps({"subject": "J"}))
    with pytest.raises(MachineFormatError):
        parse_machine(json.dumps({
            "subject": "J", "states": ["1"], "initial": "1",
            "transitions": [{"from": "1", "to": "2", "channel": {"sender": "J", "receiver": "M"},
                             "dir": "!", "msg": "text"}],
        }))  # target state not declared
    with pytest.raises(MachineFormatError, match="'transitions' must be a list"):
        parse_machine(json.dumps({"subject": "J", "states": ["1"], "initial": "1",
                                  "transitions": {}}))
    with pytest.raises(MachineFormatError, match="state identifiers must be nonempty strings"):
        parse_machine(json.dumps({"subject": "J", "states": ["1", ""], "initial": "1",
                                  "transitions": []}))


@pytest.mark.parametrize("path", [("from",), ("to",), ("msg",),
                                  ("channel", "sender"), ("channel", "receiver")])
@pytest.mark.parametrize("value", [7, "", None])
def test_transition_names_must_be_nonempty_strings(path, value):
    doc = {"subject": "J", "states": ["1"], "initial": "1",
           "transitions": [{"from": "1", "to": "1", "channel": {"sender": "J", "receiver": "M"},
                            "dir": "!", "msg": "text"}]}
    parse_machine(json.dumps(doc))
    record = doc["transitions"][0]
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value
    with pytest.raises(MachineFormatError, match="nonempty strings"):
        parse_machine(json.dumps(doc))


def test_dot_export_labels_actions(mj):
    dot = machine_to_dot(mj)
    assert dot.startswith('digraph "J"')
    assert '"1" -> "2" [label="JM!text"];' in dot
    assert '"2" -> "1" [label="MJ?fail"];' in dot
