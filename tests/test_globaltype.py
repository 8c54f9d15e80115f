import pytest

from cfsmkit import (
    Action,
    Choice,
    End,
    GlobalTypeError,
    Loop,
    ParseError,
    ProjectionError,
    Role,
    Seq,
    UnknownRoleError,
    dualize,
    erase_channels,
    interaction,
    languages_equal,
    messages,
    parse_global_type,
    project,
    roles,
)
from cfsmkit.globaltype import check_projectable, first_interactions, tokenize
from conftest import RELAY_SRC, submitter_machine


# -- roles and messages -------------------------------------------------------

def test_roles_of_the_relay_protocol(relay_type):
    assert roles(relay_type) == frozenset(Role(r) for r in "MTCIJH")


def test_roles_of_end_and_single_interaction():
    assert roles(End()) == frozenset()
    assert roles(interaction("p", "q", "a")) == {Role("p"), Role("q")}


def test_messages_of_the_relay_protocol(relay_type):
    labels = {m.label for m in messages(relay_type)}
    assert labels == {"trialsNum", "text", "ack", "nack", "ok", "fail", "zero", "notzero", "reset"}


def test_interaction_endpoints_must_differ():
    with pytest.raises(GlobalTypeError):
        interaction("p", "p", "a")


def test_a_choice_needs_a_branch():
    with pytest.raises(GlobalTypeError, match="at least one branch"):
        Choice(Role("A"), ())


# -- projection ---------------------------------------------------------------

def test_project_single_interaction_sender():
    m = project(interaction("p", "q", "a"), "p")
    assert m.transitions == frozenset({("0", Action.send("p", "q", "a"), "1")})
    assert m.initial == "0"


def test_project_sequence_for_the_receiver():
    g = Seq((interaction("p", "q", "a"), interaction("q", "p", "b")))
    m = project(g, "q")
    assert m.transitions == frozenset({
        ("0", Action.receive("p", "q", "a"), "1"),
        ("1", Action.send("q", "p", "b"), "2"),
    })


def test_project_unknown_role_is_an_error(relay_type):
    with pytest.raises(UnknownRoleError):
        project(relay_type, "Z")
    with pytest.raises(UnknownRoleError):
        project(End(), "p")


def test_project_erases_other_roles(relay_type):
    m = project(relay_type, "T")
    assert m.transitions == frozenset({
        ("0", Action.receive("M", "T", "text"), "1"),
        ("1", Action.send("T", "M", "text"), "0"),
    })


def test_projection_mentions_only_the_projected_role(relay_type):
    for r in roles(relay_type):
        m = project(relay_type, r)
        for _, act, _ in m.transitions:
            assert r in (act.channel.sender, act.channel.receiver)


def test_relay_submitter_projection_matches_the_fixture_machine(relay_type):
    projected = project(relay_type, "J")
    fixture = submitter_machine()
    assert languages_equal(erase_channels(projected), erase_channels(fixture))
    # and per the compatibility route as well
    assert languages_equal(dualize(dualize(erase_channels(projected))),
                           erase_channels(fixture))


def test_loop_projects_to_a_back_edge():
    g = Seq((Loop(interaction("A", "B", "m")), interaction("A", "B", "done")))
    m = project(g, "A")
    assert m.transitions == frozenset({
        ("0", Action.send("A", "B", "m"), "0"),
        ("0", Action.send("A", "B", "done"), "1"),
    })


def test_counter_projection_merges_choice_contexts(relay_type):
    # The counter cannot see which branch the network picked; the merged
    # machine mixes its receive with its sends, which is accepted.
    m = project(relay_type, "C")
    assert len(m.states) == 2
    loops = {str(t[1]) for t in m.transitions if t[0] == t[2]}
    assert loops == {"CM!notzero", "CM!zero", "MC?reset"}


# -- the choice guard ---------------------------------------------------------

def test_guard_accepts_decider_led_choices(relay_type):
    check_projectable(relay_type)  # must not raise


def test_guard_rejects_non_decider_branch():
    g = Choice(Role("p"), (
        interaction("p", "q", "a"),
        interaction("q", "p", "b"),
    ))
    with pytest.raises(ProjectionError) as err:
        project(g, "p")
    assert err.value.role == Role("q")
    assert err.value.decider == Role("p")
    assert err.value.branch == 2


def test_guard_sees_through_nullable_prefixes():
    g = Choice(Role("p"), (
        Seq((Loop(interaction("p", "q", "a")), interaction("r", "q", "b"))),
    ))
    with pytest.raises(ProjectionError):
        check_projectable(g)


def test_first_interactions_nullability():
    g = Seq((Loop(interaction("p", "q", "a")), End()))
    firsts, nullable = first_interactions(g)
    assert nullable
    assert firsts == {interaction("p", "q", "a")}


# -- parsing ------------------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("A->B:\tm", [("ident", "A", 1, 1), ("op", "->", 1, 2), ("ident", "B", 1, 4),
                  ("op", ":", 1, 5), ("ident", "m", 1, 7), ("eof", "", 1, 8)]),
    ("A->B: m\r\nB->A: n", [("ident", "A", 1, 1), ("op", "->", 1, 2), ("ident", "B", 1, 4),
                            ("op", ":", 1, 5), ("ident", "m", 1, 7), ("ident", "B", 2, 1),
                            ("op", "->", 2, 2), ("ident", "A", 2, 4), ("op", ":", 2, 5),
                            ("ident", "n", 2, 7), ("eof", "", 2, 8)]),
    ("é²_x->B: m", [("ident", "é²_x", 1, 1), ("op", "->", 1, 5), ("ident", "B", 1, 7),
                    ("op", ":", 1, 8), ("ident", "m", 1, 10), ("eof", "", 1, 11)]),
    ("loop { A->B: m # tail", [("ident", "loop", 1, 1), ("op", "{", 1, 6), ("ident", "A", 1, 8),
                               ("op", "->", 1, 9), ("ident", "B", 1, 11), ("op", ":", 1, 12),
                               ("ident", "m", 1, 14), ("eof", "", 1, 16)]),
    ("connect (base t interfaces {H}) via H <-> K",
     [("ident", "connect", 1, 1), ("op", "(", 1, 9), ("ident", "base", 1, 10),
      ("ident", "t", 1, 15), ("ident", "interfaces", 1, 17), ("op", "{", 1, 28),
      ("ident", "H", 1, 29), ("op", "}", 1, 30), ("op", ")", 1, 31), ("ident", "via", 1, 33),
      ("ident", "H", 1, 37), ("op", "<->", 1, 39), ("ident", "K", 1, 43), ("eof", "", 1, 44)]),
    ("A->B: m!", "line 1, column 8: unexpected character '!'"),
    ("A<-B: m", "line 1, column 2: unexpected character '<'"),
    ("A - > B", "line 1, column 3: unexpected character '-'"),
    ("A\x0bB", "line 1, column 2: unexpected character '\\x0b'"),
    ("\ufeffA->B: m", "line 1, column 1: unexpected character '\\ufeff'"),
], ids=["tab", "crlf", "unicode-name", "trailing-comment", "connect-arrow",
        "bang", "lone-lt", "split-arrow", "vertical-tab", "inner-bom"])
def test_tokenize_pins_tokens_positions_and_errors(text, expected):
    try:
        got = [(t.kind, t.text, t.line, t.column) for t in tokenize(text)]
    except ParseError as exc:
        got = str(exc)
    assert got == expected


def test_parse_round_trip_structure(relay_type):
    assert parse_global_type(RELAY_SRC) == relay_type


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_global_type("A->B a")
    assert err.value.line == 1
    assert err.value.column == 6

    with pytest.raises(ParseError) as err:
        parse_global_type("A->B: x;\nchoice at {")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_global_type("loop { A->B: m # tail")
    assert str(err.value) == "line 1, column 16: expected '}', found ''"


def test_parse_rejects_self_interaction_with_location():
    with pytest.raises(ParseError) as err:
        parse_global_type("A->B: x;\nB->B: y")
    assert err.value.line == 2
    assert err.value.column == 1


def test_parse_handles_comments_and_trailing_separators():
    g = parse_global_type("# comment\nA->B: x;  # tail\nloop { B->A: y; };\n")
    assert g == Seq((interaction("A", "B", "x"), Loop(interaction("B", "A", "y"))))


def test_parse_end():
    assert parse_global_type("end") == End()


def test_parse_choice_branches():
    g = parse_global_type("choice at A { A->B: x or A->B: y; B->A: z }")
    assert isinstance(g, Choice)
    assert g.decider == Role("A")
    assert len(g.branches) == 2


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_global_type("A->B: x }")
