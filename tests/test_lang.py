import random
import re

import pytest

from cfsmkit import (
    Action,
    Cfsm,
    Direction,
    ErasedAutomaton,
    ErasedSymbol,
    Message,
    dualize,
    erase_channels,
    languages_equal,
    separating_word,
)
from generators import random_erased_automaton, renamed_copy
from oracles import erased_words_up_to


def sym(text: str) -> ErasedSymbol:
    return ErasedSymbol(Direction(text[0]), Message(text[1:]))


def test_erase_submitter(mj):
    erased = erase_channels(mj)
    assert erased.transitions == frozenset({
        ("1", sym("!text"), "2"),
        ("2", sym("?ok"), "1"),
        ("2", sym("?fail"), "1"),
    })
    assert erased.initial == "1"


def test_erase_empty_machine_recognizes_epsilon():
    erased = erase_channels(Cfsm.make("H", "s0"))
    assert erased.transitions == frozenset()
    assert erased_words_up_to(erased, 3) == frozenset({()})


def test_erasure_can_merge_channels_into_nondeterminism():
    m = Cfsm.make("H", "q", [
        ("q", Action.send("H", "P", "a"), "q1"),
        ("q", Action.send("H", "R", "a"), "q2"),
    ])
    erased = erase_channels(m)
    assert erased.move(frozenset({"q"}), sym("!a")) == frozenset({"q1", "q2"})


def test_dualize_flips_directions():
    aut = ErasedAutomaton(frozenset({"0", "1"}), "0", frozenset({sym("!a")}),
                          frozenset({("0", sym("!a"), "1")}))
    dual = dualize(aut)
    assert dual.transitions == frozenset({("0", sym("?a"), "1")})


def test_dualize_is_an_involution(mj, mk):
    for m in (mj, mk):
        erased = erase_channels(m)
        assert dualize(dualize(erased)) == erased


def test_dual_of_submitter_matches_screener(mj, mk):
    # The screener accepts the dual of the submitter's erased language.
    assert languages_equal(dualize(erase_channels(mj)), erase_channels(mk))


def test_fixture_languages_equal(mj, mk):
    assert languages_equal(erase_channels(mj), dualize(erase_channels(mk)))


def test_deleting_a_branch_separates_the_languages(mj):
    pruned = Cfsm.make("J", "1", [
        t for t in mj.transitions if t[1].message != Message("fail")
    ], extra_states=mj.states)
    a = erase_channels(mj)
    b = erase_channels(pruned)
    word = separating_word(a, b)
    assert word == (sym("!text"), sym("?fail"))
    # Independent check: enumerate both languages up to length 3.
    wa = erased_words_up_to(a, 3)
    wb = erased_words_up_to(b, 3)
    assert word in wa - wb


@pytest.mark.parametrize("initial, transitions, message", [
    ("y", [], "initial state 'y' not among the states"),
    ("x", [("x", sym("!a"), "y")], "transition 'x' -> 'y' leaves the state set"),
    ("x", [("x", sym("!b"), "x")], "symbol !b not in the alphabet"),
], ids=["initial", "endpoint", "symbol"])
def test_an_automaton_keeps_to_its_states_and_alphabet(initial, transitions, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ErasedAutomaton(frozenset({"x"}), initial, frozenset({sym("!a")}), frozenset(transitions))


def test_two_empty_automata_are_equal():
    a = ErasedAutomaton(frozenset({"x"}), "x", frozenset(), frozenset())
    b = ErasedAutomaton(frozenset({"y"}), "y", frozenset(), frozenset())
    assert languages_equal(a, b)


def test_language_equality_is_an_equivalence_relation():
    rng = random.Random(7)
    automata = [random_erased_automaton(rng) for _ in range(10)]
    for a in automata:
        assert languages_equal(a, a)
    for a in automata:
        for b in automata:
            assert languages_equal(a, b) == languages_equal(b, a)
    for a in automata:
        for b in automata:
            for c in automata:
                if languages_equal(a, b) and languages_equal(b, c):
                    assert languages_equal(a, c)


def test_renamed_machine_has_equal_language(mk):
    rng = random.Random(3)
    erased = erase_channels(mk)
    assert languages_equal(erased, renamed_copy(rng, erased))


def test_bounded_oracle_agreement():
    # Exhaustive word enumeration up to length 6 must agree with the decision
    # procedure on every sampled pair.
    rng = random.Random(11)
    for _ in range(60):
        a = random_erased_automaton(rng)
        b = random_erased_automaton(rng)
        equal = languages_equal(a, b)
        bounded_equal = erased_words_up_to(a, 6) == erased_words_up_to(b, 6)
        if not equal:
            word = separating_word(a, b)
            assert word is not None and len(word) <= 6
        assert equal == bounded_equal


def test_erased_languages_are_prefix_closed():
    # Every state accepts, so every prefix of an accepted word is accepted.
    rng = random.Random(21)
    for _ in range(25):
        aut = random_erased_automaton(rng)
        words = erased_words_up_to(aut, 5)
        for word in words:
            assert word[:-1] in words or not word


def test_separating_word_is_none_only_for_equal_languages():
    rng = random.Random(13)
    for _ in range(40):
        a = random_erased_automaton(rng)
        b = random_erased_automaton(rng)
        word = separating_word(a, b)
        wa = erased_words_up_to(a, 6)
        wb = erased_words_up_to(b, 6)
        if word is not None and len(word) <= 6:
            assert (word in wa) != (word in wb)
