from pathlib import Path

import pytest

from cfsmkit import Action, Cfsm, base, connect, parse_global_type

DATA_DIR = Path(__file__).parent / "data"

# The running example: a text-relay service (manager M, transformer T,
# counter C) with environment roles I (initializer), J (submitter), and
# H (network), connectable to an alternating two-producer client system
# (A, B) through its screener interface K.

RELAY_SRC = """\
# Text relay: M manages, T transforms, C counts retries.
# Environment: I initializes, J submits text and gets ok/fail, H accepts
# or rejects each transmission.
I->C: trialsNum;
loop {
  J->M: text;
  loop {
    M->T: text;
    T->M: text;
    M->H: text;
    H->M: nack;
    C->M: notzero
  };
  M->T: text;
  T->M: text;
  M->H: text;
  choice at H {
    H->M: ack;
    M->C: reset;
    M->J: ok
  or
    H->M: nack;
    C->M: zero;
    M->J: fail
  }
}
"""

ALTERNATOR_SRC = """\
# Producers A and B alternate; each retries its text until the screener K
# accepts it.
loop {
  loop { A->K: text; K->A: fail };
  A->K: text;
  K->A: ok;
  loop { B->K: text; K->B: fail };
  B->K: text;
  K->B: ok
}
"""


def clashing_machine() -> Cfsm:
    """A machine whose state ``0^(0,JM!a,1)`` bears the name ``gateway``
    would give the state it inserts into ``0 -JM!a-> 1``."""
    taken = "0^(0,JM!a,1)"
    return Cfsm.make("J", "0", [("0", Action.send("J", "M", "a"), "1"),
                                ("1", Action.receive("M", "J", "b"), taken),
                                (taken, Action.receive("M", "J", "c"), "0")])


def submitter_machine() -> Cfsm:
    """The submitter J: send text, await ok or fail, repeat."""
    return Cfsm.make("J", "1", [
        ("1", Action.send("J", "M", "text"), "2"),
        ("2", Action.receive("M", "J", "ok"), "1"),
        ("2", Action.receive("M", "J", "fail"), "1"),
    ])


def screener_machine() -> Cfsm:
    """The screener K: take A's text, reply, then B's, reply, repeat."""
    return Cfsm.make("K", "1", [
        ("1", Action.receive("A", "K", "text"), "2"),
        ("2", Action.send("K", "A", "ok"), "3"),
        ("2", Action.send("K", "A", "fail"), "1"),
        ("3", Action.receive("B", "K", "text"), "4"),
        ("4", Action.send("K", "B", "ok"), "1"),
        ("4", Action.send("K", "B", "fail"), "3"),
    ])


def submitter_gateway_expected() -> Cfsm:
    """gateway(J-machine, K), states named by hand."""
    return Cfsm.make("J", "1", [
        ("1", Action.receive("K", "J", "text"), "1^"),
        ("1^", Action.send("J", "M", "text"), "2"),
        ("2", Action.receive("M", "J", "ok"), "2'^"),
        ("2'^", Action.send("J", "K", "ok"), "1"),
        ("2", Action.receive("M", "J", "fail"), "2''^"),
        ("2''^", Action.send("J", "K", "fail"), "1"),
    ])


def screener_gateway_expected() -> Cfsm:
    """gateway(K-machine, J), states named by hand."""
    return Cfsm.make("K", "1", [
        ("1", Action.receive("A", "K", "text"), "1^"),
        ("1^", Action.send("K", "J", "text"), "2"),
        ("2", Action.receive("J", "K", "ok"), "2'^"),
        ("2'^", Action.send("K", "A", "ok"), "3"),
        ("2", Action.receive("J", "K", "fail"), "2''^"),
        ("2''^", Action.send("K", "A", "fail"), "1"),
        ("3", Action.receive("B", "K", "text"), "3^"),
        ("3^", Action.send("K", "J", "text"), "4"),
        ("4", Action.receive("J", "K", "ok"), "4''^"),
        ("4''^", Action.send("K", "B", "ok"), "1"),
        ("4", Action.receive("J", "K", "fail"), "4'^"),
        ("4'^", Action.send("K", "B", "fail"), "3"),
    ])


@pytest.fixture
def mj() -> Cfsm:
    return submitter_machine()


@pytest.fixture
def mk() -> Cfsm:
    return screener_machine()


@pytest.fixture
def fig_gw_j() -> Cfsm:
    return submitter_gateway_expected()


@pytest.fixture
def fig_gw_k() -> Cfsm:
    return screener_gateway_expected()


@pytest.fixture(scope="session")
def relay_type():
    return parse_global_type(RELAY_SRC)


@pytest.fixture(scope="session")
def alternator_type():
    return parse_global_type(ALTERNATOR_SRC)


@pytest.fixture(scope="session")
def relay_expr(relay_type, alternator_type):
    return connect(base(relay_type, ["I", "J", "H"]), "J",
                   base(alternator_type, ["K"]), "K")


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
