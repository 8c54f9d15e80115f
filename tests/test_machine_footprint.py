"""A machine holds only its definition: checks leave it as built, and it
copies and pickles as a plain value."""

import copy
import gc
import pickle
import random
import tracemalloc

from cfsmkit import Action, Cfsm, CommunicatingSystem, check_safety
from cfsmkit.cfsm import machine_to_doc
from generators import random_machine


def two_role_systems(n: int, seed: int) -> list[CommunicatingSystem]:
    rng = random.Random(seed)
    return [CommunicatingSystem({"A": random_machine(rng, "A", ("B",), 3, 4),
                                 "B": random_machine(rng, "B", ("A",), 3, 4)})
            for _ in range(n)]


def deadlocked_system() -> CommunicatingSystem:
    return CommunicatingSystem({
        "A": Cfsm.make("A", "a0", [("a0", Action.receive("B", "A", "m"), "a1")]),
        "B": Cfsm.make("B", "b0", [("b0", Action.receive("A", "B", "m"), "b1")]),
    })


def test_a_check_leaves_its_machines_as_built():
    # Warm up first, so that what a first check loads for good (the digest of
    # a witness step imports hashlib) is not counted below.
    for s in two_role_systems(5, 0) + [deadlocked_system()]:
        check_safety(s, max_buffer_bound=2)
    systems = two_role_systems(100, 1)
    machines = [s[r] for s in systems for r in s.roles]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in systems:
            check_safety(s, max_buffer_bound=2)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not any(hasattr(m, "__dict__") for m in machines)
    # A table cached on each machine would hold hundreds of bytes apiece.
    assert grown < 16 * len(machines), f"{grown} bytes still held after the checks"


def test_a_slotted_machine_survives_pickle_and_deepcopy(mk):
    for copied in (pickle.loads(pickle.dumps(mk)), copy.deepcopy(mk)):
        assert copied is not mk
        assert copied == mk and hash(copied) == hash(mk)
        assert machine_to_doc(copied) == machine_to_doc(mk)
        assert all(copied.outgoing(q) == mk.outgoing(q) for q in mk.states)
        assert not hasattr(copied, "__dict__")
