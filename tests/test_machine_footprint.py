"""A machine holds only its definition: checks leave it as built, and it
copies and pickles as a plain value, also into another process."""

import copy
import gc
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

from cfsmkit import Action, Cfsm, CommunicatingSystem, check_safety
from cfsmkit.cfsm import machine_to_doc
from conftest import fresh_interpreter_env
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


# The child scripts run in tests/, so that they import conftest's running
# example.  Each builds the submitter machine J, its gateway toward K, the
# composed relay system and that system's initial configuration.
RELAY_VALUES = """
import pickle, sys
from conftest import ALTERNATOR_SRC, RELAY_SRC, submitter_machine
from cfsmkit import (base, check_safety, connect, contract, enabled_actions, gateway,
                     initial_configuration, is_isomorphic, parse_global_type, semantics, step)

def relay_values():
    mj = submitter_machine()
    s = semantics(connect(base(parse_global_type(RELAY_SRC), ["I", "J", "H"]), "J",
                          base(parse_global_type(ALTERNATOR_SRC), ["K"]), "K"))
    return mj, gateway(mj, "K"), s, initial_configuration(s)
"""

PICKLE_RELAY_VALUES = RELAY_VALUES + """
with open(sys.argv[1], "wb") as f:
    pickle.dump(relay_values(), f)
"""

COMPARE_WITH_FRESH_VALUES = RELAY_VALUES + """
with open(sys.argv[1], "rb") as f:
    mj, g, s, c = pickle.load(f)
fresh_mj, fresh_g, fresh_s, fresh_c = relay_values()
assert contract(g, "K") == mj == fresh_mj
for m, fresh in [(mj, fresh_mj), (g, fresh_g), *((s[r], fresh_s[r]) for r in fresh_s.roles)]:
    assert is_isomorphic(m, fresh)
    assert m == fresh and hash(m) == hash(fresh)
    assert all(t in m.transitions and t in fresh.transitions for t in m.transitions)
assert s == fresh_s and s.roles == fresh_s.roles
assert c == fresh_c and hash(c) == hash(fresh_c)
assert check_safety(s, 2) == check_safety(fresh_s, 2)
assert enabled_actions(s, c) == enabled_actions(fresh_s, fresh_c)
for a in enabled_actions(fresh_s, fresh_c):
    assert step(s, c, a) == step(fresh_s, fresh_c, a)
"""


def test_values_pickled_under_one_hash_seed_load_under_another(tmp_path):
    path = tmp_path / "relay.pickle"
    for seed, script in (("1", PICKLE_RELAY_VALUES), ("2", COMPARE_WITH_FRESH_VALUES)):
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              cwd=Path(__file__).parent,
                              env=fresh_interpreter_env(PYTHONHASHSEED=seed),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
