import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cfsmkit import (
    Action,
    Cfsm,
    CommunicatingSystem,
    gateway,
    languages_equal,
    erase_channels,
    parse_machine,
    project,
    serialize_machine,
    serialize_system,
)
from cfsmkit.cli import main
from cfsmkit.globaltype import MAX_NESTING
from conftest import clashing_machine, submitter_machine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- project ------------------------------------------------------------------

def test_project_writes_a_machine_file(data_dir, tmp_path, capsys):
    out = tmp_path / "j.cfsm"
    code, _, _ = run(capsys, "project", str(data_dir / "relay.gt"), "--role", "J",
                     "--out", str(out))
    assert code == 0
    machine = parse_machine(out.read_text())
    assert languages_equal(erase_channels(machine), erase_channels(submitter_machine()))


def test_project_unknown_role_exits_3(data_dir, capsys):
    code, _, err = run(capsys, "project", str(data_dir / "relay.gt"), "--role", "Z")
    assert code == 3
    assert "Z" in err


def test_project_role_absent_from_end_type(tmp_path, capsys):
    gt = tmp_path / "end.gt"
    gt.write_text("end\n")
    code, _, _ = run(capsys, "project", str(gt), "--role", "p")
    assert code == 3


def test_project_parse_error_exits_2_with_location(tmp_path, capsys):
    gt = tmp_path / "broken.gt"
    gt.write_text("A->B x")
    code, _, err = run(capsys, "project", str(gt), "--role", "A")
    assert code == 2
    assert "line 1" in err


def test_project_dot_output(data_dir, capsys):
    code, out, _ = run(capsys, "project", str(data_dir / "relay.gt"), "--role", "T",
                       "--format", "dot")
    assert code == 0
    assert out.startswith('digraph "T"')


# -- nesting limit ------------------------------------------------------------

def nested_loops(depth):
    return "loop { A->B: m; " * depth + "B->A: n" + " }" * depth + "\n"


def nested_choices(depth):
    return "choice at A { A->B: x; " * depth + "B->A: n" + " or A->B: y }" * depth + "\n"


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
def test_project_nesting_past_the_limit_exits_2(tmp_path, capsys, depth):
    gt = tmp_path / "deep.gt"
    gt.write_text(nested_loops(depth))
    code, out, err = run(capsys, "project", str(gt), "--role", "A")
    assert code == 2
    assert out == ""
    assert "nesting deeper than" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["(" * 1200 + "base g interfaces {}" + ")" * 1200,
                                  "connect " * 1200])
def test_check_nesting_past_the_limit_exits_2(tmp_path, capsys, text):
    (tmp_path / "g.gt").write_text("A->B: m\n")
    gtir = tmp_path / "deep.gtir"
    gtir.write_text(text + "\n")
    code, out, err = run(capsys, "check", str(gtir))
    assert code == 2
    assert out == ""
    assert "nesting deeper than" in err and "Traceback" not in err


def test_protocols_nested_at_the_limit_project_and_check(tmp_path, capsys):
    # The passes over a parsed protocol recurse too, so the limit must leave
    # them room.
    for name, protocol in (("loops", nested_loops), ("choices", nested_choices)):
        gt = tmp_path / f"{name}.gt"
        gt.write_text(protocol(MAX_NESTING))
        code, _, err = run(capsys, "project", str(gt), "--role", "B")
        assert code == 0, err
        gtir = tmp_path / f"{name}.gtir"
        gtir.write_text("(" * MAX_NESTING + f"base {name} interfaces {{}}" + ")" * MAX_NESTING)
        code, out, err = run(capsys, "check", str(gtir), "--bound", "1")
        assert code == 5, err  # safe so far, but the walk stopped at the bound
        assert "frontier truncated" in out


# -- compat -------------------------------------------------------------------

def test_compat_fixture_pair_exits_0(data_dir, capsys):
    code, out, _ = run(capsys, "compat", str(data_dir / "mj.cfsm"), str(data_dir / "mk.cfsm"))
    assert code == 0
    assert "compatible" in out


def test_compat_self_pair_reports_separating_word(data_dir, capsys):
    code, out, _ = run(capsys, "compat", str(data_dir / "mj.cfsm"), str(data_dir / "mj.cfsm"),
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["compatible"] is False
    assert doc["failures"][0]["kind"] == "language-mismatch"
    assert doc["failures"][0]["separating_word"] == ["!text"]


def test_compat_malformed_file_exits_2(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.cfsm"
    bad.write_text("{}")
    code, _, _ = run(capsys, "compat", str(bad), str(data_dir / "mk.cfsm"))
    assert code == 2


# -- gateway ------------------------------------------------------------------

def test_gateway_output_round_trips(data_dir, tmp_path, capsys):
    out = tmp_path / "gw.cfsm"
    code, _, _ = run(capsys, "gateway", str(data_dir / "mj.cfsm"), "--partner", "K",
                     "--out", str(out))
    assert code == 0
    machine = parse_machine(out.read_text())
    assert machine == gateway(submitter_machine(), "K")


def test_gateway_dot_matches_the_golden_file(data_dir, capsys):
    code, out, _ = run(capsys, "gateway", str(data_dir / "mj.cfsm"), "--partner", "K",
                       "--format", "dot")
    assert code == 0
    assert out == (data_dir / "gw_mj_k.dot").read_text()


def test_gateway_used_partner_exits_3(data_dir, capsys):
    code, _, _ = run(capsys, "gateway", str(data_dir / "mj.cfsm"), "--partner", "M")
    assert code == 3


def test_gateway_of_a_state_named_like_an_inserted_one_exits_3(tmp_path, capsys):
    # Its state 0^(0,JM!a,1) would merge with the one gateway inserts.
    path = tmp_path / "clash.cfsm"
    path.write_text(serialize_machine(clashing_machine()))
    code, out, err = run(capsys, "gateway", str(path), "--partner", "K")
    assert code == 3
    assert out == ""
    assert err.startswith("cfsmkit: ") and "0^(0,JM!a,1)" in err


def test_gateway_of_empty_machine_is_unchanged(tmp_path, capsys):
    from cfsmkit import Cfsm

    empty = Cfsm.make("H", "s0")
    path = tmp_path / "empty.cfsm"
    path.write_text(serialize_machine(empty))
    code, out, _ = run(capsys, "gateway", str(path), "--partner", "K")
    assert code == 0
    assert parse_machine(out) == empty


# -- check --------------------------------------------------------------------

def test_check_composed_fixture_is_inconclusive_but_safe(data_dir, capsys):
    code, out, _ = run(capsys, "check", str(data_dir / "composed.gtir"),
                       "--bound", "2", "--format", "json")
    assert code == 5
    doc = json.loads(out)
    verdicts = doc["reports"]["system"]["verdicts"]
    assert all(v["status"] == "safe-within-bound" for v in verdicts.values())


def test_check_deadlock_system_exits_4(data_dir, capsys):
    code, out, _ = run(capsys, "check", str(data_dir / "mutual_wait.system"),
                       "--format", "json")
    assert code == 4
    doc = json.loads(out)
    assert doc["reports"]["system"]["verdicts"]["deadlock"]["status"] == "violation"
    assert doc["reports"]["system"]["verdicts"]["deadlock"]["witness"] == []


def test_check_safe_complete_exits_0(tmp_path, capsys):
    from cfsmkit import Action, Cfsm, CommunicatingSystem, serialize_system

    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q1")])
    b = Cfsm.make("B", "r0", [("r0", Action.receive("A", "B", "a"), "r1")])
    path = tmp_path / "fine.system"
    path.write_text(serialize_system(CommunicatingSystem({"A": a, "B": b})))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "exhaustive" in out


@pytest.mark.parametrize("name, files", [
    ("nothing.gtir", {"nothing.gt": "end\n", "nothing.gtir": "base nothing interfaces {}\n"}),
    ("empty.system", {"empty.system": '{"machines": []}\n'}),
])
def test_check_of_a_system_without_roles_is_safe(tmp_path, capsys, name, files):
    # No machine waits in the one configuration of a system without roles,
    # so it is no deadlock.
    for file, text in files.items():
        (tmp_path / file).write_text(text)
    code, out, _ = run(capsys, "check", str(tmp_path / name), "--bound", "4")
    assert code == 0
    assert out.splitlines() == [
        "deadlock: safe (exploration exhaustive)",
        "orphan-message: safe (exploration exhaustive)",
        "unspecified-reception: safe (exploration exhaustive)",
        "explored 1 configurations, 0 edges, buffer bound 4",
    ]


def test_check_budget_exhaustion_exits_5(tmp_path, capsys):
    from cfsmkit import Action, Cfsm, CommunicatingSystem, serialize_system

    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q0")])
    b = Cfsm.make("B", "r0")
    path = tmp_path / "pump.system"
    path.write_text(serialize_system(CommunicatingSystem({"A": a, "B": b})))
    code, out, _ = run(capsys, "check", str(path), "--bound", "50",
                       "--max-states", "10", "--format", "json")
    assert code == 5
    doc = json.loads(out)
    assert doc["reports"]["system"]["stats"]["state_budget_exhausted"] is True


def test_check_invalid_expression_exits_3(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.gtir"
    bad.write_text("connect base relay interfaces {I, J, H} via H <-> K base alternator interfaces {K}\n")
    # H's language is not the screener's dual, so the connection is invalid.
    code, _, err = run(capsys, "check", str(bad), "--types", str(data_dir))
    assert code == 3
    assert "not a valid composition" in err


def test_check_with_a_missing_types_directory_exits_2(data_dir, tmp_path, capsys):
    # The error names the directory, not a base type it would have held.
    for types in (tmp_path / "missing", data_dir / "relay.gt"):
        code, out, err = run(capsys, "check", str(data_dir / "composed.gtir"), "--types", str(types))
        assert code == 2
        assert out == ""
        assert err == f"cfsmkit: cannot read {types}: not a directory\n"


def test_check_of_an_unprojectable_base_names_the_input(tmp_path, capsys):
    # The base type breaks the choice guard, so it has no projection: the
    # failure names the input file, as every other ``check`` failure does.
    (tmp_path / "bad.gt").write_text("choice at A { B->A: x or A->B: y }\n")
    bad = tmp_path / "bad.gtir"
    bad.write_text("base bad interfaces {}\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith(f"cfsmkit: {bad}: choice at A")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_check_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.system"
    bad.write_text("{broken json")
    code, _, _ = run(capsys, "check", str(bad))
    assert code == 2


def test_check_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.system"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("cfsmkit: cannot read")


def test_check_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "check", "/nonexistent/nothing.gtir")
    assert code == 2


def test_check_base_safety_flag(data_dir, capsys):
    code, out, _ = run(capsys, "check", str(data_dir / "composed.gtir"),
                       "--bound", "2", "--check-base-safety", "--format", "json")
    assert code == 5
    doc = json.loads(out)
    assert "component-0" in doc["reports"]
    assert "component-1" in doc["reports"]
    for report in doc["reports"].values():
        assert all(v["status"] != "violation" for v in report["verdicts"].values())


def test_bound_env_var_sets_the_default(data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CFSMKIT_BOUND", "2")
    code, out, _ = run(capsys, "check", str(data_dir / "mutual_wait.system"),
                       "--format", "json")
    assert code == 4
    doc = json.loads(out)
    assert doc["reports"]["system"]["stats"]["max_buffer_bound"] == 2


def test_jobs_flag_does_not_change_the_verdict(data_dir, capsys):
    code1, out1, _ = run(capsys, "check", str(data_dir / "composed.gtir"),
                         "--bound", "2", "--format", "json")
    code2, out2, _ = run(capsys, "check", str(data_dir / "composed.gtir"),
                         "--bound", "2", "--jobs", "2", "--format", "json")
    assert code1 == code2
    assert json.loads(out1) == json.loads(out2)


def fan_in_deadlock_system():
    # A and B each send to C, which receives in either order and then waits
    # for a third message; A and B wait for a reply.  The deadlock is reached
    # by several shortest paths, so the witness depends on which one the
    # breadth-first search records.
    def sender(role, message):
        q0, q1, q2 = (f"{role.lower()}{i}" for i in range(3))
        return Cfsm.make(role, q0, [(q0, Action.send(role, "C", message), q1),
                                    (q1, Action.receive("C", role, "done"), q2)])

    x, y = Action.receive("A", "C", "x"), Action.receive("B", "C", "y")
    c = Cfsm.make("C", "c0", [("c0", x, "c1"), ("c0", y, "c2"), ("c1", y, "c3"),
                              ("c2", x, "c3"), ("c3", x, "c4")])
    return CommunicatingSystem({"A": sender("A", "x"), "B": sender("B", "y"), "C": c})


def test_check_witness_is_identical_under_every_hash_seed(tmp_path):
    path = tmp_path / "fan_in.system"
    path.write_text(serialize_system(fan_in_deadlock_system()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in range(1, 6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "cfsmkit.cli", "check", str(path),
                               "--format", "json"],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 4, proc.stderr.decode()
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_check_json_matches_the_golden_report(tmp_path, data_dir, capsys):
    # The fan-in deadlock gives a report with a nonempty witness and digests.
    path = tmp_path / "fan_in.system"
    path.write_text(serialize_system(fan_in_deadlock_system()))
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 4
    assert out == (data_dir / "fan_in_deadlock.check.json").read_text()


# -- inputs that must end in exit 2, not a traceback ----------------------------

def assert_exits_2(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("cfsmkit: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [("check", "mutual_wait.system"),
                                  ("project", "relay.gt", "--role", "J")],
                         ids=["check", "project"])
def test_out_to_an_unwritable_path_exits_2(data_dir, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    command, name, *rest = argv
    err = assert_exits_2(capsys, command, str(data_dir / name), *rest, "--out", str(out))
    assert f"cannot write {out}" in err


@pytest.mark.parametrize("name, make", [
    ("bad.gt", lambda path: path.write_bytes(b"A->B: \xff\n")),
    ("dir.gt", lambda path: path.mkdir()),
], ids=["non-utf8", "directory"])
def test_unreadable_type_file_exits_2(data_dir, tmp_path, capsys, name, make):
    for path in [*data_dir.glob("*.gt"), data_dir / "composed.gtir"]:
        (tmp_path / path.name).write_text(path.read_text())
    make(tmp_path / name)
    err = assert_exits_2(capsys, "check", str(tmp_path / "composed.gtir"))
    assert name in err


@pytest.mark.parametrize("command, key", [("check", "machines"), ("compat", "subject")],
                         ids=["check", "compat"])
def test_json_nested_past_the_recursion_limit_exits_2(data_dir, tmp_path, capsys, command, key):
    path = tmp_path / "deep.json"
    path.write_text('{"%s": %s%s}' % (key, "[" * 5000, "]" * 5000))
    # ``compat`` parses its machine files with ``parse_machine``.
    extra = [str(data_dir / "mk.cfsm")] if command == "compat" else []
    assert_exits_2(capsys, command, str(path), *extra)


def test_type_file_parse_error_names_that_file_once(data_dir, tmp_path, capsys):
    for path in [*data_dir.glob("*.gt"), data_dir / "composed.gtir"]:
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "broken.gt").write_text("A->B x\n")
    err = assert_exits_2(capsys, "check", str(tmp_path / "composed.gtir"))
    assert err == f"cfsmkit: {tmp_path / 'broken.gt'}: line 1, column 6: expected ':', found 'x'\n"


def test_check_reports_an_unwritable_out_before_exploring(data_dir, tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("explored before opening --out")

    monkeypatch.setattr("cfsmkit.cli.check_safety", unreachable)
    out = tmp_path / "missing" / "out.txt"
    err = assert_exits_2(capsys, "check", str(data_dir / "composed.gtir"), "--bound", "5",
                         "--out", str(out))
    assert f"cannot write {out}" in err


@pytest.mark.parametrize("name, text, code", [
    ("bad.system", '{"machines": 1}', 2),
    ("bad.gtir", "connect base relay interfaces {I, J, H} via H <-> K "
                 "base alternator interfaces {K}\n", 3),
], ids=["unparseable", "invalid-expression"])
def test_check_leaves_out_untouched_when_the_input_fails(data_dir, tmp_path, capsys,
                                                          name, text, code):
    (tmp_path / name).write_text(text)
    out = tmp_path / "out.txt"
    out.write_text("earlier report\n")
    got, _, err = run(capsys, "check", str(tmp_path / name), "--types", str(data_dir),
                      "--out", str(out))
    assert got == code and "Traceback" not in err
    assert out.read_text() == "earlier report\n"


# -- exit codes of mutated inputs ---------------------------------------------

DATA_DIR = Path(__file__).parent / "data"

# Characters the input languages give meaning to, plus a few names.
SYNTAX = "{}[]()<>:;,.-!?\"'#\\ \n\tabzIJKM01"
JSON_KEYS = ["subject", "states", "initial", "transitions", "machines", "from", "to",
             "channel", "sender", "receiver", "dir", "msg"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2) | st.sampled_from(["", "!", "?", "J", "K", "1", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(JSON_KEYS), inner,
                                                                   max_size=3),
    max_leaves=5)


@st.composite
def mutated_text(draw, text: str) -> str:
    """``text`` with one to four spans deleted, duplicated or replaced."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        edit = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + draw(st.text(SYNTAX, max_size=6)) + text[j:]
    return text


@st.composite
def mutated_json(draw, text: str) -> str:
    """The JSON document ``text`` with one to three nodes replaced, removed,
    or given a sibling."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        parents = []

        def walk(node):
            if isinstance(node, (dict, list)):
                parents.append(node)
                for child in (node.values() if isinstance(node, dict) else node):
                    walk(child)

        walk(doc)
        node = draw(st.sampled_from(parents))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        edit = draw(st.sampled_from(["replace", "remove", "add"]))
        if edit == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(JSON_KEYS))] = draw(JSON_VALUES)
            else:
                node.append(draw(JSON_VALUES))
        elif edit == "remove":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
    return json.dumps(doc)


def mutants(name: str):
    text = (DATA_DIR / name).read_text()
    if name.endswith((".cfsm", ".system")):
        return mutated_text(text) | mutated_json(text)
    return mutated_text(text)


# Each case mutates one of its files, copied with the others into a
# temporary directory, and runs commands on them: {file} is the mutant, {dir}
# the temporary directory and {data} the unchanged data directory.
FUZZ_CASES = {
    "gt": (["relay.gt", "alternator.gt"],
           [["project", "{file}", "--role", "J"], ["project", "{file}", "--role", "K"]]),
    "gtir": (["composed.gtir", "relay.gt", "alternator.gt"],
             [["check", "{dir}/composed.gtir", "--bound", "1", "--max-states", "300"],
              ["check", "{dir}/composed.gtir", "--bound", "1", "--max-states", "300",
               "--check-base-safety", "--format", "json"]]),
    "machine": (["mj.cfsm", "mk.cfsm"],
                [["compat", "{file}", "{data}/mk.cfsm"], ["gateway", "{file}", "--partner", "K"]]),
    "system": (["mutual_wait.system"],
               [["check", "{file}", "--bound", "2", "--max-states", "300"]]),
}


@pytest.mark.parametrize("kind", sorted(FUZZ_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_a_documented_code(kind, data):
    # Whatever the input, the CLI returns a code of the documented taxonomy
    # instead of raising, and only ``compat`` says "incompatible" (1).  A
    # ``check`` that rejects its input names a file of the mutated copy.
    names, commands = FUZZ_CASES[kind]
    name = data.draw(st.sampled_from(names))
    with tempfile.TemporaryDirectory() as tmp:
        for seed in names:
            (Path(tmp) / seed).write_text((DATA_DIR / seed).read_text())
        (Path(tmp) / name).write_text(data.draw(mutants(name)))
        for command in commands:
            argv = [a.format(file=Path(tmp) / name, dir=tmp, data=DATA_DIR) for a in command]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in range(6), (argv, err.getvalue())
            assert code != 1 or command[0] == "compat", (argv, err.getvalue())
            if command[0] == "check" and code in (2, 3):
                # An input failure names the input it found at fault.
                first = err.getvalue().partition("\n")[0]
                assert first.startswith("cfsmkit: ") and tmp in first, (argv, first)
