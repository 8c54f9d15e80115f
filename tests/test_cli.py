import argparse
import codecs
import contextlib
import io
import json
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
from cfsmkit.cfsm import CfsmError
from cfsmkit.cli import build_parser, main
from cfsmkit.globaltype import MAX_NESTING, parse_global_type
from cfsmkit.gtir import load_global_types, parse_gtir
from cfsmkit.system import parse_system
from conftest import clashing_machine, fresh_interpreter_env, submitter_machine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_in_a_fresh_interpreter(*argv, **variables):
    return subprocess.run([sys.executable, "-m", "cfsmkit.cli", *map(str, argv)],
                          env=fresh_interpreter_env(**variables), capture_output=True,
                          timeout=60)


# -- project ------------------------------------------------------------------

def test_project_writes_a_machine_file(data_dir, tmp_path, capsys):
    out = tmp_path / "j.cfsm"
    code, _, _ = run(capsys, "project", str(data_dir / "relay.gt"), "--role", "J",
                     "--out", str(out))
    assert code == 0
    machine = parse_machine(out.read_text())
    assert languages_equal(erase_channels(machine), erase_channels(submitter_machine()))


def test_project_unknown_role_exits_3(data_dir, capsys):
    for role, message in [("Z", "role Z does not occur in the global type"),
                          ("", "role name must be a nonempty string")]:
        code, out, err = run(capsys, "project", str(data_dir / "relay.gt"), "--role", role)
        assert (code, out, err) == (3, "", f"cfsmkit: {message}\n")


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


def test_project_through_a_nested_choice(tmp_path, capsys):
    # The choice guard looks through an inner choice for the interactions a
    # branch can open with: here all are sent by the decider A.
    gt = tmp_path / "nested.gt"
    gt.write_text("choice at A { choice at A { A->B: x or A->B: y } or A->B: z }\n")
    code, out, _ = run(capsys, "project", str(gt), "--role", "B")
    assert code == 0
    assert sorted(str(act) for _, act, _ in parse_machine(out).transitions) == [
        "AB?x", "AB?y", "AB?z"]


def test_project_names_the_branch_a_nested_choice_opens_wrongly(tmp_path, capsys):
    # Branch 1 opens with the inner choice, whose interactions B sends.
    gt = tmp_path / "nested.gt"
    gt.write_text("choice at A { choice at B { B->A: x or B->A: y } or A->B: z }\n")
    code, out, err = run(capsys, "project", str(gt), "--role", "B")
    assert code == 3
    assert out == ""
    assert err == (f"cfsmkit: {gt}: choice at A: branch 1 can open with B->A:x, "
                   "sent by B rather than the decider\n")


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
    assert out == "compatible\n"


def test_compat_self_pair_reports_separating_word(data_dir, capsys):
    code, out, _ = run(capsys, "compat", str(data_dir / "mj.cfsm"), str(data_dir / "mj.cfsm"),
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["compatible"] is False
    assert doc["failures"][0]["kind"] == "language-mismatch"
    assert doc["failures"][0]["separating_word"] == ["!text"]


@pytest.mark.parametrize("extra, failure, line", [
    (("2", Action.send("J", "M", "text"), "2"),
     {"kind": "mixed-state", "role": "J", "state": "2"},
     "machine J has mixed state '2'"),
    (("1", Action.send("J", "M", "text"), "1"),
     {"kind": "not-io-deterministic", "role": "J",
      "witness": ["1 -JM!text-> 1", "1 -JM!text-> 2"]},
     "machine J is not ?!-deterministic: 1 -JM!text-> 1 vs 1 -JM!text-> 2"),
], ids=["mixed-state", "not-io-deterministic"])
def test_compat_json_documents_each_kind_of_failure(data_dir, tmp_path, capsys, extra, failure,
                                                    line):
    # The extra send of the submitter J also lets it send text twice in a row.
    # The JSON document lists each failure, and the text report says each.
    left = tmp_path / "j.cfsm"
    left.write_text(serialize_machine(
        Cfsm.make("J", "1", set(submitter_machine().transitions) | {extra})))
    argv = ("compat", str(left), str(data_dir / "mk.cfsm"))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "schema": "cfsmkit.compat/1",
        "compatible": False,
        "failures": [{"kind": "language-mismatch", "separating_word": ["!text", "!text"]},
                     failure],
    }
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == ("incompatible:\n  - language mismatch, separated by !text·!text\n"
                   f"  - {line}\n")


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
    for partner, message in [("M", "partner role M already occurs in the machine's channels"),
                             ("", "role name must be a nonempty string")]:
        code, out, err = run(capsys, "gateway", str(data_dir / "mj.cfsm"), "--partner", partner)
        assert (code, out, err) == (3, "", f"cfsmkit: {message}\n")


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


@pytest.mark.parametrize("text, where, message", [
    ("base relay interfaces {I, Q}\n", "line 1, column 6",
     "interface roles must occur in the global type; unknown: ['Q']"),
    ("base relay interfaces {I}\nbase alternator interfaces {K}\n", "line 2, column 1",
     "unexpected 'base' after the expression"),
    ("connect\n  base relay interfaces {I, J, H}\nvia J <-> I\n  base relay interfaces {I, J, H}\n",
     "line 3, column 5",
     "connected expressions must have disjoint roles; shared: ['C', 'H', 'I', 'J', 'M', 'T']"),
], ids=["unknown-interface", "second-base", "shared-roles"])
def test_check_expression_parse_error_exits_2_with_location(data_dir, tmp_path, capsys,
                                                              text, where, message):
    bad = tmp_path / "bad.gtir"
    bad.write_text(text)
    code, out, err = run(capsys, "check", str(bad), "--types", str(data_dir))
    assert code == 2
    assert out == ""
    assert err == f"cfsmkit: {bad}: {where}: {message}\n"


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


def test_a_leading_bom_is_ignored(data_dir, tmp_path, capsys):
    for name in ("mutual_wait.system", "relay.gt", "alternator.gt", "composed.gtir"):
        (tmp_path / name).write_bytes(codecs.BOM_UTF8 + (data_dir / name).read_bytes())
    for command, code in ((("check", "mutual_wait.system"), 4),
                          (("check", "composed.gtir", "--bound", "2"), 5),
                          (("project", "relay.gt", "--role", "M"), 0)):
        verb, name, *options = command
        plain = run(capsys, verb, str(data_dir / name), *options)
        assert plain[0] == code
        assert run(capsys, verb, str(tmp_path / name), *options) == plain


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


def test_every_check_option_has_help_text():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a.help for a in commands.choices["check"]._actions if a.dest != "help"}
    assert {"file", "bound", "max_states", "format"} <= options.keys()
    for dest, text in options.items():
        assert text, dest
    assert "1000000" in options["max_states"] and "memory" in options["max_states"]


@pytest.mark.parametrize("option", ["--bound", "--max-states", "--jobs"])
def test_check_option_below_1_exits_2(data_dir, capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(data_dir / "mutual_wait.system"), option, "0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"cfsmkit: error: {option} must be at least 1"


@pytest.mark.parametrize("value, message", [
    ("0", "CFSMKIT_BOUND must be positive, got 0"),
    ("x", "CFSMKIT_BOUND must be an integer, got 'x'"),
])
def test_bad_bound_env_var_exits_2(data_dir, capsys, monkeypatch, value, message):
    monkeypatch.setenv("CFSMKIT_BOUND", value)
    code, out, err = run(capsys, "check", str(data_dir / "mutual_wait.system"))
    assert code == 2
    assert out == ""
    assert err == f"cfsmkit: {message}\n"


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
    outputs = set()
    for seed in range(1, 6):
        proc = cli_in_a_fresh_interpreter("check", path, "--format", "json",
                                          PYTHONHASHSEED=str(seed))
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


def test_check_text_matches_the_golden_report(tmp_path, data_dir, capsys):
    # The text report numbers each witness step and prints its digest.
    path = tmp_path / "fan_in.system"
    path.write_text(serialize_system(fan_in_deadlock_system()))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 4
    assert out == (data_dir / "fan_in_deadlock.check.txt").read_text()


def test_a_violation_found_only_after_the_budget_abort_reads_the_same_under_each_hash_seed(
        data_dir):
    # With room for two configurations the walk admits A's orphan message,
    # then stops at the pump before expanding it: only the judging of the
    # configurations admitted but never expanded finds the violation.
    expected = (data_dir / "late_orphan.check.txt").read_bytes()
    for seed in ("1", "4242"):
        proc = cli_in_a_fresh_interpreter("check", data_dir / "late_orphan.system",
                                          "--max-states", "2", PYTHONHASHSEED=seed)
        assert proc.returncode == 4, proc.stderr.decode()
        assert proc.stdout == expected


# Runs ``cfsmkit check`` in a fresh interpreter, since pytest and hypothesis
# import hashlib here, and reports on stderr which hash modules it loaded.
CHECK_AND_LIST_HASH_MODULES = """\
import json, sys
from cfsmkit.cli import main
code = main(["check", *sys.argv[1:]])
print(json.dumps(sorted({"hashlib", "_hashlib"} & set(sys.modules))), file=sys.stderr)
sys.exit(code)
"""


def check_in_a_fresh_interpreter(*argv):
    proc = subprocess.run([sys.executable, "-c", CHECK_AND_LIST_HASH_MODULES, *map(str, argv)],
                          env=fresh_interpreter_env(), capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_only_a_witness_loads_hashlib(data_dir, tmp_path):
    # Loading hashlib maps OpenSSL's libcrypto, about 3.8 MB resident, and
    # only a witness step's digest needs it.
    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "a"), "q1")])
    b = Cfsm.make("B", "r0", [("r0", Action.receive("A", "B", "a"), "r1")])
    fine = tmp_path / "fine.system"
    fine.write_text(serialize_system(CommunicatingSystem({"A": a, "B": b})))
    fan_in = tmp_path / "fan_in.system"
    fan_in.write_text(serialize_system(fan_in_deadlock_system()))

    code, _, loaded = check_in_a_fresh_interpreter(data_dir / "composed.gtir", "--bound", "2")
    assert (code, loaded) == (5, [])
    code, _, loaded = check_in_a_fresh_interpreter(fine)
    assert (code, loaded) == (0, [])
    code, out, loaded = check_in_a_fresh_interpreter(fan_in)
    assert (code, "hashlib" in loaded) == (4, True)
    assert out == (data_dir / "fan_in_deadlock.check.txt").read_text()


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


TWICE_A = json.dumps({"machines": 2 * [json.loads(serialize_machine(Cfsm.make("A", "q0")))]})


@pytest.mark.parametrize("name, text, code, message", [
    ("bad.system", '{"machines": 1}', 2, "must be an object with a 'machines' list"),
    ("twice.system", TWICE_A, 2, "duplicate machine for role A"),
    ("table.system", json.dumps({"machines": [{"subject": "A", "states": ["q0"], "initial": "q0",
                                               "transitions": {}}]}),
     2, "'transitions' must be a list"),
    ("blank.system", json.dumps({"machines": [{"subject": "A", "states": ["q0", ""],
                                               "initial": "q0", "transitions": []}]}),
     2, "state identifiers must be nonempty strings, got ''"),
    ("bad.gtir", "connect base relay interfaces {I, J, H} via H <-> K "
                 "base alternator interfaces {K}\n", 3, "not a valid composition"),
], ids=["unparseable", "duplicate-role", "transitions-not-a-list", "empty-state-name",
        "invalid-expression"])
def test_check_leaves_out_untouched_when_the_input_fails(data_dir, tmp_path, capsys,
                                                          name, text, code, message):
    (tmp_path / name).write_text(text)
    out = tmp_path / "out.txt"
    out.write_text("earlier report\n")
    got, _, err = run(capsys, "check", str(tmp_path / name), "--types", str(data_dir),
                      "--out", str(out))
    assert got == code and "Traceback" not in err
    assert err.startswith(f"cfsmkit: {tmp_path / name}: ") and message in err
    assert out.read_text() == "earlier report\n"


# -- output encoding and hash seeds, in fresh interpreters ----------------------

# An ASCII locale without Python's UTF-8 mode: standard output encodes as ASCII.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("command", [("gateway", "--partner", "K", "--format", "dot"),
                                     ("check", "--format", "json"), ("check",)],
                         ids=["gateway-dot", "check-json", "check-text"])
def test_a_lone_surrogate_in_a_json_name_exits_2(tmp_path, command):
    # JSON lets a name be a lone surrogate escape; here a state that the
    # gateway prints and that the deadlock's witness passes through.
    a = Cfsm.make("A", "q0", [("q0", Action.send("A", "B", "m"), "\ud800")])
    b = Cfsm.make("B", "r0", [("r0", Action.receive("A", "B", "n"), "r1")])
    path = tmp_path / "input.json"
    path.write_text(serialize_machine(a) if command[0] == "gateway"
                    else serialize_system(CommunicatingSystem({"A": a, "B": b})))
    assert "\\ud800" in path.read_text()
    proc = cli_in_a_fresh_interpreter(command[0], path, *command[1:])
    assert (proc.returncode, proc.stdout) == (2, b""), proc.stderr.decode()
    assert proc.stderr == f"cfsmkit: {path}: not valid text: lone surrogate '\\ud800'\n".encode()


GREETING = "A->B: grüße\n"


def test_output_the_locale_cannot_encode_exits_2(tmp_path):
    (tmp_path / "greet.gt").write_text(GREETING, encoding="utf-8")
    proc = cli_in_a_fresh_interpreter("project", tmp_path / "greet.gt", "--role", "A",
                                      "--format", "dot", **ASCII_LOCALE)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"cfsmkit: cannot write to standard output: ")
    assert b"Traceback" not in proc.stderr


def test_out_is_utf8_whatever_the_locale(tmp_path):
    # --out is written as UTF-8, like every input is read.
    (tmp_path / "greet.gt").write_text(GREETING, encoding="utf-8")
    argv = ["project", tmp_path / "greet.gt", "--role", "A", "--format", "dot"]
    out = tmp_path / "a.dot"
    proc = cli_in_a_fresh_interpreter(*argv, "--out", out, **ASCII_LOCALE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    utf8 = cli_in_a_fresh_interpreter(*argv, PYTHONUTF8="1")
    assert utf8.returncode == 0 and "grüße".encode() in utf8.stdout
    assert out.read_bytes() == utf8.stdout


def test_machine_outputs_are_identical_under_every_hash_seed(data_dir):
    commands = [["project", data_dir / "relay.gt", "--role", "J"],
                ["gateway", data_dir / "mj.cfsm", "--partner", "K"]]
    for argv in commands:
        for fmt in ("json", "dot"):
            outputs = set()
            for seed in range(1, 6):
                proc = cli_in_a_fresh_interpreter(*argv, "--format", fmt,
                                                  PYTHONHASHSEED=str(seed))
                assert proc.returncode == 0, proc.stderr.decode()
                outputs.add(proc.stdout)
            assert len(outputs) == 1
    # The last outputs are the gateway's DOT.
    assert outputs == {(data_dir / "gw_mj_k.dot").read_bytes()}


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


@st.composite
def renamed_json(draw, text: str) -> str:
    """The JSON document ``text`` with one of its strings renamed to another
    throughout one node (the whole document, a machine, a channel, ...): a
    well-formed document whose parts may disagree on a role or state name."""
    doc = json.loads(text)
    nodes = []  # each node with the strings it holds

    def walk(node) -> set[str]:
        found = set()
        for child in (node.values() if isinstance(node, dict) else node):
            if isinstance(child, str):
                found.add(child)
            elif isinstance(child, (dict, list)):
                found |= walk(child)
        nodes.append((node, sorted(found)))
        return found

    names = sorted(walk(doc))
    node, held = draw(st.sampled_from([(node, held) for node, held in nodes if held]))
    old, new = draw(st.sampled_from(held)), draw(st.sampled_from(names))

    def rename(node) -> None:
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            if child == old:
                node[key] = new
            elif isinstance(child, (dict, list)):
                rename(child)

    rename(node)
    return json.dumps(doc)


def mutants(name: str):
    text = (DATA_DIR / name).read_text()
    if name.endswith((".cfsm", ".system")):
        return mutated_text(text) | mutated_json(text) | renamed_json(text)
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


def expected_codes(argv: list[str]) -> set[int]:
    """The exit codes ``argv`` may give: 2 exactly when the front end's own
    parser rejects one of its files, else one of the command's outcomes."""
    command, path = argv[0], Path(argv[1])
    try:
        if command == "project":
            parse_global_type(path.read_text())
            return {0, 3}
        if command in ("compat", "gateway"):
            for file in argv[1:3] if command == "compat" else argv[1:2]:
                parse_machine(Path(file).read_text())
            return {0, 1} if command == "compat" else {0, 3}
        text = path.read_text()
        if text.lstrip().startswith("{"):
            parse_system(text)
            return {0, 4, 5}
        parse_gtir(text, load_global_types(path.parent))
        return {0, 3, 4, 5}
    except CfsmError:
        return {2}


@pytest.mark.parametrize("kind", sorted(FUZZ_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_a_documented_code(kind, data):
    # Whatever the input, the CLI returns a code instead of raising: 2 for
    # exactly the inputs its parsers reject, else one its command documents.
    # A ``check`` that rejects its input names a file of the mutated copy.
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
            assert code in expected_codes(argv), (argv, code, err.getvalue())
            if command[0] == "check" and code in (2, 3):
                # An input failure names the input it found at fault.
                first = err.getvalue().partition("\n")[0]
                assert first.startswith("cfsmkit: ") and tmp in first, (argv, first)
