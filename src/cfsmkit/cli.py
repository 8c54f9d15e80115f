"""Command-line driver.

Subcommands: ``project`` a global type onto one role, ``compat`` two machine
files, ``gateway`` a machine toward a partner role, and ``check`` the safety
of a system or open-protocol expression by bounded exploration.

Exit codes form a fixed taxonomy: 0 success (or all-safe, exhaustively), 1
incompatible interfaces, 2 unparseable input, 3 unknown role or violated
precondition, 4 a safety violation, 5 no violation found but the exploration
was cut off (inconclusive).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .cfsm import (
    CfsmError,
    MachineFormatError,
    machine_to_dot,
    parse_machine,
    serialize_machine,
)
from .compose import (
    LanguageMismatch,
    MixedState,
    NotIoDeterministic,
    check_compatibility,
)
from .gateway import gateway
from .globaltype import ParseError, ProjectionError, parse_global_type, project
from .gtir import Base, Connect, GtirError, GtirExpr, load_global_types, parse_gtir, semantics
from .safety import SafetyReport, check_safety, render_report, report_to_doc
from .system import DEFAULT_BOUND, DEFAULT_MAX_STATES, parse_system

EXIT_OK = 0
EXIT_INCOMPATIBLE = 1
EXIT_PARSE = 2
EXIT_ROLE = 3
EXIT_VIOLATION = 4
EXIT_INCONCLUSIVE = 5

BOUND_ENV_VAR = "CFSMKIT_BOUND"


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def _output(out: Optional[str]):
    """Stdout, or the ``out`` file, opened on entry so that an unwritable path
    fails before the work inside the block."""
    if not out:
        try:
            yield sys.stdout
        except UnicodeEncodeError as exc:
            raise _CliFailure(EXIT_PARSE, f"cannot write to standard output: {exc}") from None
        return
    try:
        with open(out, "w", encoding="utf-8") as stream:
            yield stream
    except OSError as exc:
        raise _CliFailure(EXIT_PARSE, f"cannot write {out}: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    with _output(out) as stream:
        stream.write(text)


def _parse(parse, path: str, text: Optional[str] = None):
    """``parse`` of ``text``, read from ``path`` unless given; exit 2 with
    ``PATH: message`` when ``parse`` rejects it."""
    try:
        return parse(_read(path) if text is None else text)
    except (ParseError, MachineFormatError) as exc:
        raise _CliFailure(EXIT_PARSE, f"{path}: {exc}") from None


def _emit_machine(machine, args) -> None:
    _emit(machine_to_dot(machine) if args.format == "dot" else serialize_machine(machine), args.out)


def _default_bound() -> int:
    raw = os.environ.get(BOUND_ENV_VAR)
    if raw is None:
        return DEFAULT_BOUND
    try:
        bound = int(raw)
    except ValueError:
        raise _CliFailure(EXIT_PARSE, f"{BOUND_ENV_VAR} must be an integer, got {raw!r}") from None
    if bound < 1:
        raise _CliFailure(EXIT_PARSE, f"{BOUND_ENV_VAR} must be positive, got {bound}")
    return bound


def _cmd_project(args) -> int:
    g = _parse(parse_global_type, args.file)
    try:
        machine = project(g, args.role)
    except ProjectionError as exc:
        raise _CliFailure(EXIT_ROLE, f"{args.file}: {exc}") from None
    _emit_machine(machine, args)
    return EXIT_OK


def _failure_doc(f) -> dict:
    if isinstance(f, LanguageMismatch):
        return {"kind": "language-mismatch",
                "separating_word": [str(s) for s in f.separating_word]}
    if isinstance(f, MixedState):
        return {"kind": "mixed-state", "role": f.role.name, "state": f.state}
    assert isinstance(f, NotIoDeterministic)
    (s1, a1, d1), (s2, a2, d2) = f.witness
    return {"kind": "not-io-deterministic", "role": f.role.name,
            "witness": [f"{s1} -{a1}-> {d1}", f"{s2} -{a2}-> {d2}"]}


def _cmd_compat(args) -> int:
    machines = [_parse(parse_machine, path) for path in (args.left, args.right)]
    verdict = check_compatibility(machines[0], machines[1])
    if args.format == "json":
        doc = {
            "schema": "cfsmkit.compat/1",
            "compatible": verdict.compatible,
            "failures": [_failure_doc(f) for f in verdict.failures],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(str(verdict) + "\n", args.out)
    return EXIT_OK if verdict.compatible else EXIT_INCOMPATIBLE


def _cmd_gateway(args) -> int:
    machine = _parse(parse_machine, args.file)
    _emit_machine(gateway(machine, args.partner), args)
    return EXIT_OK


def _load_check_input(args):
    """Returns (system, expr-or-None).  System files are JSON documents with a
    'machines' list; anything else is an open-protocol expression."""
    text = _read(args.file)
    if text.lstrip().startswith("{"):
        return _parse(parse_system, args.file, text), None
    types_dir = args.types if args.types else str(Path(args.file).parent)
    try:
        registry = load_global_types(types_dir)
    except GtirError as exc:  # a type file that cannot be read or parsed
        raise _CliFailure(EXIT_PARSE, str(exc)) from None
    expr = _parse(lambda t: parse_gtir(t, registry), args.file, text)
    try:
        return semantics(expr), expr
    except (GtirError, ProjectionError) as exc:
        raise _CliFailure(EXIT_ROLE, f"{args.file}: {exc}") from None


def _base_systems(expr: GtirExpr):
    if isinstance(expr, Base):
        yield expr
    elif isinstance(expr, Connect):
        yield from _base_systems(expr.left)
        yield from _base_systems(expr.right)


def _cmd_check(args) -> int:
    system, expr = _load_check_input(args)
    bound = args.bound if args.bound is not None else _default_bound()
    with _output(args.out) as stream:
        reports: dict[str, SafetyReport] = {}
        if args.check_base_safety and expr is not None:
            for i, sub in enumerate(_base_systems(expr)):
                reports[f"component-{i}"] = check_safety(
                    semantics(sub), max_buffer_bound=bound, max_states=args.max_states)
        reports["system"] = check_safety(system, max_buffer_bound=bound, max_states=args.max_states)
        if args.format == "json":
            doc = {
                "schema": "cfsmkit.check/1",
                "reports": {name: report_to_doc(r) for name, r in reports.items()},
            }
            stream.write(json.dumps(doc, indent=2) + "\n")
        else:
            chunks = []
            for name, r in reports.items():
                prefix = f"[{name}]\n" if len(reports) > 1 else ""
                chunks.append(prefix + render_report(r))
            stream.write("\n".join(chunks))

    if any(r.has_violation for r in reports.values()):
        return EXIT_VIOLATION
    if all(r.conclusive for r in reports.values()):
        return EXIT_OK
    return EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfsmkit",
        description="Model, compose, and safety-check systems of communicating finite-state machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_project = sub.add_parser("project", help="project a global type onto one role")
    p_project.add_argument("file", help="global type file (.gt)")
    p_project.add_argument("--role", required=True, help="role to project onto")
    p_project.add_argument("--format", choices=["json", "dot"], default="json")
    p_project.add_argument("--out", help="output path (default: stdout)")
    p_project.set_defaults(run=_cmd_project)

    p_compat = sub.add_parser("compat", help="decide interface compatibility of two machines")
    p_compat.add_argument("left", help="machine file")
    p_compat.add_argument("right", help="machine file")
    p_compat.add_argument("--format", choices=["text", "json"], default="text")
    p_compat.add_argument("--out", help="output path (default: stdout)")
    p_compat.set_defaults(run=_cmd_compat)

    p_gateway = sub.add_parser("gateway", help="turn an interface machine into a gateway")
    p_gateway.add_argument("file", help="machine file")
    p_gateway.add_argument("--partner", required=True, help="partner interface role")
    p_gateway.add_argument("--format", choices=["json", "dot"], default="json")
    p_gateway.add_argument("--out", help="output path (default: stdout)")
    p_gateway.set_defaults(run=_cmd_gateway)

    p_check = sub.add_parser("check", help="check the three safety properties by bounded exploration")
    p_check.add_argument("file", help="expression file (.gtir) or system file (JSON)")
    p_check.add_argument("--bound", type=int, default=None,
                         help=f"buffer bound (default {DEFAULT_BOUND}, or ${BOUND_ENV_VAR})")
    p_check.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                         help="stop exploring after this many configurations, which bounds "
                              f"the memory a check takes (default {DEFAULT_MAX_STATES})")
    p_check.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility and ignored: exploration is sequential")
    p_check.add_argument("--types", help="directory of named global types (default: the input's directory)")
    p_check.add_argument("--check-base-safety", action="store_true",
                         help="also check each base component's system (expression input "
                              "only: a system file has no bases)")
    p_check.add_argument("--format", choices=["text", "json"], default="text",
                         help="report format (default: text)")
    p_check.add_argument("--out", help="output path (default: stdout)")
    p_check.set_defaults(run=_cmd_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "bound", None) is not None and args.bound < 1:
        parser.error("--bound must be at least 1")
    if getattr(args, "max_states", 1) < 1:
        parser.error("--max-states must be at least 1")
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    try:
        return args.run(args)
    except _CliFailure as exc:
        print(f"cfsmkit: {exc}", file=sys.stderr)
        return exc.code
    except CfsmError as exc:
        # Any model-level error not already mapped is a violated precondition.
        print(f"cfsmkit: {exc}", file=sys.stderr)
        return EXIT_ROLE


if __name__ == "__main__":
    sys.exit(main())
