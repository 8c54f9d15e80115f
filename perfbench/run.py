"""Benchmark of ``cfsmkit check``: two workloads, every verdict gated.

Run from the repository root:

    python3 perfbench/run.py --workload relay-b4 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

One run is one process, one thread and a closed loop: each check starts when
the previous one has been verified.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics from spans kept in memory
and written to ``.perfbench_out/`` when the run ends.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON record of the
environment and sample counts.  The exit code is 0 only when every check
matched its expected outputs, and 2 when the program cannot be imported.
See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("relay-b4", "tiny-battery")
EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2


def import_program() -> None:
    """Put the checkout's ``src`` and ``tests`` first on the path and make
    sure cfsmkit comes from there; exit without a result otherwise."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import cfsmkit
        import oracles  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM) from None
    if Path(cfsmkit.__file__).resolve().parent != ROOT / "src" / "cfsmkit":
        print(f"perfbench: cfsmkit was imported from {cfsmkit.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)


def run_all(args) -> int:
    """Each workload in its own process, then one summary line."""
    results = {}
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            code = code or done.returncode or EXIT_INCORRECT
        if lines:
            results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": metric for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="check time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one set-up probe, for the benchmark's tests")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip the first expected verdict; the run must then fail")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.workload == "all":
        return run_all(args)
    import measure

    if args.setup_probe:
        measure.setup_probe(args)
    elif args.reference:
        measure.reference(args)
    elif not measure.measure(args):
        return EXIT_INCORRECT
    return 0


if __name__ == "__main__":
    sys.exit(main())
