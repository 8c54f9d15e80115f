"""One measured run of one workload: set-up probes, expected outputs, timed
passes with the correctness gate, and the metrics.  ``run.py`` is the entry
point; it puts the checkout's program on the path before importing this."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Optional

from reference import PROPERTIES, RELAY_EXPECTED, expected_outputs, mismatches, signature
from tracing import ROOT_SPAN, ExploreMemory, GcMonitor, Tracer
from workloads import NoTrace, build_inputs, build_system, check, load_cases

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT_DIR = ROOT / ".perfbench_out"

# Set-up probes: some before the timed passes and the rest after them, so
# that one slow or fast spell of the machine does not decide the median.
SETUP_PROBES = 7
LAYERS = ("globaltype.parse", "globaltype.project", "gtir.parse", "gtir.validate",
          "compose.compose", "system.explore", "safety.report", "cli.render")


# ---------------------------------------------------------------------------
# Set-up time and expected outputs, each from its own process
# ---------------------------------------------------------------------------

def _child(args, mode: str) -> list[str]:
    cmd = [sys.executable, str(RUN), mode, "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + (["--smoke"] if args.smoke else [])


def setup_probe(args) -> None:
    """The child's side of a set-up probe: build the inputs, say so."""
    build_inputs(load_cases(args.workload, args.seed, smoke=args.smoke))
    print("ready", flush=True)


def _setup_probe_s(args) -> float:
    """Wall time for a fresh interpreter to import cfsmkit and build this
    workload's inputs, up to where the first check would start."""
    started = time.perf_counter()
    with subprocess.Popen(_child(args, "--setup-probe"), stdout=subprocess.PIPE,
                          text=True, cwd=ROOT) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
    if child.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def reference(args) -> None:
    """The child's side of the expected outputs: print them as JSON."""
    cases = load_cases(args.workload, args.seed, smoke=args.smoke)
    tracer = NoTrace()
    json.dump([expected_outputs(build_system(tracer, case, system), case.bound)
               for case, system in zip(cases, build_inputs(cases))], sys.stdout)


def _expected(args, cases) -> list[dict]:
    if args.workload == "relay-b4":
        return [RELAY_EXPECTED for _ in cases]
    # The reference searches hold large sets, so they run in their own
    # process to keep them out of this process's peak memory.
    done = subprocess.run(_child(args, "--reference"), capture_output=True,
                          text=True, cwd=ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"reference process failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# Timed passes and the correctness gate
# ---------------------------------------------------------------------------

class Run:
    """Checks of a workload's cases.  Each case's first check is compared
    with the expected outputs, and later ones with the first."""

    def __init__(self, cases, expected):
        self.cases = cases
        self.expected = expected
        self.signatures: list = [None] * len(cases)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Per distinct case, from its first check.
        self.configurations = 0
        self.edges = 0
        self.truncated = 0
        self.witnesses = 0
        self.witness_steps = 0
        # Timed checks that passed, by (traced, case index), and their
        # configuration counts.
        self.times: dict[tuple[bool, int], list[float]] = defaultdict(list)
        self.configs_checked = {False: 0, True: 0}

    def check(self, tracer, index: int, system) -> tuple[float, Optional[int]]:
        """One check: its seconds, and its configuration count or None when
        it failed."""
        case = self.cases[index]
        self.attempted += 1
        started = time.perf_counter()
        try:
            system, report = tracer.call(ROOT_SPAN, check, tracer, case, system)
        except Exception as exc:  # a check that raises is a failed check
            self._fail(f"{case.key}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - started, None
        elapsed = time.perf_counter() - started
        sig = signature(report)
        if self.signatures[index] is None:
            problems = mismatches(system, report, self.expected[index])
            if problems:
                self._fail(f"{case.key}: " + "; ".join(problems))
                return elapsed, None
            self.signatures[index] = sig
            self._count(report)
        elif sig != self.signatures[index]:
            self._fail(f"{case.key}: outputs changed between checks of the same input")
            return elapsed, None
        return elapsed, report.stats.configurations

    def passes(self, seconds: float, tracer: Optional[Tracer], monitor: GcMonitor) -> int:
        """Passes over the cases until the checks have taken ``seconds``;
        the last may stop part way.  With a tracer, every other check is
        traced, swapping which ones each pass, and at least two whole passes
        run, so traced and untraced checks cover the same cases.  Returns the
        number of passes started."""
        untraced = NoTrace()
        busy = 0.0
        passes = 0
        min_passes = 2 if tracer else 0

        def done() -> bool:
            return busy >= seconds and passes >= min_passes

        while not done():
            # Fresh inputs, then a collected heap whose survivors are
            # frozen, so collections inside a check rescan neither the
            # inputs nor earlier passes, outside the timed region.
            inputs = build_inputs(self.cases)
            gc.collect()
            gc.freeze()
            for index, system in enumerate(inputs):
                if done():
                    break
                traced = tracer is not None and (index + passes) % 2 == 0
                gc.collect(0)
                if traced:
                    tracer.check_id += 1
                    monitor.active = True
                    elapsed, configs = self.check(tracer, index, system)
                    monitor.active = False
                else:
                    elapsed, configs = self.check(untraced, index, system)
                busy += elapsed
                if configs is not None:
                    self.times[traced, index].append(elapsed)
                    self.configs_checked[traced] += configs
            passes += 1
            del inputs, system  # before the next pass builds its own
        gc.unfreeze()
        return passes

    def samples(self, traced: bool) -> list[float]:
        return [t for (tr, _), times in self.times.items() if tr == traced for t in times]

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def _count(self, report) -> None:
        self.configurations += report.stats.configurations
        self.edges += report.stats.edges
        self.truncated += report.stats.frontier_truncated
        for verdict in report.verdicts().values():
            if verdict.violated:
                self.witnesses += 1
                self.witness_steps += len(verdict.witness)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value.  Below 40 samples that percentile falls under the upper quartile,
    so the upper quartile is reported instead: a maximum of a few samples
    says more about the machine than about the program."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return (statistics.quantiles(ordered, n=4)[2] if n > 1 else ordered[0]), 75.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _end_to_end(run: Run, probes: list[float], record: dict) -> dict:
    samples = run.samples(False)
    per_case = [times for (traced, _), times in run.times.items() if not traced]
    # Repeated checks of one input are not independent samples of the
    # workload, so with more than one input each input's median is one.
    value, record["tail_percentile"] = tail(
        samples if len(per_case) == 1 else [statistics.median(t) for t in per_case])
    busy = sum(samples)
    return {
        "check_p50_ms": _metric(statistics.median(samples) * 1e3, "ms"),
        "check_tail_ms": _metric(value * 1e3, "ms"),
        "checks_per_s": _metric(len(samples) / busy, "1/s"),
        "configs_per_s": _metric(run.configs_checked[False] / busy, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(statistics.median(probes), "s"),
    }


def _overhead(run: Run) -> float:
    """Summed mean check time of each case traced, over the same cases
    untraced, minus one."""
    both = [i for traced, i in run.times if traced and (False, i) in run.times]
    traced_s = sum(statistics.fmean(run.times[True, i]) for i in both)
    untraced_s = sum(statistics.fmean(run.times[False, i]) for i in both)
    return traced_s / untraced_s - 1


def _per_layer(run: Run, tracer: Tracer, monitor: GcMonitor, memory: ExploreMemory,
               warm_configs: int, record: dict) -> dict:
    traced = run.samples(True)
    n = len(traced)
    distinct = len(run.cases)
    self_times = tracer.self_times()
    metrics = {f"{layer}_s": _metric(self_times.get(layer, 0.0) / n, "s") for layer in LAYERS}
    metrics.update({
        "system.configs": _metric(run.configurations / distinct, "count"),
        "system.edges": _metric(run.edges / distinct, "count"),
        "system.configs_per_s": _metric(run.configs_checked[True] / self_times["system.explore"],
                                        "1/s"),
        "system.new_per_edge": _metric(run.configurations / run.edges if run.edges else 0.0,
                                       "ratio"),
        "system.truncated_share": _metric(run.truncated / distinct, "share"),
        "system.kb_per_config": _metric(memory.growth_bytes / 1024 / warm_configs, "KB"),
        "gc.pause_s": _metric(monitor.pause_s / n, "s"),
        "safety.witnesses": _metric(run.witnesses / distinct, "count"),
        "safety.witness_steps": _metric(run.witness_steps / distinct, "count"),
        "trace.check_s": _metric(sum(traced) / n, "s"),
        "trace.unattributed_share": _metric(self_times[ROOT_SPAN] / sum(traced), "share"),
        "trace.overhead_share": _metric(_overhead(run), "share"),
    })
    for generation, count in enumerate(monitor.collections):
        metrics[f"gc.collections_gen{generation}"] = _metric(count / n, "count")
    record["traced_checks"] = n
    return metrics


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def measure(args) -> bool:
    """Run one workload and print its metrics; returns whether every check
    matched its expected outputs."""
    cases = load_cases(args.workload, args.seed, smoke=args.smoke)
    n_probes = 1 if args.smoke else SETUP_PROBES
    probes = [_setup_probe_s(args) for _ in range(n_probes // 2)]
    started = time.perf_counter()
    expected = _expected(args, cases)
    reference_s = time.perf_counter() - started
    if args.corrupt_expected:
        depths = expected[0]["depths"]
        depths[PROPERTIES[0]] = 0 if depths[PROPERTIES[0]] is None else None

    run = Run(cases, expected)
    # Warm-up: one untimed check of the largest case, which also measures
    # how much resident memory an exploration adds per configuration.
    largest = max(range(len(cases)), key=lambda i: expected[i]["configurations"])
    memory = ExploreMemory()
    run.check(memory, largest, build_inputs([cases[largest]])[0])

    tracer = Tracer() if args.trace else None
    monitor = GcMonitor()
    with monitor if args.trace else contextlib.nullcontext():
        passes = run.passes(args.seconds, tracer, monitor)
    probes += [_setup_probe_s(args) for _ in range(n_probes - len(probes))]

    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "src_lines": _src_lines(), "cases": len(cases), "passes": passes,
        "samples": len(run.samples(bool(args.trace))), "setup_probes_s": probes,
        "reference_s": reference_s, "failed_share": run.failed / run.attempted,
    }
    if not record["samples"]:
        metrics = {}  # every check failed
    elif args.trace:
        metrics = _per_layer(run, tracer, monitor, memory,
                             expected[largest]["configurations"], record)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed)
    else:
        metrics = _end_to_end(run, probes, record)
    for name, metric in metrics.items():
        print(f"{args.workload:>20}  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:>20}  {'failed_share':<28} {record['failed_share']:>14.6g} share")
    print(json.dumps(record))
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return correct
