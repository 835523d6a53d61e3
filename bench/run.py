"""l2betti benchmark: runs one workload as real CLI processes and reports.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every process is a fresh interpreter (bench/child.py) started only after
the previous one has exited, so no cache survives from one process to the
next.  A sample is one pass over the workload's processes; samples repeat
while the next one is expected to end within --seconds (at least one).
Every report, with its ``timing`` key removed, must match the reference
recorded at the baseline commit byte for byte (references.json holds the
SHA-256 of each); a mismatch or a non-zero exit code is a failed process.

--trace 0 prints the end-to-end metrics (medians over samples).
--trace 1 runs one untraced and one traced sample and prints the
per-layer metrics of spans.py plus trace_overhead_frac.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references.json"
WORK = ROOT / ".bench_work"

DEFAULT_SECONDS = 20
# Processes still running this long after the run started are killed and
# count as failed, so the run reports and exits within 180 s.
RUN_LIMIT_S = 165.0
# set-up time is the median over at least this many set-ups; import-only
# probe processes make up for samples a short run could not take
SETUP_SAMPLES = 11


@dataclass
class Process:
    label: str
    spawned: float
    ended: float
    cpu_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""
    why: str = ""
    layers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.why


def report_digest(stdout: bytes) -> str:
    """SHA-256 of the report as the CLI prints it, without ``timing``."""
    report = json.loads(stdout)
    report.pop("timing", None)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.cache
def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def run_process(
    label: str, argv: list[str], mode: str, deadline: float, expected: str | None = None
) -> Process:
    """Spawn one child, wait for it and measure it with os.wait4.

    With ``expected`` set, the report digest must equal it.
    """
    WORK.mkdir(exist_ok=True)
    record_path = WORK / "record.json"
    out_path = WORK / "stdout.json"
    err_path = WORK / "stderr.txt"
    record_path.unlink(missing_ok=True)
    command = [sys.executable, "-I", str(CHILD), str(record_path), mode, *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(max(deadline - spawned, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ended = time.monotonic()
    result = Process(
        label,
        spawned,
        ended,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = None
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        result.why = f"exit code {proc.returncode}: {tail}"
        return result
    if record is None:
        result.why = "no record written"
        return result
    result.setup_s = record["imported"] - spawned
    result.layers = record.get("layers", {})
    if mode == "probe":
        return result
    try:
        result.digest = report_digest(out_path.read_bytes())
    except ValueError as exc:
        result.why = f"unreadable report: {exc}"
        return result
    if expected is not None and result.digest != expected:
        kept = WORK / f"mismatch-{label.replace('/', '_')}.json"
        kept.write_bytes(out_path.read_bytes())
        result.why = f"report differs from reference (kept in {kept.relative_to(ROOT)})"
    return result


@dataclass
class Sample:
    processes: list[Process]

    @property
    def wall_s(self) -> float:
        # first spawn to last exit; the processes run back to back
        return self.processes[-1].ended - self.processes[0].spawned

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.processes)

    @property
    def setup_s(self) -> float:
        return sum(p.setup_s for p in self.processes)

    @property
    def failed(self) -> int:
        return sum(not p.ok for p in self.processes)


def run_sample(jobs, mode: str, deadline: float) -> Sample:
    references = load_references()
    processes = []
    for label, argv in jobs:
        now = time.monotonic()
        if now >= deadline:
            processes.append(Process(label, now, now, why="not started: run time limit"))
            continue
        expected = references.get(label, "no reference recorded")
        processes.append(run_process(label, argv, mode, deadline, expected))
    return Sample(processes)


def _setup_probe(count: int, deadline: float) -> float | None:
    """Summed set-up time of `count` import-only processes."""
    probes = [run_process("probe", [], "probe", deadline) for _ in range(count)]
    if not all(p.ok for p in probes):
        return None
    return sum(p.setup_s for p in probes)


def measure(jobs, seconds: float, deadline: float) -> tuple[dict, list[Sample]]:
    started = time.monotonic()
    samples: list[Sample] = []
    while True:
        sample = run_sample(jobs, "run", deadline)
        samples.append(sample)
        elapsed = time.monotonic() - started
        if sample.failed or elapsed + sample.wall_s > seconds:
            break
    setups = [s.setup_s for s in samples if not s.failed]
    for _ in range(SETUP_SAMPLES - len(samples)):
        value = _setup_probe(len(jobs), deadline)
        if value is not None:
            setups.append(value)
    of_samples = f"median of {len(samples)} sample(s)"
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in samples), "s", of_samples),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s", of_samples),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (
            max(p.rss_mb for s in samples for p in s.processes),
            "MB",
            f"max over {len(samples)} sample(s)",
        ),
    }
    return metrics, samples


# <traced name>.<stat>; the traced names are those of spans.py
LAYER_METRICS = [
    "homology.bar_complex.self_s",
    "homology.ChainComplex.self_s",
    "homology.betti_numbers.total_s",
    "homology.dim_homology.total_s",
    "homology.tensor_complex.self_s",
    "homology.induced_homology_map.total_s",
    "homology.dim_multiplicativity_check.total_s",
    "homology.dim_multiplicativity_check.max_s",
    "modules.dim_image.calls",
    "modules.dim_image.self_s",
    "modules.ModuleMap.compose.calls",
    "modules.ModuleMap.compose.self_s",
    "modules.generalized_inverse.calls",
    "modules.generalized_inverse.self_s",
    "modules.PresentedMap.self_s",
    "modules.hom_space.total_s",
    "modules.algebraic_closure.total_s",
    "modules.dim_image_l2.total_s",
    "algebra.TracialAlgebra.validate.self_s",
    "algebra.tensor_algebra.total_s",
    "algebra.enveloping_algebra.total_s",
    "algebra.FlipIsomorphism.from_enveloping.total_s",
    "algebra.TracialAlgebra.inverse_coords.calls",
    "algebra.TracialAlgebra.inverse_coords.self_s",
    "algebra.TracialAlgebra.inverse_coords.hit_frac",
    "linalg.solve_linear.calls",
    "linalg.solve_linear.self_s",
    "linalg.solve_linear.cells",
    "linalg.kernel_data.calls",
    "linalg.kernel_data.self_s",
    "linalg.kernel_data.cells",
    "linalg.rank.calls",
    "linalg.rank.self_s",
    "linalg.ScalarSpan.insert.calls",
    "linalg.ScalarSpan.insert.self_s",
    "linalg.ScalarSpan.insert.accept_frac",
    "linalg.ScalarSpan.contains.calls",
    "linalg.ScalarSpan.contains.self_s",
    "catalog.betti_of.total_s",
    "rand.total_s",
    "cli.main.total_s",
]
UNITS = {"calls": "count", "cells": "count", "hit_frac": "ratio", "accept_frac": "ratio"}


def merge_layers(processes: list[Process]) -> dict:
    """Sum the per-process totals of each traced name (max for max_s)."""
    merged: dict[str, dict] = {}
    for proc in processes:
        for name, stat in proc.layers.items():
            acc = merged.get(name)
            if acc is None:
                merged[name] = dict(stat)
                continue
            for key, value in stat.items():
                acc[key] = max(acc[key], value) if key == "max_s" else acc[key] + value
    return merged


def layer_metrics(processes: list[Process]) -> dict:
    merged = merge_layers(processes)
    metrics = {}
    for name in LAYER_METRICS:
        traced, _, stat = name.rpartition(".")
        totals = merged.get(traced, {})
        if stat in ("hit_frac", "accept_frac"):
            calls = totals.get("calls", 0)
            value = totals["hits"] / calls if calls else 0.0
        else:
            value = totals.get(stat, 0)
        metrics[name] = (value, UNITS.get(stat, "s"), "traced sample")
    return metrics


def trace(jobs, deadline: float) -> tuple[dict, list[Sample]]:
    untraced = run_sample(jobs, "run", deadline)
    traced = run_sample(jobs, "trace", deadline)
    metrics = layer_metrics(traced.processes)
    base = untraced.wall_s
    overhead = traced.wall_s / base - 1.0 if base > 0 else 0.0
    metrics["trace_overhead_frac"] = (overhead, "ratio", "traced vs untraced sample")
    return metrics, [untraced, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so run_process kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "l2betti" / "cli.py").is_file():
        print(f"error: no l2betti sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES}", file=sys.stderr)
        return 2

    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    jobs = WORKLOADS[args.workload](args.seed, inputs)
    if args.trace:
        metrics, samples = trace(jobs, deadline)
    else:
        metrics, samples = measure(jobs, args.seconds, deadline)

    processes = [p for s in samples for p in s.processes]
    failed = [p for p in processes if not p.ok]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"samples {len(samples)} x {len(jobs)} processes"
    )
    for label, _ in jobs:
        print(f"  job {label}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {unit:<6} {note}")
    fail_frac = len(failed) / len(processes)
    print(f"  {'fail_frac':<50} {fail_frac:>14.6g} {'':<6} {len(failed)} of {len(processes)} processes")
    for proc in failed:
        print(f"  FAILED {proc.label}: {proc.why}")
    result = {
        "correct": not failed,
        "attempted": len(processes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
