"""End-to-end simulator benchmark with outside-in per-layer attribution.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fabric-dctcp-tlt --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/selftest.py

Every realization is a fresh single-threaded process on the pure
backend with every ``TLT_*`` variable scrubbed from its environment,
running one public ``run_scenario`` call (see ``workloads.py``).
Untraced runs time a fixed reference loop in slices between the
simulator's own steps (``refclock.py``), so that wall time can be
given in units of the host's speed of the moment.

``--trace 0`` runs the seed's realizations untraced, then repeats them
while ``--seconds`` lasts, and reports the end-to-end metrics.
``--trace 1`` runs the first realization untraced and then traced
(``tracer.py``) and reports the per-layer metrics; the traced run must
reproduce the untraced run's simulated digest. ``--workload all`` runs
both modes on every workload. ``selftest.py`` checks the tracer at the
``tiny`` scale.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Operations are flows on the
fabric workloads and requests on ``service-openloop``; a flow still
incomplete at the hard cap or a request that never completed counts as
failed, and so does every operation of a run whose simulated digest
differs from another run of the same scenario seed, in this process or
in an earlier one on the same source tree (``.perfbench/digests``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark-local modules)
from tracer import PREDICTIONS  # noqa: E402

#: Hard limit for one invocation; each child gets what is left of it.
DEADLINE_S = 170.0

#: Workloads and gated metrics, with their units, from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Printed with the end-to-end metrics but not gated. Raw wall time
#: follows the host's speed of the moment, which swings by up to 2x on
#: a shared host, and the seed's heavy-tailed offered load; the p99
#: follows the few incasts that meet an elephant flow and swings by
#: 20-30% between seeds; the others are zero or undefined on some
#: workload (TLT removes timeouts, PFC is off on two workloads, the
#: service has no background flows).
REPORTED_UNITS = {
    "sim_lat_p99_ms": "ms",
    "wall_us_per_frame": "us",
    "wall_s": "s",
    "sim_timeouts_per_1k": "1/kflow",
    "sim_pause_per_1k": "1/kflow",
    "sim_bg_fct_mean_ms": "ms",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, crash)."""


# -- run record -----------------------------------------------------------------


def code_version() -> str:
    """Hash of the simulator sources and the benchmark's own files."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def run_record(workload: str, seed: int, trace: bool) -> Dict:
    return {
        "workload": workload,
        "seed": seed,
        "scenario_seeds": workloads.scenario_seeds(seed),
        "trace": trace,
        "backend": "pure",
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "code_version": code_version(),
    }


# -- children --------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """This environment minus every ``TLT_*`` knob, on the pure backend,
    importing the simulator from this checkout only."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("TLT_")}
    env["TLT_BACKEND"] = "pure"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, scenario_seed: int, trace: bool, started: float,
              tiny: bool = False) -> Dict:
    remaining = DEADLINE_S - (perf_counter() - started)
    if remaining <= 0:
        raise BenchmarkError("out of time before the next realization")
    request = {"workload": workload, "scenario_seed": scenario_seed,
               "trace": trace, "tiny": tiny, "root": str(ROOT)}
    spawned = perf_counter()
    request["spawn_ns"] = perf_counter_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{workload} seed {scenario_seed} ran past the "
                             f"{DEADLINE_S:.0f} s deadline") from error
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"{workload} seed {scenario_seed} (trace={trace}) exited "
            f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["trace"] = trace
    record["duration_s"] = perf_counter() - spawned
    return record


# -- checks ------------------------------------------------------------------------


class DigestStore:
    """Simulated digests of earlier runs of the same source tree."""

    def __init__(self, version: str):
        self.dir = ROOT / ".perfbench" / "digests" / version

    def check(self, record: Dict) -> Optional[str]:
        path = self.dir / f"{record['workload']}.{record['scenario_seed']}"
        if path.is_file():
            stored = path.read_text().strip()
            if stored != record["digest"]:
                return stored
            return None
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(record["digest"] + "\n")
        os.replace(tmp, path)
        return None


def check_runs(runs: List[Dict], store: DigestStore) -> Dict:
    """Failure accounting and output checks over one invocation's runs."""
    problems: List[str] = []
    attempted = failed = 0
    first_digest: Dict[int, str] = {}
    for record in runs:
        tag = f"{record['workload']} seed {record['scenario_seed']}"
        attempted += record["attempted"]
        bad = record["failed"]
        if record["failed"]:
            problems.append(f"{tag}: {record['failed']} operations failed")
        seed = record["scenario_seed"]
        expected = first_digest.setdefault(seed, record["digest"])
        stored = store.check(record)
        if record["digest"] != expected or stored is not None:
            bad = record["attempted"]
            problems.append(f"{tag} (trace={record['trace']}): digest "
                            f"{record['digest']} differs from {stored or expected}")
        if record["backend"] != "pure":
            problems.append(f"{tag}: ran on backend {record['backend']!r}")
        if record["attempted"] - record["failed"] <= 0 or record["payload_mb"] <= 0:
            problems.append(f"{tag}: completed no work")
        if not record["trace"] and not record["ref_slices"]:
            problems.append(f"{tag}: ended before the reference clock ticked")
        if record["lat_ns"] and record["lat_ns"][0] <= 0:
            problems.append(f"{tag}: non-positive latency sample")
        problems.extend(f"{tag}: {problem}" for problem in record.get("trace_problems", ()))
        failed += bad
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "problems": problems}


# -- metrics -------------------------------------------------------------------------


def percentile(sorted_samples: List[float], pct: int) -> float:
    return statistics.quantiles(sorted_samples, n=100, method="inclusive")[pct - 1]


def end_to_end(runs: List[Dict]) -> Dict[str, float]:
    """End-to-end figures of one invocation.

    The gated speed figure, ``ref_events_per_frame``, is the
    simulator's wall time in units of the reference loop's time per
    event, timed in slices interleaved with the same run (see
    ``refclock.py``), so the host's speed of the moment scales out. It
    is taken per frame the simulated links carried, so a seed's
    heavy-tailed offered load cancels out; frames are a simulated
    quantity, identical before and after any change that keeps the
    simulated results. Each realization counts with the median of its
    runs, and the seed's realizations are pooled: their summed cost
    over their summed frames. Set-up time is the median over runs.
    Memory and the simulated figures come from the seed's distinct
    realizations: memory as their mean, latencies pooled.
    """
    distinct: Dict[int, Dict] = {}
    costs: Dict[int, List[float]] = {}
    for record in runs:
        distinct.setdefault(record["scenario_seed"], record)
        costs.setdefault(record["scenario_seed"], []).append(
            record["wall_s"] * 1e9 / record["ref_ns_per_event"])
    latencies = sorted(s for r in distinct.values() for s in r["lat_ns"])
    bg = [s for r in distinct.values() for s in r["bg_fct_ns"]]
    flows = sum(r["flows"] for r in distinct.values())
    metrics = {
        "ref_events_per_frame": (sum(statistics.median(c) for c in costs.values())
                                 / sum(r["frames"] for r in distinct.values())),
        "wall_us_per_frame": statistics.median(r["wall_s"] * 1e6 / r["frames"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in distinct.values()),
        "sim_lat_p50_ms": percentile(latencies, 50) / 1e6,
        "sim_lat_p99_ms": percentile(latencies, 99) / 1e6,
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "sim_timeouts_per_1k": 1e3 * sum(r["timeouts"] for r in distinct.values()) / flows,
        "sim_pause_per_1k": 1e3 * sum(r["pause_frames"] for r in distinct.values()) / flows,
        "sim_bg_fct_mean_ms": statistics.fmean(bg) / 1e6 if bg else float("nan"),
    }
    metrics["samples"] = len(latencies)
    return metrics


def per_layer(runs: List[Dict]) -> Dict[str, float]:
    traced = next(r for r in runs if r["trace"])
    untraced_wall = statistics.median(
        r["wall_s"] for r in runs
        if not r["trace"] and r["scenario_seed"] == traced["scenario_seed"])
    metrics = dict(traced["layers"])
    metrics["sim.ns_per_event"] = untraced_wall * 1e9 / traced["layers"]["sim.events"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall
    return metrics


# -- measuring ----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    started = perf_counter()
    seeds = workloads.scenario_seeds(seed)
    if trace:
        plan = [(seeds[0], False), (seeds[0], True)]
        repeat = [seeds[0]]
    else:
        plan = [(s, False) for s in seeds]
        repeat = seeds
    runs = [run_child(workload, s, t, started) for s, t in plan]
    # Fill the rest of the measuring time with untraced repeats.
    index = 0
    while True:
        typical = statistics.median(r["duration_s"] for r in runs if not r["trace"])
        if perf_counter() - started + typical > seconds:
            break
        runs.append(run_child(workload, repeat[index % len(repeat)], False, started))
        index += 1
    outcome = check_runs(runs, DigestStore(code_version()))
    outcome["runs"] = runs
    outcome["metrics"] = per_layer(runs) if trace else end_to_end(runs)
    return outcome


def _units(trace: bool) -> Dict[str, str]:
    return PER_LAYER_UNITS if trace else {**END_TO_END_UNITS, **REPORTED_UNITS}


def print_report(workload: str, seed: int, trace: bool, outcome: Dict) -> None:
    record = run_record(workload, seed, trace)
    record["runs"] = [
        {key: run[key] for key in ("scenario_seed", "trace", "wall_s", "setup_s",
                                   "peak_rss_mb", "payload_mb", "events", "digest",
                                   "attempted", "failed")}
        for run in outcome["runs"]]
    print("run record: " + json.dumps(record, sort_keys=True))
    title = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload} seed {seed}: {title}, {len(outcome['runs'])} runs, "
          f"{outcome['attempted']} operations attempted, {outcome['failed']} failed")
    for name, unit in _units(trace).items():
        value = outcome["metrics"][name]
        shown = "n/a" if math.isnan(value) else f"{value:.6g}"
        gated = "" if trace or name in END_TO_END_UNITS else "   (reported, not gated)"
        print(f"  {name:28s} {shown:>14s} {unit}{gated}")
    if not trace:
        print(f"  {'latency samples':28s} {outcome['metrics']['samples']:14d}")
    if trace:
        print("  predictions (layer -> end-to-end metric it should move):")
        for layer, prediction in PREDICTIONS.items():
            print(f"    {layer:10s} {prediction}")
    for problem in outcome["problems"]:
        print(f"  CHECK FAILED: {problem}")


def result_line(outcomes: Dict) -> str:
    """The closing JSON line; with several workloads or modes, metric
    names are prefixed with ``<workload>/``."""
    metrics = {}
    for (name, trace), outcome in outcomes.items():
        for metric, unit in (PER_LAYER_UNITS if trace else END_TO_END_UNITS).items():
            key = metric if len(outcomes) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": outcome["metrics"][metric], "unit": unit}
    return json.dumps({
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    modes = [False, True] if args.workload == "all" else [bool(args.trace)]
    outcomes = {}
    try:
        for name in names:
            for trace in modes:
                outcome = measure(name, args.seed, args.seconds, trace)
                print_report(name, args.seed, trace, outcome)
                outcomes[(name, trace)] = outcome
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(result_line(outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
