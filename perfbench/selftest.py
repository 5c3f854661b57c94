"""Tiny-scale self-test of the per-layer tracer.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

For every workload at the ``tiny`` scale it runs one realization
untraced and one traced, each in a fresh process, and checks that

* the traced run reproduces the untraced run's simulated digest;
* the traced run's accounting closes (layer self times plus
  ``sim.self_s`` sum to the traced wall time, none is negative, and
  every dispatched callback has an owner layer);
* each layer records work on the workloads that use it, and none where
  the workload bypasses it: no window-TLT or byte-stream ACK-path calls
  on ``fabric-dcqcn-pfc``, no PAUSE frames on ``fabric-dctcp-tlt``, and
  no service requests on either fabric workload.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Dict, List

import run
from tracer import WINDOW_TLT_SPANS

SEED = 7

#: Per-layer metrics every workload must exercise.
BUSY_EVERYWHERE = (
    "sim.events", "sim.self_s", "link.self_s", "link.frames", "switch.self_s",
    "switch.calls", "host.self_s", "host.rx_calls", "host.tx_calls",
    "transport.self_s", "transport.on_packet_calls", "transport.flows_created",
    "tlt.self_s", "tlt.calls", "stats.self_s", "stats.calls",
)

#: Per workload: layer metrics and spans that must be non-zero, and
#: those the workload bypasses, which must be zero.
EXPECT: Dict[str, Dict[str, tuple]] = {
    "fabric-dctcp-tlt": {
        "busy": (),
        "idle": ("link.pause_frames", "service.requests", "service.self_share"),
        "busy_spans": ("ByteStreamSender.on_packet", "TltWindowSender.on_ack"),
        "idle_spans": ("RoceSender.on_packet", "TltRateSender.mark_data"),
    },
    "fabric-dcqcn-pfc": {
        "busy": (),
        "idle": ("service.requests", "service.self_share"),
        "busy_spans": ("RoceSender.on_packet", "TltRateSender.mark_data"),
        "idle_spans": WINDOW_TLT_SPANS + ("ByteStreamSender.on_packet",),
    },
    "service-openloop": {
        "busy": ("service.requests", "service.self_share"),
        "idle": ("link.pause_frames",),
        "busy_spans": ("ByteStreamSender.on_packet", "MessageDelivery.__call__",
                       "StreamingQuantile.add", "NetStats.retire_flow"),
        "idle_spans": ("RoceSender.on_packet",),
    },
}


def check_workload(workload: str) -> List[str]:
    started = perf_counter()
    plain = run.run_child(workload, SEED, False, started, tiny=True)
    traced = run.run_child(workload, SEED, True, started, tiny=True)
    failures = []
    if plain["digest"] != traced["digest"]:
        failures.append(f"digest changed under the tracer: {plain['digest']} "
                        f"untraced vs {traced['digest']} traced")
    if plain["failed"] or traced["failed"]:
        failures.append(f"{plain['failed']} / {traced['failed']} operations failed")
    failures.extend(traced["trace_problems"])
    layers, spans = traced["layers"], traced["spans"]
    expect = EXPECT[workload]
    for name in BUSY_EVERYWHERE + expect["busy"]:
        if not layers[name] > 0:
            failures.append(f"{name} = {layers[name]}, expected > 0")
    for name in expect["idle"]:
        if layers[name] != 0:
            failures.append(f"{name} = {layers[name]}, expected 0 (bypassed)")
    for name in expect["busy_spans"]:
        if not spans.get(name, 0) > 0:
            failures.append(f"span {name} has no calls")
    for name in expect["idle_spans"]:
        if spans.get(name, 0):
            failures.append(f"span {name} has {spans[name]} calls, expected 0 (bypassed)")
    return failures


def main() -> int:
    if not (run.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"selftest: no simulator sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for workload in run.WORKLOADS:
        failures = check_workload(workload)
        ok = ok and not failures
        print(f"{'PASS' if not failures else 'FAIL'} {workload}")
        for failure in failures:
            print(f"  {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
