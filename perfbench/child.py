"""One realization of a benchmark workload, in a fresh process.

Usage (the parent ``run.py`` starts it; it is not meant to be run by
hand)::

    python3 perfbench/child.py '<json request>'

The request names the workload, the scenario seed, whether to trace,
and the parent's ``perf_counter_ns`` just before it started this
process (CLOCK_MONOTONIC is shared by every process on Linux, so the
set-up time includes interpreter start and imports). The record is
printed as one JSON line on stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


class _TeeSketch:
    """Stands in for a service's request sketch: keeps every raw
    response time and forwards everything to the real sketch."""

    def __init__(self, inner, samples: list):
        self.inner = inner
        self.samples = samples

    def add(self, value) -> None:
        self.samples.append(value)
        self.inner.add(value)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _digest(fields: dict) -> str:
    blob = json.dumps(fields, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run(request: dict) -> dict:
    import repro
    from repro.sim import backend
    from repro.sim.engine import Engine
    from repro.experiments.scenarios import run_scenario
    from repro.service.emulator import ServiceEmulator
    from repro.service.run import service_fingerprint

    import workloads

    src = os.path.join(request["root"], "src")
    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {src}")
    backend.set_backend("pure")
    config = workloads.build_config(request["workload"], request["scenario_seed"],
                                    tiny=request.get("tiny", False))

    tracer = None
    clock = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        from refclock import RefClock

        clock = RefClock()

    first_run_ns: list = []
    engine_run = Engine.run

    def run_marked(engine, *args, **kwargs):
        first = not first_run_ns
        if first:
            if clock is not None:
                clock.start()
            first_run_ns.append(perf_counter_ns())
        if tracer is not None:
            tracer.boundary(first)
        try:
            return engine_run(engine, *args, **kwargs)
        finally:
            if tracer is not None:
                tracer.boundary(first=False)

    Engine.run = run_marked

    latencies: list = []
    emulators: list = []
    service_start = ServiceEmulator.start

    def start_teed(emulator):
        emulator.request_sketch = _TeeSketch(emulator.request_sketch, latencies)
        emulators.append(emulator)
        return service_start(emulator)

    ServiceEmulator.start = start_teed

    result = run_scenario(config)
    if clock is not None:
        clock.stop()
    end_ns = perf_counter_ns()
    if tracer is not None:
        tracer.boundary(first=False)
        tracer.uninstall()
    Engine.run = engine_run
    ServiceEmulator.start = service_start

    net = result.net
    stats = result.stats
    # The simulator's own wall time: reference slices are taken out.
    wall_ns = end_ns - first_run_ns[0] - (clock.ns if clock is not None else 0)
    record = {
        "workload": request["workload"],
        "scenario_seed": request["scenario_seed"],
        "backend": backend.current_backend(),
        "wall_s": wall_ns / 1e9,
        "setup_s": (first_run_ns[0] - request["spawn_ns"]) / 1e9,
        "ref_ns_per_event": clock.ns_per_event() if clock is not None else None,
        "ref_slices": clock.slices if clock is not None else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": net.engine.events_processed,
        "flows": stats.flow_count(),
        "timeouts": stats.timeouts,
        "pause_frames": stats.pause_frames,
        "frames": sum(port.tx_packets for device in list(net.switches) + list(net.hosts)
                      for port in device.ports),
    }
    completed_bytes = (sum(r.size for r in stats.flows.values() if r.completed)
                       + sum(stats.retired_bytes.values()))
    record["payload_mb"] = completed_bytes / 1e6
    if emulators:
        emulator = emulators[0]
        emulator.request_sketch = emulator.request_sketch.inner
        samples = sorted(latencies)
        record["attempted"] = emulator.spec.requests
        record["failed"] = emulator.spec.requests - emulator.completed
        record["lat_ns"] = samples
        record["bg_fct_ns"] = []
        model = service_fingerprint(result)
    else:
        samples = sorted(stats.fct_list("fg"))
        record["attempted"] = stats.flow_count()
        record["failed"] = stats.incomplete_flows()
        record["lat_ns"] = samples
        record["bg_fct_ns"] = sorted(stats.fct_list("bg"))
        model = {}
    record["digest"] = _digest({
        "events": net.engine.events_processed,
        "now": net.engine.now,
        "flows": stats.flow_count(),
        "timeouts": stats.timeouts,
        "fast_retransmits": stats.fast_retransmits,
        "drops": [stats.drops_green, stats.drops_red],
        "ecn_marks": stats.ecn_marks,
        "pause_frames": stats.pause_frames,
        "latencies": hashlib.sha256(json.dumps(samples).encode()).hexdigest(),
        "bg_fct": hashlib.sha256(json.dumps(record["bg_fct_ns"]).encode()).hexdigest(),
        "model": model,
    })
    if tracer is not None:
        record["layers"], record["trace_problems"] = _layer_metrics(
            tracer, result, wall_ns, completed_bytes, emulators)
        record["spans"] = {name: rec[0] for name, rec in tracer.spans.items()}
    return record


def _layer_metrics(tracer, result, wall_ns: int, completed_bytes: int,
                   emulators: list):
    from tracer import ON_PACKET_SPANS

    net = result.net
    stats = result.stats
    times, problems = tracer.layer_times(wall_ns)
    ports = [port for device in list(net.switches) + list(net.hosts)
             for port in device.ports]
    host_tx_bytes = sum(port.tx_bytes for host in net.hosts for port in host.ports)
    tlt_calls = sum(rec[0] for name, rec in tracer.spans.items()
                    if tracer.span_layer[name] == "tlt")
    stats_calls = sum(rec[0] for name, rec in tracer.spans.items()
                      if tracer.span_layer[name] == "stats")
    emulator = emulators[0] if emulators else None
    layers = {
        "sim.events": net.engine.events_processed,
        "sim.self_s": times["sim"] / 1e9,
        "link.self_s": times["link"] / 1e9,
        "link.frames": sum(port.tx_packets for port in ports),
        "link.bytes": sum(port.tx_bytes for port in ports),
        "link.pause_frames": net.total_pause_frames(),
        "link.paused_fraction": net.avg_pause_fraction(result.duration_ns),
        "switch.self_s": times["switch"] / 1e9,
        "switch.calls": tracer.calls("Switch.receive", "Switch.poll"),
        "switch.drops_red": stats.drops_red,
        "switch.drops_green": stats.drops_green,
        "switch.ecn_marks": stats.ecn_marks,
        "switch.queue_p99_kb": tracer.queue_p99_kib(),
        "host.self_s": times["host"] / 1e9,
        "host.rx_calls": tracer.calls("Host.receive"),
        "host.tx_calls": tracer.calls("Host.send"),
        "transport.self_s": times["transport"] / 1e9,
        "transport.on_packet_calls": tracer.calls(*ON_PACKET_SPANS),
        "transport.timer_s": times["transport.timer"] / 1e9,
        "transport.flows_created": tracer.calls("create_flow"),
        "transport.flow_setup_s": tracer.inclusive_ns("create_flow") / 1e9,
        "transport.fast_retransmits": stats.fast_retransmits,
        "transport.timeouts": stats.timeouts,
        "transport.goodput_ratio": completed_bytes / host_tx_bytes if host_tx_bytes else 0.0,
        "tlt.self_s": times["tlt"] / 1e9,
        "tlt.calls": tlt_calls,
        "tlt.important_fraction": stats.important_fraction_bytes(),
        "tlt.important_loss_rate": stats.important_loss_rate(),
        "tlt.clocking_packets": stats.clocking_packets,
        "stats.self_s": times["stats"] / 1e9,
        "stats.calls": stats_calls,
        # A share, not seconds: a fabric workload never enters the
        # service layer, and its seconds would read exactly 0 every run.
        "service.self_share": times["service"] / wall_ns,
        "service.requests": emulator.completed if emulator is not None else 0,
        "service.hedges": emulator.hedges if emulator is not None else 0,
    }
    return layers, problems


def main() -> None:
    request = json.loads(sys.argv[1])
    record = run(request)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
