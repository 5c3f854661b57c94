"""Benchmark workloads: a benchmark seed becomes scenario configs.

Each workload is one public scenario, built only from the program's
own configuration objects (``ScenarioConfig``, the paper's scheme
tables, the service-SLO tier graph). The benchmark seed never reaches
the program directly: :func:`scenario_seeds` turns it into
``REALIZATIONS`` distinct scenario seeds, and each realization runs as
its own ``run_scenario`` call in a fresh process.

Several small realizations per seed are what make the end-to-end
figures comparable across seeds. Both fabric workloads draw their
background flow sizes from the heavy-tailed web-search CDF, so one
realization's offered payload swings by 2-6x from seed to seed. Wall
time is therefore reported per simulated frame, memory as the median
over the realizations, and latency percentiles over the pooled samples
of all realizations.

This module imports the simulator only inside :func:`build_config`, so
the parent process can read names and seeds without it.
"""

from __future__ import annotations

from typing import List

#: Scenario realizations per benchmark seed.
REALIZATIONS = 6

#: Fabric realization size: half the ``small`` scale's 60 background
#: flows, and 4 incast events x 240 flows = 960 foreground flows, so a
#: seed's six realizations pool 5,760 foreground flows.
FABRIC_BG_FLOWS = 30
FABRIC_INCAST_EVENTS = 4

#: Open-loop arrival rate and request count of ``service-openloop``.
#: 40 krps sits well below the 5 ms p99 knee. At 60 krps, nearer the
#: knee, one realization's p99 swings from 1.1 ms to 3.6 ms across
#: seeds (loss episodes at the load balancer's downlink come and go),
#: far more than pooling six realizations can steady; at 40 krps it
#: stays within 0.33-0.40 ms.
SERVICE_RATE_RPS = 40_000.0
SERVICE_REQUESTS = 1_000


def scenario_seeds(seed: int) -> List[int]:
    """The scenario seeds one benchmark seed stands for."""
    return [seed * 1_000 + index + 1 for index in range(REALIZATIONS)]


def build_config(workload: str, scenario_seed: int, tiny: bool = False):
    """The ``ScenarioConfig`` of one realization of ``workload``.

    ``tiny`` shrinks it to the ``tiny`` scale for the tracer self-test.
    """
    from repro.experiments.scale import SMALL, TINY
    from repro.experiments.scenarios import ScenarioConfig
    from repro.experiments.schemes import roce_schemes, tcp_schemes
    from repro.experiments.service_slo import service_spec

    fabric = dict(scale=SMALL, bg_flows=FABRIC_BG_FLOWS,
                  incast_events=FABRIC_INCAST_EVENTS, seed=scenario_seed)
    if tiny:
        fabric = dict(scale=TINY, seed=scenario_seed)
    if workload == "fabric-dctcp-tlt":
        return tcp_schemes(ScenarioConfig(transport="dctcp", **fabric))["tlt"]
    if workload == "fabric-dcqcn-pfc":
        return roce_schemes(ScenarioConfig(transport="dcqcn", **fabric))["tlt+pfc"]
    if workload == "service-openloop":
        spec = service_spec(SERVICE_RATE_RPS, TINY.num_hosts)
        spec["requests"] = 100 if tiny else SERVICE_REQUESTS
        return ScenarioConfig(
            transport="dctcp", tlt=True, scale=TINY, service=spec,
            enable_background=False, enable_incast=False,
            seed=scenario_seed,
        )
    raise ValueError(f"unknown workload {workload!r}")
