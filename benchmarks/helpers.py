"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation.  Simulated results (minutes of reinstall time, MB/s of
throughput) are attached to pytest-benchmark's ``extra_info`` and also
printed as paper-vs-measured rows, so ``pytest benchmarks/
--benchmark-only`` reproduces the evaluation section in one run.

Benchmarks can opt into telemetry: ``reinstall_experiment(n, trace=path)``
attaches a :class:`repro.telemetry.Tracer` to the run, exports the
schema-validated JSONL evidence behind the headline number (per-node
install-phase spans, per-link utilization timeseries), and returns the
aggregated summary on the result.  Without ``trace`` the no-op tracer is
in place and the run costs nothing extra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import scenarios
from repro.core.tools.shoot_node import makespan
from repro.telemetry import summarize, write_jsonl

__all__ = ["reinstall_experiment", "ReinstallResult", "print_rows"]


@dataclass
class ReinstallResult:
    """One cell of Table I: N concurrent reinstalls, wall-clock span."""

    n_nodes: int
    minutes: float
    per_node_minutes: list[float]
    bytes_served: float
    #: aggregated telemetry (phases, peak link utilization) when traced
    trace_summary: Optional[dict] = field(default=None, repr=False)
    trace_path: Optional[str] = None


def reinstall_experiment(
    n_nodes: int, trace: Optional[str] = None, **kwargs
) -> ReinstallResult:
    """Run the registry's ``reinstall`` scenario: build a cluster,
    integrate, then concurrently reinstall all nodes.

    Matches §6.3's setup: one dual-PIII 100 Mbit HTTP server feeding
    733 MHz-1 GHz PIII compute nodes with Myrinet (driver rebuilt from
    source during the reinstall).  ``trace`` names a JSONL file to
    receive the run's telemetry (tracing stays off when omitted).
    """
    ready = []  # (cluster, bytes served by integration)

    def on_ready(sim):
        ready.append((sim, sim.frontend.install_server.bytes_served))

    run = scenarios.run("reinstall", n_nodes, traced=bool(trace),
                        on_ready=on_ready, **kwargs)
    reports = run.result
    [(sim, served_before)] = ready
    summary = None
    if run.tracer is not None:
        write_jsonl(run.tracer, trace)
        summary = summarize(run.tracer)
    return ReinstallResult(
        n_nodes=n_nodes,
        minutes=makespan(reports) / 60.0,
        per_node_minutes=[r.minutes for r in reports],
        bytes_served=sim.frontend.install_server.bytes_served - served_before,
        trace_summary=summary,
        trace_path=trace,
    )


def print_rows(title: str, header: tuple, rows: list[tuple]) -> None:
    """Print a paper-vs-measured table to the terminal."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    print(fmt.format(*header))
    for row in rows:
        print(fmt.format(*row))
