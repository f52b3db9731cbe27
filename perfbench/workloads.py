"""Benchmark workloads: what each one simulates and which fits it times.

A workload is a run configuration (catalog, weights, rate, stock, null
option, visits per dataset), the number of datasets one run draws, the
observation granularity their visits are written at, and the list of
``stockout-demand estimate`` calls made on each file.  The run's seed
comes from the command line and fixes every dataset; ``default_seed`` is
the one the ROADMAP's baseline used.  README.md records why each workload was
chosen, and why ``null-sales`` is run by hand rather than listed in
BENCHMARK.json.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from stockout_demand import io as sd_io
from stockout_demand import simulate

PRESET = sd_io.SECTION7_PRESET


@dataclass(frozen=True)
class FitSpec:
    """One timed ``estimate`` call: ``kind`` names the objective it fits
    (``exact``, ``naive`` or ``saa``), ``args`` are the extra CLI flags and
    ``objective`` the ``compile_dataset`` arguments, beyond the workload's
    granularity, that rebuild the objective the call maximizes."""

    kind: str
    args: Tuple[str, ...] = ()
    objective: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    config: sd_io.RunConfig
    granularity: str
    fits: Tuple[FitSpec, ...]
    default_seed: int
    datasets: int = 1

    def objective(self, spec: FitSpec) -> Dict[str, Any]:
        return {"granularity": self.granularity, **spec.objective}

    def configs_for(
        self, seed: int, visits: Optional[int] = None
    ) -> List[sd_io.RunConfig]:
        """One configuration per dataset of a run.  Dataset ``i`` of seed
        ``s`` is simulated with seed ``s * datasets + i``, so two run seeds
        never share a dataset; ``visits`` overrides the visits per dataset."""
        visits = self.config.visits if visits is None else visits
        return [
            replace(self.config, seed=seed * self.datasets + i, visits=visits)
            for i in range(self.datasets)
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="section7",
            config=replace(PRESET, visits=500),
            granularity="sales-no-null",
            fits=(
                FitSpec("exact"),
                # cli.cmd_estimate fits --naive at "sales" granularity
                FitSpec("naive", ("--naive",), {"granularity": "sales", "naive": True}),
                FitSpec(
                    "saa",
                    ("--saa-samples", "16", "--seed", "0"),
                    {"saa_samples": 16, "seed": 0},
                ),
            ),
            default_seed=123,
            datasets=4,
        ),
        Workload(
            name="walkaway-timed",
            config=replace(
                PRESET,
                weights={a: 0.1 * w for a, w in PRESET.weights.items()},
                rate=20.0,
                stock_level=1,
                include_null=True,
                visits=1500,
            ),
            granularity="transactions-timed",
            fits=(FitSpec("exact"),),
            default_seed=3,
            datasets=2,
        ),
        Workload(
            name="null-sales",
            config=replace(PRESET, include_null=True, rate=10.0, visits=2000),
            granularity="sales",
            fits=(FitSpec("exact"),),
            default_seed=5,
        ),
    )
}


@dataclass
class SetupResult:
    """Stage times of one set-up: simulate, project, write the JSONL."""

    simulate_s: float
    project_s: float
    write_s: float
    arrivals: int

    @property
    def total_s(self) -> float:
        return self.simulate_s + self.project_s + self.write_s


def set_up(
    config: sd_io.RunConfig, granularity: str, out: Path, tracer=None
) -> SetupResult:
    """Simulate the dataset, project it to ``granularity`` and write it to
    ``out``; with a tracer, each stage is recorded as a span."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("simulate.simulate_dataset"):
        paths = simulate.simulate_dataset(config.visit_config(), config.visits, config.seed)
    t1 = time.perf_counter()
    with span("io.project_path"):
        observations = [sd_io.project_path(p, granularity) for p in paths]
    t2 = time.perf_counter()
    with span("io.write_visits"):
        sd_io.write_visits(str(out), observations, granularity)
    t3 = time.perf_counter()
    return SetupResult(
        simulate_s=t1 - t0,
        project_s=t2 - t1,
        write_s=t3 - t2,
        arrivals=sum(p.arrivals for p in paths),
    )

