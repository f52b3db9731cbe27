"""Fit benchmark for stockout-demand.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload section7 --seed 123 --seconds 50 --trace 0

One run simulates the workload's datasets from ``--seed`` and writes them
as JSONL (the set-up, repeated ``SETUP_REPEATS`` times), then calls
``stockout_demand.cli.main(["estimate", ...])`` in this process for each
job -- one of the workload's fits on one dataset -- round after round in a
closed loop while another round should end within ``--seconds`` (at least
one round), and finally checks every fit's output (see ``checks.py``).
``fit_s`` is the sum over the jobs of each job's median wall time over
the rounds, and ``setup_s`` the median set-up wall time; both are then
scaled to reference seconds by the run's speed probes (see ``speed.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced rounds, then one more round with every layer wrapped (see
``tracing.py``), and reports the per-layer metrics; the traced round's
spans go to ``.perfbench_out/spans-<workload>-<seed>.json``.

The package is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# one process, one BLAS thread: the load shape the benchmark defines
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
WORKLOAD_NAMES = ("section7", "walkaway-timed", "null-sales")


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def machine_facts() -> Dict[str, object]:
    import numpy
    import scipy

    facts: Dict[str, object] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}_per_core"] = size
    return facts


def run_fit(cli, data: Path, spec, out: Path, tracer=None, fit_id: int = 0):
    """One timed ``estimate`` call, from ``cli.main`` until it returns with
    the fit JSON written.  A crash is recorded as exit code -1."""
    from checks import FitOutput

    argv = ["estimate", "--data", str(data), "--out", str(out), *spec.args]
    out.unlink(missing_ok=True)
    span = tracer.fit_span(fit_id) if tracer is not None else nullcontext()
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), span:
            code = cli.main(argv)
    except Exception:  # the run never aborts on a failed fit
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    text = out.read_text() if out.exists() else None
    return FitOutput(spec.kind, seconds, code, text)


def run_benchmark(
    workload: str,
    seed: Optional[int],
    seconds: float,
    trace: bool,
    work_dir: Path,
    visits: Optional[int] = None,
) -> Dict[str, object]:
    """Run one workload; returns the result line and the full record."""
    from stockout_demand import cli
    from stockout_demand.io import read_visits

    from checks import Checker
    from speed import SpeedSampler
    from tracing import Tracer, compiled_stats, installed
    from workloads import WORKLOADS, set_up

    wl = WORKLOADS[workload]
    seed = wl.default_seed if seed is None else seed
    configs = wl.configs_for(seed, visits)
    work_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-{seed}"
    datas = [work_dir / f"{stem}-d{j}.jsonl" for j in range(len(configs))]
    tracer = Tracer() if trace else None
    speed = SpeedSampler()

    # every set-up simulates and writes all of the run's datasets
    with speed.phase("setup"):
        setups = [
            [set_up(c, wl.granularity, d, tracer) for c, d in zip(configs, datas)]
            for _ in range(SETUP_REPEATS)
        ]

    # a job is one fit of one dataset; a round runs every job once
    jobs = [(j, spec) for j in range(len(configs)) for spec in wl.fits]
    outs = [work_dir / f"{stem}-fit{i}.json" for i in range(len(jobs))]
    rounds: List[list] = []
    start = time.perf_counter()
    longest = 0.0
    with speed.phase("fit"):
        # closed loop: another round only if it should end within --seconds
        while not rounds or time.perf_counter() - start + longest <= seconds:
            t0 = time.perf_counter()
            rounds.append(
                [run_fit(cli, datas[j], s, o) for (j, s), o in zip(jobs, outs)]
            )
            longest = max(longest, time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if tracer is not None:
        with installed(tracer):
            traced = [
                run_fit(cli, datas[j], s, o, tracer, i)
                for i, ((j, s), o) in enumerate(zip(jobs, outs))
            ]

    checkers = []
    for config, data in zip(configs, datas):
        observations, _ = read_visits(str(data))
        checkers.append(
            Checker(
                observations,
                {s.kind: wl.objective(s) for s in wl.fits},
                config.params(),
                config.include_null,
            )
        )
    visits_of = [len(c.observations) for c in checkers]
    first = rounds[0]
    checked = [
        (j, out, checkers[j].check(out, None if out is ref else ref.text))
        for batch in rounds + ([traced] if traced else [])
        for (j, _), out, ref in zip(jobs, batch, first)
    ]
    n_visits = sum(visits_of)
    first_checks = [c for _, _, c in checked[: len(first)]]
    failed = sum(not c.operation_ok for _, _, c in checked)
    fit_fail_ratio = sum(not c.ok for _, _, c in checked) / len(checked)
    prob_err = max(c.prob_err for c in first_checks if c.kind in ("exact", "saa"))
    grad_per_visit = max(c.grad_inf / visits_of[j] for j, _, c in checked)
    exact_loglik = sum(c.loglik for c in first_checks if c.kind == "exact")
    # each job's median wall time over the rounds, summed over the jobs
    per_job = zip(*[[o.seconds for o in batch] for batch in rounds])
    fit_wall_s = sum(statistics.median(times) for times in per_job)
    setup_totals = [sum(s.total_s for s in rep) for rep in setups]
    setup_wall_s = statistics.median(setup_totals)
    sizes: Dict[str, float] = {"datasets": len(configs)}
    for checker in checkers:
        for key, value in compiled_stats(checker.dataset("exact")).items():
            sizes[key] = sizes.get(key, 0) + value
    sizes["compiled_mb_computed"] = sizes.pop("compiled_bytes") / 2**20
    sizes["arrivals"] = sum(s.arrivals for s in setups[0])

    if tracer is None:
        metrics = {
            "fit_s": _metric(fit_wall_s * speed.factor("fit"), "s"),
            "setup_s": _metric(setup_wall_s * speed.factor("setup"), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "nll_per_visit": _metric(-exact_loglik / n_visits, "nats"),
        }
        layers = None
    else:
        layers = tracer.layer_times()
        tracer.dump(work_dir / f"spans-{stem}.json")
        metrics = _layer_metrics(tracer, layers, setups, traced, fit_wall_s)
        metrics.update(
            {
                "check.prob_err": _metric(prob_err, "ratio"),
                "check.grad_inf_per_visit": _metric(grad_per_visit, "nats"),
                "check.fit_fail_ratio": _metric(fit_fail_ratio, "ratio"),
            }
        )
    values = [m["value"] for m in metrics.values()]
    line = {
        "correct": failed == 0 and all(math.isfinite(v) for v in values),
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(),
        "sizes": sizes,
        "setup_repeats_wall_s": setup_totals,
        "setup_wall_s": setup_wall_s,
        "fit_wall_s": fit_wall_s,
        "probe_s": speed.samples,
        "speed_factor": {phase: speed.factor(phase) for phase in speed.samples},
        "rounds": [[o.seconds for o in batch] for batch in rounds],
        "traced_round": [o.seconds for o in traced],
        "fits": [
            {
                "dataset": j,
                "kind": out.kind,
                "seconds": out.seconds,
                "exit_code": out.exit_code,
                "ok": c.ok,
                "failures": c.failures,
                "prob_err": c.prob_err,
                "grad_inf": c.grad_inf,
                "loglik": c.loglik,
            }
            for j, out, c in checked
        ],
        "fit_fail_ratio": fit_fail_ratio,
        "prob_err": prob_err,
        "grad_inf_per_visit": grad_per_visit,
        "layers": layers,
        "result": line,
    }
    with open(work_dir / f"result-{stem}-trace{int(trace)}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    for path in outs + datas:
        path.unlink(missing_ok=True)
    return record


def _layer_metrics(tracer, layers, setups, traced, untraced_fit_s) -> Dict[str, dict]:
    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    counts = tracer.counts
    compiled = {
        key: sum(c[key] for c in tracer.compiles)
        for key in ("groups", "terms", "assortments", "timed_tables", "compiled_bytes")
    }
    grad_calls = calls("estimation.loglik_grad")
    draws = counts.get("draws", 0)
    traced_fit_s = sum(o.seconds for o in traced)

    def setup_median(stage: str) -> float:
        return statistics.median(sum(getattr(s, stage) for s in rep) for rep in setups)

    return {
        "simulate.simulate_dataset_s": _metric(setup_median("simulate_s"), "s"),
        "simulate.arrivals": _metric(sum(s.arrivals for s in setups[0]), "count"),
        "io.write_visits_s": _metric(setup_median("write_s"), "s"),
        "io.read_visits_s": _metric(total("io.read_visits"), "s"),
        "io.bytes_read": _metric(counts.get("bytes_read", 0), "B"),
        "cli.overhead_s": _metric(own("cli.estimate"), "s"),
        "estimation.fit_self_s": _metric(own("estimation.fit"), "s"),
        "estimation.compile_dataset_s": _metric(total("estimation.compile_dataset"), "s"),
        "estimation.compile_self_s": _metric(own("estimation.compile_dataset"), "s"),
        "estimation.groups": _metric(compiled["groups"], "count"),
        "estimation.terms": _metric(compiled["terms"], "count"),
        "estimation.assortments": _metric(compiled["assortments"], "count"),
        "estimation.timed_tables": _metric(compiled["timed_tables"], "count"),
        "estimation.compiled_mb": _metric(compiled["compiled_bytes"] / 2**20, "MB"),
        "likelihood.resolve_s": _metric(total("likelihood.resolve"), "s"),
        "likelihood.resolve_calls": _metric(calls("likelihood.resolve"), "count"),
        "likelihood.m_max": _metric(counts.get("m_max", 0), "count"),
        "likelihood.table_build_s": _metric(total("likelihood.table_build"), "s"),
        "likelihood.table_builds": _metric(calls("likelihood.table_build"), "count"),
        "estimation.loglik_grad_calls": _metric(grad_calls, "count"),
        "estimation.loglik_grad_s": _metric(total("estimation.loglik_grad"), "s"),
        "estimation.loglik_grad_ms": _metric(
            1e3 * total("estimation.loglik_grad") / max(grad_calls, 1), "ms"
        ),
        "estimation.inner_solves": _metric(calls("estimation.minimize"), "count"),
        "estimation.inner_restarts": _metric(counts.get("inner_restarts", 0), "count"),
        "estimation.optimize_s": _metric(total("estimation.minimize"), "s"),
        "estimation.optimizer_overhead_s": _metric(own("estimation.minimize"), "s"),
        "combinatorics.draws": _metric(draws, "count"),
        "combinatorics.acceptance_ratio": _metric(
            counts.get("feasible", 0) / draws if draws else 0.0, "ratio"
        ),
        "trace.fit_s": _metric(traced_fit_s, "s"),
        "trace.untraced_fit_s": _metric(untraced_fit_s, "s"),
        "trace.overhead_s": _metric(traced_fit_s - untraced_fit_s, "s"),
    }


def report_lines(record: Dict[str, object]) -> List[str]:
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']}  trace {int(record['trace'])}",
        "machine " + "  ".join(f"{k}={v}" for k, v in record["machine"].items()),
        "sizes (exact objective; compiled MB computed from array sizes) "
        + "  ".join(f"{k}={v:.6g}" for k, v in record["sizes"].items()),
        "setup wall seconds " + " ".join(f"{s:.4f}" for s in record["setup_repeats_wall_s"]),
        f"fit wall {record['fit_wall_s']:.4f} s, setup wall "
        f"{record['setup_wall_s']:.4f} s",
    ]
    for phase, samples in record["probe_s"].items():
        lines.append(
            f"speed probe over {phase}: median {1e3 * statistics.median(samples):.4f} ms "
            f"of {len(samples)} samples; {record['speed_factor'][phase]:.4f} "
            "reference seconds per wall second"
        )
    for i, batch in enumerate(record["rounds"]):
        lines.append(f"round {i} fit wall seconds " + " ".join(f"{s:.3f}" for s in batch))
    if record["traced_round"]:
        lines.append(
            "traced round fit wall seconds "
            + " ".join(f"{s:.3f}" for s in record["traced_round"])
        )
    for fit in record["fits"]:
        status = "pass" if fit["ok"] else "FAIL: " + "; ".join(fit["failures"])
        lines.append(
            f"check {fit['kind']:<5} exit {fit['exit_code']}  prob_err "
            f"{fit['prob_err']:.4g}  |grad|inf {fit['grad_inf']:.4g}  {status}"
        )
    lines.append(
        f"fit_fail_ratio {record['fit_fail_ratio']:.4g}  prob_err "
        f"{record['prob_err']:.4g}  grad_inf_per_visit {record['grad_inf_per_visit']:.4g}"
    )
    if record["layers"]:
        lines.append("layer self times over the traced round (s; calls):")
        for name, row in sorted(
            record["layers"].items(), key=lambda kv: -kv[1]["self_s"]
        ):
            lines.append(f"  {name:<28} {row['self_s']:10.4f}  {row['calls']:>8}")
        lines.append(
            f"  {'sum of self times':<28} "
            f"{sum(r['self_s'] for r in record['layers'].values()):10.4f}"
        )
    for name, m in record["result"]["metrics"].items():
        lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, help="dataset seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stockout_demand" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import stockout_demand

    if SRC not in Path(stockout_demand.__file__).resolve().parents:
        print(f"error: stockout_demand imported from outside {SRC}", file=sys.stderr)
        return 2
    record = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), WORK_DIR
    )
    for line in report_lines(record):
        print(line)
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
