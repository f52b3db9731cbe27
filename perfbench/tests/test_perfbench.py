"""Tests of the fit benchmark itself: small runs of every workload, the
output checks, and the traced run.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench
from checks import Checker, FitOutput
from stockout_demand.io import read_visits
from speed import SpeedSampler
from tracing import FIT_SPAN, Tracer, installed, traced_names
from workloads import WORKLOADS, set_up

BENCH = Path(bench.__file__).resolve().parent
ROOT = BENCH.parent
SMALL = 60


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _reported(line):
    return {name: m["unit"] for name, m in line["metrics"].items()}


def test_benchmark_json_workloads_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOAD_NAMES)
    assert set(bench.WORKLOAD_NAMES) == set(WORKLOADS)


def test_run_seeds_never_share_a_dataset():
    for wl in WORKLOADS.values():
        seeds = [c.seed for seed in range(20) for c in wl.configs_for(seed)]
        assert len(seeds) == len(set(seeds)) == 20 * wl.datasets


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_small_run_reports_end_to_end_metrics(workload, tmp_path):
    record = bench.run_benchmark(workload, 7, 0.0, False, tmp_path, visits=SMALL)
    line = record["result"]
    assert line["correct"] is True
    assert line["failed"] == 0
    wl = WORKLOADS[workload]
    assert line["attempted"] == wl.datasets * len(wl.fits)
    assert record["sizes"]["visits"] == wl.datasets * SMALL
    assert _reported(line) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    scaled = record["fit_wall_s"] * record["speed_factor"]["fit"]
    assert line["metrics"]["fit_s"]["value"] == pytest.approx(scaled)


def test_same_seed_repeats_the_estimates(tmp_path):
    first = bench.run_benchmark("section7", 9, 0.0, False, tmp_path / "a", visits=SMALL)
    second = bench.run_benchmark("section7", 9, 0.0, False, tmp_path / "b", visits=SMALL)
    assert [f["loglik"] for f in first["fits"]] == [f["loglik"] for f in second["fits"]]
    assert first["prob_err"] == second["prob_err"]
    metric = "nll_per_visit"
    assert first["result"]["metrics"][metric] == second["result"]["metrics"][metric]


def test_section7_fits_pass_every_check(tmp_path):
    record = bench.run_benchmark("section7", 123, 0.0, False, tmp_path, visits=200)
    assert [f["kind"] for f in record["fits"]] == ["exact", "naive", "saa"] * 4
    assert all(f["ok"] for f in record["fits"]), record["fits"]
    assert record["fit_fail_ratio"] == 0


def test_clamped_walkaway_fit_fails_the_stationarity_check(tmp_path):
    # the rate bracket is 5x the purchase rate; 91 % of arrivals walk away,
    # so the fitted rate sits on the bracket edge with a large gradient
    record = bench.run_benchmark("walkaway-timed", 3, 0.0, False, tmp_path, visits=600)
    assert len(record["fits"]) == 2
    for fit in record["fits"]:
        assert fit["exit_code"] == 0
        assert not fit["ok"]
        assert any("not stationary" in reason for reason in fit["failures"])
    assert record["fit_fail_ratio"] == 1.0
    assert record["prob_err"] > 0.15
    # a wrong estimate is not a failed operation
    assert record["result"]["failed"] == 0


@pytest.fixture(scope="module")
def small_checker(tmp_path_factory):
    wl = WORKLOADS["section7"]
    config = wl.configs_for(5, SMALL)[0]
    data = tmp_path_factory.mktemp("checker") / "visits.jsonl"
    set_up(config, wl.granularity, data)
    observations, _ = read_visits(str(data))
    checker = Checker(
        observations,
        {s.kind: wl.objective(s) for s in wl.fits},
        config.params(),
        config.include_null,
    )
    return checker, data


def _fit_json(data, *args):
    out = data.with_suffix(".fit.json")
    from stockout_demand import cli

    assert cli.main(["estimate", "--data", str(data), "--out", str(out), *args]) == 0
    return out.read_text()


def test_operation_checks_catch_broken_outputs(small_checker):
    checker, data = small_checker
    good = _fit_json(data)
    assert checker.check(FitOutput("exact", 0.1, 0, good)).ok

    crashed = checker.check(FitOutput("exact", 0.1, 2, good))
    assert not crashed.operation_ok
    unreadable = checker.check(FitOutput("exact", 0.1, 0, good[:-10]))
    assert not unreadable.operation_ok
    missing = checker.check(FitOutput("exact", 0.1, 0, None))
    assert not missing.operation_ok

    payload = json.loads(good)
    payload["probabilities"]["0"] += 1e-6
    skewed = checker.check(FitOutput("exact", 0.1, 0, json.dumps(payload)))
    assert not skewed.operation_ok


def test_estimate_checks_catch_wrong_parameters(small_checker):
    checker, data = small_checker
    good = _fit_json(data)
    payload = json.loads(good)
    payload["lambda_hat"] *= 1.5
    moved = checker.check(FitOutput("exact", 0.1, 0, json.dumps(payload)))
    assert moved.operation_ok and not moved.ok

    rerun = checker.check(FitOutput("exact", 0.1, 0, good), reference=good + " ")
    assert rerun.failures == ["rerun wrote different JSON"]

    # a naive fit checked on the exact objective is not its maximum
    naive = _fit_json(data, "--naive")
    assert checker.check(FitOutput("naive", 0.1, 0, naive)).ok
    assert not checker.check(FitOutput("exact", 0.1, 0, naive)).ok


def _current():
    return [vars(owner)[attr] for owner, attr in traced_names()]


def test_traced_run_restores_every_wrapper(tmp_path):
    before = _current()
    record = bench.run_benchmark("section7", 7, 0.0, True, tmp_path, visits=SMALL)
    assert all(a is b for a, b in zip(_current(), before))
    line = record["result"]
    assert line["correct"] is True
    assert _reported(line) == _declared("per_layer")
    assert (tmp_path / "spans-section7-7.json").is_file()


def test_wrappers_are_restored_when_a_fit_raises():
    before = _current()
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            assert _current() != before
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_current(), before))


def test_self_times_add_up_to_each_fit(tmp_path):
    record = bench.run_benchmark("null-sales", 7, 0.0, True, tmp_path, visits=SMALL)
    spans = json.loads((tmp_path / "spans-null-sales-7.json").read_text())["spans"]
    tracer = Tracer()
    tracer.spans = [[s["name"], s["start"], s["end"], s["parent"], s["fit"]] for s in spans]
    own = tracer.self_times()
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == FIT_SPAN]
    assert len(roots) == len(record["traced_round"])
    for root, wall in zip(roots, record["traced_round"]):
        fit = tracer.spans[root][4]
        covered = sum(o for o, s in zip(own, tracer.spans) if s[4] == fit)
        assert covered == pytest.approx(tracer.spans[root][2] - tracer.spans[root][1])
        assert covered <= wall
    layers = record["layers"]
    assert layers["estimation.loglik_grad"]["calls"] > 0
    assert layers["likelihood.table_build"]["calls"] > 0


def test_speed_phase_samples_and_disarms_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    with sampler.phase("idle"):
        time.sleep(0.5)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples["idle"]) >= 2
    assert sampler.factor("idle") > 0


def test_run_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "section7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
