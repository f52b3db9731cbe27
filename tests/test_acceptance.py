"""Acceptance criteria, one test per criterion.

Each ``test_criterion_XX`` line in ``pytest -v`` output is the pass/fail
verdict for that criterion.
"""

import csv
import json
import math
import random
import statistics
import time
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from stockout_demand import (
    Assortment,
    AttractionModel,
    ModelParams,
    NULL,
    SECTION7_PRESET,
    SalesSummary,
    TransactionRecord,
    TruncationPolicy,
    catalog_probabilities,
    compile_dataset,
    count_stockout_vectors,
    counterexample_bruteforce,
    counterexample_expectations,
    dataset_log_likelihood,
    enumerate_stockout_vectors,
    fit,
    fit_naive,
    l2_choice_sequence,
    l4_integral,
    l4_lauricella,
    l4_transactions,
    l5_sales,
    l6_choice_part,
    simulate_dataset,
)
from stockout_demand.combinatorics import raw_stockout_draws
from stockout_demand.cli import main as cli_main
from stockout_demand.types import CompletePath, project_sales

from conftest import random_params, random_sales_summary, random_transaction_record


def test_criterion_01_counterexample_exact_rationals():
    start = time.monotonic()
    correct, heuristic = counterexample_expectations(2, 2, Fraction(1, 2))
    assert correct == Fraction(10, 11)
    assert heuristic == Fraction(26, 33)
    assert counterexample_bruteforce(2, 2, Fraction(1, 2)) == Fraction(10, 11)
    assert time.monotonic() - start < 1.0


def test_criterion_02_count_matches_enumeration_on_full_grid():
    start = time.monotonic()
    cases = 0
    for k in range(1, 4):
        for stocks in iter_product((1, 2, 3), repeat=k):
            for n in range(0, 13):
                expected = sum(1 for _ in enumerate_stockout_vectors(stocks, n))
                assert count_stockout_vectors(stocks, n) == expected, (stocks, n)
                cases += 1
    assert cases == (3 + 9 + 27) * 13
    assert time.monotonic() - start < 30.0


def test_criterion_03_single_product_base_case():
    assert count_stockout_vectors([3], 10) == 8


def test_criterion_04_l4_representation_equivalence():
    start = time.monotonic()
    rnd = random.Random(404)
    records = []
    while len(records) < 50:
        rec = random_transaction_record(rnd, max_purchases=6, max_stockouts=2)
        if rec.total <= 6:
            records.append(rec)
    for i, rec in enumerate(records):
        params = random_params(rnd, rec.initial_assortment.products)
        policy = TruncationPolicy(m=rec.total + 12)
        direct = l4_transactions(rec, params, policy)
        series = l4_lauricella(rec, params, policy)
        assert abs(series - direct) <= 1e-8 * abs(direct) + 1e-12, i
        est, rel_se = l4_integral(rec, params, mc_samples=10**6, seed=1000 + i)
        # the MC integral is untruncated; compare against the adaptive
        # (tail < 1e-10) summation, in log space where the standard error
        # of the log equals the relative standard error
        exact = l4_transactions(rec, params, TruncationPolicy())
        assert abs(est - exact) <= 3.0 * rel_se + 1e-8, i
    assert time.monotonic() - start < 120.0


def test_criterion_05_normalization_oracles():
    start = time.monotonic()
    params = ModelParams(rate=1.0, weights={0: 0.8, 1: 1.3})
    assortment = Assortment((0, 1), True)
    stocks = {0: 1, 1: 1}

    # L5 over all sales vectors, T*lambda = 1, m = 10
    total_l5 = 0.0
    for z0, z1 in iter_product((0, 1), repeat=2):
        summary = SalesSummary(1.0, assortment, stocks, {0: z0, 1: z1})
        total_l5 += math.exp(l5_sales(summary, params, TruncationPolicy(m=10)))
    assert 1.0 - 1e-6 <= total_l5 <= 1.0 + 1e-12

    # L2 over all feasible choice sequences of length <= m
    m2 = 10
    total_l2 = 0.0
    for n in range(m2 + 1):
        for seq in iter_product((NULL, 0, 1), repeat=n):
            events = tuple(((i + 1) / (n + 1), c) for i, c in enumerate(seq))
            path = CompletePath(1.0, assortment, stocks, events)
            v = l2_choice_sequence(path, params)
            if v != float("-inf"):
                total_l2 += math.exp(v)
    assert abs(total_l2 - float(poisson.cdf(m2, 1.0))) < 1e-9
    assert 1.0 - 1e-6 <= total_l2 <= 1.0 + 1e-12

    # L4 over all feasible purchase sequences
    total_l4 = 0.0
    for seq in [(), (0,), (1,), (0, 1), (1, 0)]:
        rec = TransactionRecord(
            1.0, assortment, stocks, tuple((None, p) for p in seq), False
        )
        total_l4 += math.exp(l4_transactions(rec, params, TruncationPolicy(m=10)))
    assert 1.0 - 1e-6 <= total_l4 <= 1.0 + 1e-12

    # L6 choice part sums to exactly one over sales vectors at fixed total
    no_null = Assortment((0, 1), False)
    stocks6 = {0: 2, 1: 2}
    total_l6 = 0.0
    for z0 in range(3):
        z1 = 3 - z0
        if not 0 <= z1 <= 2:
            continue
        summary = SalesSummary(1.0, no_null, stocks6, {0: z0, 1: z1})
        v = l6_choice_part(summary, params)
        if v != float("-inf"):
            total_l6 += math.exp(v)
    assert abs(total_l6 - 1.0) <= 1e-9
    assert time.monotonic() - start < 60.0


def test_criterion_06_attraction_reduction_equals_generic():
    rnd = random.Random(606)
    for i in range(100):
        summary = random_sales_summary(rnd)
        params = random_params(rnd, summary.initial_assortment.products)
        policy = TruncationPolicy(m=summary.total_sales + 5)
        generic = l5_sales(summary, params, policy)
        compiled = dataset_log_likelihood([summary], params, "sales", policy)
        assert abs(compiled - generic) <= 1e-8 * abs(generic), i


def test_criterion_07_sampler_acceptance_ratio_and_uniformity():
    stocks, n = (3, 3), 10
    feasible_count = count_stockout_vectors(stocks, n)
    assert feasible_count == 50
    draws = 10_000
    accepted = []
    stream = raw_stockout_draws(stocks, n, seed=77)
    for _ in range(draws):
        v, ok = next(stream)
        if ok:
            accepted.append(v.indices)
    ratio = len(accepted) / draws
    assert abs(ratio - 0.5) <= 0.02
    universe = sorted(v.indices for v in enumerate_stockout_vectors(stocks, n))
    counts = {u: 0 for u in universe}
    for idx in accepted:
        counts[idx] += 1
    _, p_value = chisquare(list(counts.values()))
    assert p_value > 0.001


@pytest.fixture(scope="module")
def section7_data():
    preset = SECTION7_PRESET
    paths = simulate_dataset(preset.visit_config(), 2000, seed=123)
    summaries = [project_sales(p) for p in paths]
    truth = catalog_probabilities(preset.params(), preset.catalog, False)
    return summaries, truth


def test_criterion_08_section7_replication(section7_data):
    start = time.monotonic()
    summaries, truth = section7_data
    catalog = tuple(sorted(truth))

    # (a) the exact sales estimator recovers all five choice probabilities
    exact = fit(summaries, "sales-no-null")
    assert exact.converged
    err_exact = max(abs(exact.probabilities[a] - truth[a]) for a in catalog)
    assert err_exact < 0.03

    # (b) the stock-out-blind baseline is at least twice as wrong
    naive = fit_naive(summaries)
    err_naive = max(abs(naive.probabilities[a] - truth[a]) for a in catalog)
    assert err_naive >= 2.0 * err_exact

    # (c) SAA: close to the exact estimate, spread shrinking in sample size
    deviations = {}
    for samples in (1, 4, 16):
        devs = []
        for seed in range(10):
            saa = fit(summaries, "sales-no-null", saa_samples=samples, seed=seed)
            devs.append(
                max(
                    abs(saa.probabilities[a] - exact.probabilities[a])
                    for a in catalog
                )
            )
        deviations[samples] = devs
    assert statistics.median(deviations[1]) < 0.05
    mads = {
        s: statistics.median(
            abs(d - statistics.median(devs)) for d in devs
        )
        for s, devs in deviations.items()
    }
    assert mads[1] > mads[4] > mads[16], mads
    assert time.monotonic() - start < 600.0


def _random_complete_path(rnd):
    products = (0, 1)
    stocks = {a: rnd.randint(1, 2) for a in products}
    remaining = dict(stocks)
    choices = []
    for _ in range(rnd.randint(1, 5)):
        opts = [NULL] + [a for a in products if remaining[a] > 0]
        c = rnd.choice(opts)
        if c is not NULL:
            remaining[c] -= 1
        choices.append(c)
    n = len(choices)
    events = tuple(((i + 1) / (n + 1), c) for i, c in enumerate(choices))
    return CompletePath(1.0, Assortment(products, True), stocks, events)


def test_criterion_09_gradients_match_finite_differences():
    rnd = random.Random(909)

    def check(evaluator, catalog, points=50):
        step = 1e-6
        worst = 0.0
        for _ in range(points):
            x = np.array(
                [rnd.uniform(-0.5, 1.2)] + [rnd.uniform(-1.0, 1.0) for _ in catalog]
            )
            _, grad = evaluator(x)
            for i in range(len(x)):
                up, dn = x.copy(), x.copy()
                up[i] += step
                dn[i] -= step
                fd = (evaluator(up)[0] - evaluator(dn)[0]) / (2 * step)
                rel = abs(grad[i] - fd) / max(abs(fd), abs(grad[i]), 1e-6)
                worst = max(worst, rel)
        assert worst <= 1e-4, worst

    # the compiled likelihood of one visit, for every granularity and
    # estimator: the evaluator the optimizer runs
    path = _random_complete_path(rnd)
    rec = random_transaction_record(rnd, max_purchases=5)
    rec_timed = random_transaction_record(rnd, max_purchases=5, timestamps=True)
    sales_null = random_sales_summary(rnd)
    sales_no_null = random_sales_summary(rnd, includes_null=False)
    m_sales = TruncationPolicy(m=sales_null.total_sales + 5)
    one_visit = [
        compile_dataset([path], "complete"),
        compile_dataset([rec], "transactions", TruncationPolicy(m=rec.total + 6)),
        compile_dataset([rec_timed], "transactions-timed"),
        compile_dataset([sales_null], "sales", m_sales),
        compile_dataset([sales_null], "sales", m_sales, saa_samples=1, seed=2),
        compile_dataset([sales_no_null], "sales-no-null"),
        compile_dataset([sales_null], "sales", m_sales, naive=True),
    ]
    for ds in one_visit:
        check(ds.loglik_grad, ds.catalog)

    # the whole-dataset evaluator used by the optimizer
    config_paths = simulate_dataset(
        SECTION7_PRESET.visit_config(), 40, seed=9
    )
    summaries = [project_sales(p) for p in config_paths]
    ds = compile_dataset(summaries, "sales-no-null", TruncationPolicy(m=30))
    check(ds.loglik_grad, ds.catalog, points=50)


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path, capsys):
    def run(*argv):
        return cli_main(list(argv))

    # simulate
    sim_args = ["simulate", "--preset", "section7", "--visits", "20", "--seed", "11"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(*sim_args, "--out", str(a)) == 0
    assert run(*sim_args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()

    # estimate (SAA, seeded)
    est_args = ["estimate", "--data", str(a), "--saa-samples", "1", "--seed", "0"]
    f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
    assert run(*est_args, "--out", str(f1)) in (0, 3)
    assert run(*est_args, "--out", str(f2)) in (0, 3)
    assert f1.read_bytes() == f2.read_bytes()

    # compare
    cmp_args = [
        "compare",
        "--data",
        str(a),
        "--preset",
        "section7",
        "--prefixes",
        "10,20",
        "--saa-samples",
        "1",
        "--seed",
        "0",
    ]
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert run(*cmp_args, "--out", str(c1)) == 0
    assert run(*cmp_args, "--out", str(c2)) == 0
    assert c1.read_bytes() == c2.read_bytes()

    # verify-counterexample prints identical reports
    capsys.readouterr()  # flush output from the commands above
    assert run("verify-counterexample") == 0
    first = capsys.readouterr().out
    assert run("verify-counterexample") == 0
    second = capsys.readouterr().out
    assert first == second
