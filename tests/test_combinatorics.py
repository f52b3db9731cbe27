"""Stock-out vectors: feasibility, counting, sampling, layouts."""

import math
import random
from collections import Counter
from itertools import islice, product as iter_product

import numpy as np
import pytest

from stockout_demand import (
    Assortment,
    SalesSummary,
    StockoutVector,
    count_stockout_vectors,
    enumerate_stockout_vectors,
    is_feasible,
    likelihood,
    sample_stockout_vectors,
)
from stockout_demand.combinatorics import (
    _MIN_MODULUS_BITS,
    _lcg_params,
    log_binomial,
    log_multinomial,
    raw_stockout_draws,
)


def multinomial_exact(counts):
    """Exact big-integer multinomial coefficient."""
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def reference_draws(stocks, n, seed):
    """The sampler's stream stepped one LCG state at a time: each period
    walks every state mod ``2^bits`` and keeps those below ``n^k``."""
    k = len(stocks)
    total = n**k
    modulus = 1 << max(total.bit_length(), _MIN_MODULUS_BITS)
    cycle = 0
    while True:
        a, c, state = _lcg_params(modulus, random.Random(f"{seed}:{cycle}"))
        for _ in range(modulus):
            state = (a * state + c) % modulus
            if state >= total:
                continue
            x, indices = state, []
            for _ in range(k):
                x, rem = divmod(x, n)
                indices.append(rem + 1)
            v = StockoutVector(tuple(stocks), tuple(indices), n)
            yield v.indices, is_feasible(v)
        cycle += 1


class TestFeasibility:
    def test_duplicate_indices_infeasible(self):
        v = StockoutVector((1, 1), (3, 3), 5)
        assert not is_feasible(v)

    def test_out_of_range_infeasible(self):
        assert not is_feasible(StockoutVector((2,), (0,), 5))
        assert not is_feasible(StockoutVector((2,), (6,), 5))

    def test_cumulative_room_rule(self):
        # product 0 (stock 2) out at arrival 2 is fine alone, but product 1
        # (stock 2) cannot also be out by arrival 3: 3 < 2 + 2
        assert is_feasible(StockoutVector((2,), (2,), 5))
        assert not is_feasible(StockoutVector((2, 2), (2, 3), 5))
        assert is_feasible(StockoutVector((2, 2), (2, 4), 5))


class TestCount:
    def test_base_case_h1(self):
        # single product, stock s: n + 1 - s feasible indices
        assert count_stockout_vectors([3], 10) == 8

    def test_h2_closed_form(self):
        assert count_stockout_vectors([3, 3], 10) == 50

    def test_no_stockouts(self):
        assert count_stockout_vectors([], 7) == 1

    def test_too_few_arrivals(self):
        assert count_stockout_vectors([3, 3], 5) == 0

    def test_packed_left_when_n_equals_total_stock(self):
        for stocks in [(1, 2), (2, 2, 1), (3,)]:
            n = sum(stocks)
            expected = sum(1 for _ in enumerate_stockout_vectors(stocks, n))
            assert count_stockout_vectors(stocks, n) == expected

    def test_matches_enumeration_on_grid(self):
        for k in range(1, 4):
            for stocks in iter_product((1, 2, 3), repeat=k):
                for n in range(0, 13):
                    expected = sum(1 for _ in enumerate_stockout_vectors(stocks, n))
                    assert count_stockout_vectors(stocks, n) == expected, (stocks, n)


    def test_equals_factorial_formula(self):
        def by_factorials(stocks, n):
            h = len(stocks)
            if n < sum(stocks) or n + 1 - h < 1:
                return 0
            falling = math.factorial(n) // math.factorial(n + 1 - h)
            return (n + 1) * falling - falling * sum(stocks)

        cases = [((1,) * 4, 70000)] + [
            (stocks, n)
            for k in range(1, 4)
            for stocks in iter_product((1, 2, 3), repeat=k)
            for n in range(0, 13)
        ]
        for stocks, n in cases:
            assert count_stockout_vectors(stocks, n) == by_factorials(stocks, n), (stocks, n)


class TestSampling:
    def test_without_replacement_and_exhaustive_coverage(self):
        stocks, n = (2, 1), 6
        count = count_stockout_vectors(stocks, n)
        sample = sample_stockout_vectors(stocks, n, count, seed=7)
        assert len({v.indices for v in sample}) == count
        universe = {v.indices for v in enumerate_stockout_vectors(stocks, n)}
        assert {v.indices for v in sample} == universe

    def test_oversampling_rejected(self):
        count = count_stockout_vectors([2], 4)
        with pytest.raises(ValueError):
            sample_stockout_vectors([2], 4, count + 1, seed=0)

    def test_deterministic_in_seed(self):
        a = sample_stockout_vectors((3, 3), 10, 5, seed=42)
        b = sample_stockout_vectors((3, 3), 10, 5, seed=42)
        assert [v.indices for v in a] == [v.indices for v in b]
        c = sample_stockout_vectors((3, 3), 10, 5, seed=43)
        assert [v.indices for v in a] != [v.indices for v in c]

    def test_pair_frequencies_uniform_across_seeds(self):
        # h=1, n=4, s=2: feasible indices {2, 3, 4}; sampling 2 of 3 should
        # hit each unordered pair about 1/3 of the time across seeds
        counts = Counter()
        trials = 3000
        for seed in range(trials):
            pair = frozenset(
                v.indices[0] for v in sample_stockout_vectors([2], 4, 2, seed=seed)
            )
            counts[pair] += 1
        assert set(counts) == {
            frozenset({2, 3}),
            frozenset({2, 4}),
            frozenset({3, 4}),
        }
        # 3 sigma for a binomial(trials, 1/3)
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        for pair, c in counts.items():
            assert abs(c - trials / 3) < 3.5 * sigma, counts

    def test_raw_draws_cover_every_candidate(self):
        stocks, n = (3, 3), 10
        total = n ** len(stocks)
        seen = []
        stream = raw_stockout_draws(stocks, n, seed=11)
        for _ in range(total):
            v, ok = next(stream)
            assert ok == is_feasible(v)
            seen.append(v.indices)
        # one full period visits every candidate exactly once
        assert len(set(seen)) == total

    @pytest.mark.parametrize(
        "stocks, n, draws",
        [
            ((3, 3), 10, 300),  # the 2^16 modulus floor, three periods
            ((1, 1, 1), 100, 3000),  # a 20-bit modulus
            ((1,) * 4, 65535, 3000),  # exactly 64 bits
            ((1,) * 4, 70000, 3000),  # 65 bits: past uint64
            ((2,), 3, 4 * 3),  # four periods of three candidates
        ],
    )
    def test_raw_draws_match_the_stepwise_generator(self, stocks, n, draws):
        for seed in (0, 5):
            got = [
                (v.indices, ok) for v, ok in islice(raw_stockout_draws(stocks, n, seed), draws)
            ]
            assert got == list(islice(reference_draws(stocks, n, seed), draws))

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_candidate_range_rejected(self, n):
        with pytest.raises(ValueError):
            next(raw_stockout_draws((3,), n, seed=1))


def segment_terms(stacked):
    """Every term of a stack as its faced segments: (membership row,
    exponent) pairs, zero exponents dropped."""
    membership, _, _, _, seg_idx, seg_exp, *_ = stacked
    return [
        tuple((tuple(membership[d]), e) for d, e in zip(idx, exps) if e)
        for idx, exps in zip(seg_idx.tolist(), seg_exp.tolist())
    ]


class TestDrawnLayouts:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sampler_layouts_are_the_enumerated_layouts(self, k, monkeypatch):
        # an SAA stack that draws every vector of a no-null shape must face
        # exactly the exact enumeration's layouts, vector i as term i
        for stocks in iter_product((1, 2, 3) if k < 3 else (1, 2), repeat=k):
            for n in range(sum(stocks), sum(stocks) + 4):
                vectors = list(enumerate_stockout_vectors(stocks, n))
                count = len(vectors)
                # a sample of every vector, still taken as a draw
                monkeypatch.setattr(likelihood, "count_stockout_vectors", lambda s, n: count + 1)
                monkeypatch.setattr(
                    likelihood, "sample_stockout_vectors", lambda s, n, take, seed: vectors
                )
                free = n - sum(stocks)
                summary = SalesSummary(
                    1.0,
                    Assortment(tuple(range(k + 1)), False),
                    {**dict(enumerate(stocks)), k: free + 1},
                    {**dict(enumerate(stocks)), k: free},
                )
                products = summary.initial_assortment.products
                group = (likelihood.sales_key(summary), 1, 0, 0)
                saa = likelihood.table_sales(products, [group], count)
                exact = likelihood.table_sales(products, [group])
                got = segment_terms(saa)
                assert sorted(got) == sorted(segment_terms(exact)), (stocks, n)
                # the first k segments close with a stock-out, so their
                # exponents (size + 1) are nonzero and add up to its index
                membership = saa[0]
                for v, idx, exps in zip(vectors, saa[4], saa[5]):
                    left = [set(np.flatnonzero(membership[d][:k])) for d in idx[:k]]
                    left.append(set())  # nothing stocked out is left at the end
                    ends = np.cumsum(exps[:k])
                    indices = [0] * k
                    for j in range(k):
                        (position,) = left[j] - left[j + 1]
                        indices[position] = int(ends[j])
                    assert tuple(indices) == v.indices


class TestLogHelpers:
    def test_log_multinomial_matches_exact(self, rng):
        for _ in range(50):
            counts = [rng.randint(0, 20) for _ in range(rng.randint(1, 4))]
            exact = multinomial_exact(counts)
            assert math.exp(log_multinomial(counts)) == pytest.approx(exact, rel=1e-10)

    def test_log_binomial_triangle(self):
        assert log_binomial(5, 6) == float("-inf")
        assert log_binomial(5, -1) == float("-inf")
        assert math.exp(log_binomial(10, 3)) == pytest.approx(120.0, rel=1e-12)
