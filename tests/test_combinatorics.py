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
    count_stockout_vectors,
    enumerate_stockout_vectors,
    is_feasible,
    likelihood,
    sample_stockout_vectors,
)
from stockout_demand.combinatorics import (
    _MIN_MODULUS_BITS,
    _lcg_params,
    drawn_by_position,
    log_binomial,
    log_multinomial,
    raw_stockout_draws,
    sample_by_position,
)

from conftest import stack_sales


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
            yield tuple(indices), is_feasible(stocks, indices, n)
        cycle += 1


def reference_sample(stocks, n, take, seed):
    """The first ``take`` feasible vectors of the stepwise stream."""
    return list(islice((v for v, ok in reference_draws(stocks, n, seed) if ok), take))


# SAA(16) of a section7-like block: two products of stock 3 sell out at 10
# arrivals (50 feasible vectors), at the stream seed of a section7 visit
GOLDEN_BLOCK = ((3, 3), 10, 16, 1999011995)
GOLDEN_DRAW = [
    (6, 4), (7, 5), (10, 4), (8, 9), (8, 7), (9, 6), (9, 7), (3, 9),
    (6, 7), (9, 4), (6, 8), (4, 9), (10, 6), (7, 6), (6, 9), (10, 7),
]


class TestFeasibility:
    def test_duplicate_indices_infeasible(self):
        assert not is_feasible((1, 1), (3, 3), 5)

    def test_out_of_range_infeasible(self):
        assert not is_feasible((2,), (0,), 5)
        assert not is_feasible((2,), (6,), 5)

    def test_cumulative_room_rule(self):
        # product 0 (stock 2) out at arrival 2 is fine alone, but product 1
        # (stock 2) cannot also be out by arrival 3: 3 < 2 + 2
        assert is_feasible((2,), (2,), 5)
        assert not is_feasible((2, 2), (2, 3), 5)
        assert is_feasible((2, 2), (2, 4), 5)

    def test_misaligned_stocks_and_indices_rejected(self):
        with pytest.raises(ValueError, match="stocks and indices must align"):
            is_feasible((2, 2), (2,), 5)


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
        assert sample.dtype == np.int64 and sample.shape == (count, len(stocks))
        assert len({tuple(row) for row in sample.tolist()}) == count
        universe = set(enumerate_stockout_vectors(stocks, n))
        assert {tuple(row) for row in sample.tolist()} == universe

    def test_oversampling_rejected(self):
        count = count_stockout_vectors([2], 4)
        with pytest.raises(ValueError):
            sample_stockout_vectors([2], 4, count + 1, seed=0)

    def test_deterministic_in_seed(self):
        a = sample_stockout_vectors((3, 3), 10, 5, seed=42)
        b = sample_stockout_vectors((3, 3), 10, 5, seed=42)
        assert a.tolist() == b.tolist()
        c = sample_stockout_vectors((3, 3), 10, 5, seed=43)
        assert a.tolist() != c.tolist()

    def test_pair_frequencies_uniform_across_seeds(self):
        # h=1, n=4, s=2: feasible indices {2, 3, 4}; sampling 2 of 3 should
        # hit each unordered pair about 1/3 of the time across seeds
        counts = Counter()
        trials = 3000
        for seed in range(trials):
            pair = frozenset(sample_stockout_vectors([2], 4, 2, seed=seed)[:, 0].tolist())
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
            assert ok == is_feasible(stocks, v, n)
            seen.append(v)
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
            got = list(islice(raw_stockout_draws(stocks, n, seed), draws))
            assert got == list(islice(reference_draws(stocks, n, seed), draws))

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_candidate_range_rejected(self, n):
        with pytest.raises(ValueError):
            next(raw_stockout_draws((3,), n, seed=1))


# per stock-out count, a table's sampled blocks ``(stocks, n, take)`` on both
# sides of the cost line, with their side (True: drawn by cycle position)
# and their modulus bits
MIXED_BLOCKS = {
    1: [
        (((2,), 9, 3), True, 16),
        (((1,), 40, 39), True, 16),  # take = count - 1
        (((599990,), 600000, 10), True, 20),  # take = count - 1
        (((1,), 30000, 5), False, 16),
        (((1,), 700000, 4), False, 20),
    ],
    2: [
        (((3, 3), 10, 16), True, 16),
        (((2, 2), 6, 17), True, 16),  # take = count - 1
        (((1, 1), 1000, 4), False, 20),
        (((1, 1), 2**32 - 1, 2), False, 64),
        (((1, 1), 2**32 + 1, 2), False, 65),
    ],
    3: [
        (((1, 2, 1), 9, 16), True, 16),
        (((1, 1, 1), 5, 59), True, 16),  # take = count - 1
        (((1, 1, 1), 100, 3), False, 20),
        (((1, 1, 1), 2_600_000, 2), False, 64),
        (((1, 1, 1), 2_700_000, 2), False, 65),
    ],
}


class TestDrawByPosition:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_table_draws_match_the_stepwise_stream(self, k, monkeypatch):
        # a table's sampled blocks of k stock-outs, drawn in one batch, are
        # the stepwise stream's draws block by block
        blocks = []
        for i, ((stocks, n, take), cheap, bits) in enumerate(MIXED_BLOCKS[k]):
            count = count_stockout_vectors(stocks, n)
            assert take < count
            assert max((n**k).bit_length(), _MIN_MODULUS_BITS) == bits
            assert drawn_by_position(k, n, take, count) == cheap, (stocks, n)
            blocks.append((stocks, n, take, count, 1000 + i))
        drawn = []

        def spy(stocks, n, take, seeds):
            drawn.extend(n.tolist())
            return sample_by_position(stocks, n, take, seeds)

        monkeypatch.setattr(likelihood, "sample_by_position", spy)
        got = likelihood._drawn(blocks, k)
        want = [v for *b, _, seed in blocks for v in reference_sample(*b, seed)]
        assert [tuple(row) for row in got.tolist()] == want
        # only the blocks under the line skip the stream, none of 65 bits
        assert drawn == [n for (_, n, _), cheap, _ in MIXED_BLOCKS[k] if cheap]

    def test_batch_of_mixed_shapes_matches_the_stepwise_stream(self):
        rng = random.Random(3)
        for k in (1, 2, 3):
            blocks = []
            while len(blocks) < 12:
                stocks = tuple(rng.randint(1, 3) for _ in range(k))
                n = sum(stocks) + rng.randint(0, 30 if k < 3 else 8)
                count = count_stockout_vectors(stocks, n)
                take = rng.randint(1, max(1, min(count - 1, 20)))
                if take < count and drawn_by_position(k, n, take, count):
                    blocks.append((stocks, n, take, rng.randrange(2**32)))
            stocks, n, take, seeds = zip(*blocks)
            got = sample_by_position(
                np.array(stocks).reshape(-1, k), np.array(n), np.array(take), seeds
            )
            want = [v for b in blocks for v in reference_sample(*b)]
            assert [tuple(row) for row in got.tolist()] == want, k

    def test_start_state_is_drawn_last(self):
        # the start state is the last step of its period, not step 0: a
        # block whose start state is a candidate, drawn all but one
        stocks, n = (1,), 40
        count = count_stockout_vectors(stocks, n)
        starts = (_lcg_params(1 << 16, random.Random(f"{s}:0"))[2] for s in range(10**5))
        seed, start = next((s, x) for s, x in enumerate(starts) if x < n)
        got = sample_by_position(np.array([stocks]), np.array([n]), np.array([count - 1]), [seed])
        want = reference_sample(stocks, n, count - 1, seed)
        assert [tuple(row) for row in got.tolist()] == want
        assert (start + 1,) not in want

    def test_golden_draw(self):
        # a literal draw, so that a change to the stream itself fails
        stocks, n, take, seed = GOLDEN_BLOCK
        assert count_stockout_vectors(stocks, n) == 50
        got = sample_by_position(np.array([stocks]), np.array([n]), np.array([take]), [seed])
        assert [tuple(row) for row in got.tolist()] == GOLDEN_DRAW
        drawn = sample_stockout_vectors(stocks, n, take, seed)
        assert [tuple(row) for row in drawn.tolist()] == GOLDEN_DRAW
        assert reference_sample(stocks, n, take, seed) == GOLDEN_DRAW

    def test_the_cost_line(self):
        # 10^2 candidates against 16/50 of a 2^16 period; 100^3 candidates
        # against 3/970200 of a 2^20 one; a 65-bit range never
        assert drawn_by_position(2, 10, 16, 50)
        assert not drawn_by_position(3, 100, 3, count_stockout_vectors((1, 1, 1), 100))
        assert not drawn_by_position(4, 65536, 2**63, 2**63 + 1)


def segment_terms(stacked):
    """Every term of a stack as its faced segments: (membership row,
    exponent) pairs, zero exponents dropped."""
    membership, _, _, _, data, indices, indptr, *_ = stacked
    return [
        tuple((tuple(membership[d]), e) for d, e in zip(indices[i:j], data[i:j]) if e)
        for i, j in zip(indptr.tolist(), indptr[1:].tolist())
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
                    likelihood, "_drawn", lambda blocks, k: np.array(vectors)
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
                saa = stack_sales(products, [group], saa_samples=count)
                exact = stack_sales(products, [group])
                got = segment_terms(saa)
                assert sorted(got) == sorted(segment_terms(exact)), (stocks, n)
                # the first k segments close with a stock-out, so their
                # exponents (size + 1) are nonzero and add up to its index
                membership, data, columns, indptr = saa[0], saa[4], saa[5], saa[6]
                rows = [slice(i, j) for i, j in zip(indptr.tolist(), indptr[1:].tolist())]
                for v, row in zip(vectors, rows):
                    idx, exps = columns[row], data[row]
                    left = [set(np.flatnonzero(membership[d][:k])) for d in idx[:k]]
                    left.append(set())  # nothing stocked out is left at the end
                    ends = np.cumsum(exps[:k])
                    indices = [0] * k
                    for j in range(k):
                        (position,) = left[j] - left[j + 1]
                        indices[position] = int(ends[j])
                    assert tuple(indices) == v


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
