"""Stock-out index vectors: feasibility, counting, enumeration, sampling.

Within a visit of ``n`` arrivals where products with stocks
``s_1, ..., s_k`` sell out, the latent arrival indices at which each one
hits zero form a "stock-out vector".  These vectors index the inner sums
of the sales likelihoods; this module provides the closed-form count, a
brute-force enumerator used as an oracle, and uniform sampling without
replacement via a linear congruential generator with rejection.  A vector
is a tuple, or a numpy row, of arrival indices that lists its products by
position, ``0, ..., k - 1``, in the order of their stocks.

A sample is the first feasible vectors of the generator's stream, read in
one of two ways with the same result.  The stream's states are computed a
numpy block at a time by affine jump-ahead, and decoded and checked in
numpy, so rejecting a state costs no Python step.  A block with few
candidates against the states the stream would walk is drawn without
walking it: :func:`sample_by_position` decodes every candidate, finds each
feasible one's step count in the cycle bit by bit, and keeps the earliest,
for a whole table's blocks at once.
"""

from __future__ import annotations

import math
import random
from itertools import product as iter_product
from typing import Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "is_feasible",
    "count_stockout_vectors",
    "enumerate_stockout_vectors",
    "sample_stockout_vectors",
    "raw_stockout_draws",
    "drawn_by_position",
    "sample_by_position",
    "log_multinomial",
    "log_binomial",
]

ENUMERATION_GUARD = 10**7


def is_feasible(stocks: Sequence[int], indices: Sequence[int], n: int) -> bool:
    """Whether some feasible choice sequence of ``n`` arrivals sells out the
    products with ``stocks`` at the (1-based) arrival ``indices``, one per
    product; :class:`ValueError` if they do not align.

    Rules: indices in ``[1, n]``, pairwise distinct, and each index leaves
    room for all units sold out at or before it:
    ``r_j >= s_j + sum_{i: r_i < r_j} s_i``.
    """
    if len(stocks) != len(indices):
        raise ValueError("stocks and indices must align")
    if len(set(indices)) != len(indices):
        return False
    if any(not 1 <= x <= n for x in indices):
        return False
    cum = 0
    for idx, s in sorted(zip(indices, stocks)):
        cum += s
        if idx < cum:
            return False
    return True


def count_stockout_vectors(stocks: Sequence[int], n: int) -> int:
    """Closed-form count of distinct feasible stock-out vectors.

    ``f = (n+1)!/(n+1-h)! - n!/(n+1-h)! * sum(stocks)`` for ``h`` products,
    or 0 when fewer arrivals than total units (no feasible sequence).
    Exact big-integer arithmetic throughout; the falling factorial
    ``n!/(n+1-h)!`` has only ``h - 1`` factors.
    """
    h = len(stocks)
    if h == 0:
        return 1
    if n < sum(stocks) or n + 1 - h < 1:
        return 0
    falling = math.perm(n, h - 1)
    return (n + 1) * falling - falling * sum(stocks)


def enumerate_stockout_vectors(stocks: Sequence[int], n: int) -> Iterator[Tuple[int, ...]]:
    """Yield every feasible vector exactly once (brute force over ``n^k``)."""
    k = len(stocks)
    if k == 0:
        yield ()
        return
    if n**k > ENUMERATION_GUARD:
        raise ValueError(f"refusing to enumerate {n}^{k} > {ENUMERATION_GUARD} candidates")
    for indices in iter_product(range(1, n + 1), repeat=k):
        if is_feasible(stocks, indices, n):
            yield indices


def _lcg_params(modulus: int, rng: random.Random) -> Tuple[int, int, int]:
    """Full-period mixed LCG parameters for a power-of-two modulus."""
    a = (rng.randrange(modulus // 8) * 8 + 5) % modulus or 5
    c = rng.randrange(modulus) | 1
    state = rng.randrange(modulus)
    return a, c, state

# Minimum LCG modulus.  The paper's procedure walks the smallest power of
# two >= n^k, but for tiny ranges that leaves too few distinct generators
# per seed for the sampled subsets to look uniform across seeds; a larger
# modulus with cycle-walking keeps the draw exact and well mixed.
_MIN_MODULUS_BITS = 16

# LCG states computed per numpy block.  A power of two no larger than the
# minimum modulus, so whole blocks tile every period exactly.
_BLOCK = 1 << 12

# Most candidates a block drawn by cycle position decodes: past it, the
# stream's walk is cheaper to hold in memory.
_POSITION_MAX = 1 << 20


def _modulus_bits(total: int) -> int:
    """Bits of the LCG modulus that walks the candidates ``[0, total)``."""
    return max(total.bit_length(), _MIN_MODULUS_BITS)


def _jump_ahead(a: int, c: int, mask: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """``A_i = a^(i+1)`` and ``C_i = c(1 + a + ... + a^i)`` modulo ``mask + 1``
    for ``i < _BLOCK``, so that ``state_{t+i+1} = A_i state_t + C_i``.

    ``uint64`` cumulative products and sums wrap modulo 2^64, a multiple of
    every modulus up to 2^64; larger moduli step Python integers.
    """
    if dtype is object:
        A, C = [a], [c]
        for _ in range(_BLOCK - 1):
            A.append(A[-1] * a & mask)
            C.append(C[-1] * a + c & mask)
        return np.array(A, dtype=object), np.array(C, dtype=object)
    A = np.cumprod(np.full(_BLOCK, a, dtype=np.uint64))
    powers = np.concatenate([np.ones(1, dtype=np.uint64), A[:-1]])
    return A & mask, (np.cumsum(powers) * c) & mask


def _digits(x: np.ndarray, n: int, k: int) -> np.ndarray:
    """Base-``n`` remainders of each ``x``, shifted to 1-based indices: one
    row of ``k`` indices per candidate."""
    out = np.empty((x.size, k), dtype=np.int64)
    for j in range(k):
        out[:, j] = (x % n).astype(np.int64) + 1
        x = x // n
    return out


def _feasible(indices: np.ndarray, stocks: np.ndarray) -> np.ndarray:
    """:func:`is_feasible` of each row of ``indices`` (in ``[1, n]``, as
    :func:`_digits` gives them) with the stocks ``stocks`` (one row, or
    one per row): distinct indices, each at least its own stock plus the
    stocks of the products with smaller indices."""
    k = indices.shape[1]
    s = np.broadcast_to(stocks, indices.shape)
    ok = np.ones(len(indices), dtype=bool)
    for j in range(k):
        r = indices[:, j]
        need = s[:, j]
        for i in range(k):
            if i != j:
                need = need + np.where(indices[:, i] < r, s[:, i], 0)
            if i < j:
                ok &= indices[:, i] != r
        ok &= r >= need
    return ok


def _lcg_blocks(
    stocks: Sequence[int], n: int, seed: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The stream of :func:`raw_stockout_draws` a block of LCG states at a
    time: each block's in-range candidates, as index rows, and their
    feasibility.  The states are ``(A state + C) mod 2^bits`` from
    :func:`_jump_ahead`, which gives the same stream as stepping the
    generator one state at a time; arithmetic is ``uint64`` for moduli up
    to 2^64 and Python integers past them."""
    k = len(stocks)
    if k and n < 1:
        raise ValueError(f"no candidate vectors for {k} products at n = {n}")
    level = np.array(stocks, dtype=np.int64)
    total = n**k
    bits = _modulus_bits(total)
    modulus = 1 << bits
    mask = modulus - 1
    dtype = np.uint64 if bits <= 64 else object
    cycle = 0
    while True:
        a, c, state = _lcg_params(modulus, random.Random(f"{seed}:{cycle}"))
        A, C = _jump_ahead(a, c, mask, dtype)
        for _ in range(modulus // _BLOCK):
            block = (A * state + C) & mask
            state = block[-1]
            indices = _digits(block[block < total], n, k)
            yield indices, _feasible(indices, level)
        cycle += 1


def raw_stockout_draws(
    stocks: Sequence[int], n: int, seed: int
) -> Iterator[Tuple[Tuple[int, ...], bool]]:
    """Endless stream of raw candidate vectors with their feasibility flag.

    Each full LCG period visits every integer in ``[0, n^k)`` exactly once
    (out-of-range states are skipped); successive periods re-key the
    generator from the seed.  Candidate ``x`` is the vector of its base-``n``
    digits, least significant first, each plus one.
    """
    for indices, feasible in _lcg_blocks(stocks, n, seed):
        for row, ok in zip(indices.tolist(), feasible.tolist()):
            yield tuple(row), ok


def sample_stockout_vectors(
    stocks: Sequence[int], n: int, sample_size: int, seed: int
) -> np.ndarray:
    """Uniform sample of feasible vectors, without replacement: the first
    ``sample_size`` feasible vectors of :func:`raw_stockout_draws`, as ``int64`` rows.

    One full-period LCG pass visits each candidate integer once; base-``n``
    decomposition turns it into indices and infeasible candidates are
    rejected, so the kept vectors are a uniform without-replacement draw.
    The stream is read a numpy block of states at a time.
    """
    count = count_stockout_vectors(stocks, n)
    if sample_size > count:
        raise ValueError(f"sample_size {sample_size} exceeds feasible count {count}")
    rows = np.zeros((0, len(stocks)), dtype=np.int64)
    blocks = _lcg_blocks(stocks, n, seed)
    while len(rows) < sample_size:
        indices, feasible = next(blocks)
        rows = np.concatenate([rows, indices[feasible][: sample_size - len(rows)]])
    return rows


def drawn_by_position(k: int, n: int, take: int, count: int) -> bool:
    """Whether :func:`sample_by_position` draws ``take`` of the ``count``
    feasible vectors of ``k`` products at ``n`` arrivals: when it decodes
    no more candidates than the stream would walk states,
    ``n^k count <= take 2^bits``, and at most ``_POSITION_MAX``."""
    total = n**k
    return total <= _POSITION_MAX and total * count <= take << _modulus_bits(total)


def sample_by_position(
    stocks: np.ndarray, n: np.ndarray, take: np.ndarray, seeds: Sequence[int]
) -> np.ndarray:
    """The vectors :func:`sample_stockout_vectors` draws for each block
    ``(stocks[b], n[b], take[b], seeds[b])``, as index rows, block by
    block in draw order, without walking the generator.

    Every candidate in ``[0, n^k)`` is decoded and the feasible ones kept.
    Each one's step count from the block's first-period start state is its
    LCG distance, found bit by bit (O'Neill 2014): where bit ``i`` of the
    state still differs from the candidate's, the jump of ``2^i`` steps is
    applied, which fixes that bit and keeps the lower ones.  A distance of
    0 is the start state itself, the last state of the period.  The
    ``take`` earliest are the stream's, since ``take`` is at most the
    feasible count and one period visits every candidate once.  Every
    block must satisfy :func:`drawn_by_position`, so its modulus is below
    2^21.  The walk is ``uint64``, which wraps modulo 2^64, a multiple of
    every modulus, so the bits below a block's modulus are exact.
    """
    blocks, k = stocks.shape
    totals = n**k
    block = np.repeat(np.arange(blocks), totals)
    x = np.arange(block.size) - np.repeat(np.cumsum(totals) - totals, totals)
    indices = _digits(x, n[block], k)
    feasible = _feasible(indices, stocks[block])
    block, indices, x = block[feasible], indices[feasible], x[feasible]
    bits = [_modulus_bits(total) for total in totals.tolist()]
    params = [
        _lcg_params(1 << b, random.Random(f"{seed}:0")) for b, seed in zip(bits, seeds)
    ]
    a, c, start = np.array(params, dtype=np.uint64).reshape(blocks, 3).T
    state = start[block]
    target = x.astype(np.uint64)
    distance = np.zeros(block.size, dtype=np.uint64)
    for i in range(max(bits, default=0)):
        differ = (state ^ target) & np.uint64(1 << i)
        distance |= differ
        state = np.where(differ != 0, a[block] * state + c[block], state)
        # the jump of 2^(i+1) steps is the 2^i-step jump applied twice
        a, c = a * a, (a + 1) * c
    mask = (np.uint64(1) << np.array(bits, dtype=np.uint64)) - 1
    position = ((distance - 1) & mask[block]).astype(np.int64)
    counts = np.bincount(block, minlength=blocks)
    order = np.argsort((block << 21) + position)  # positions are below 2^21
    rank = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return indices[order[rank < np.repeat(take, counts)]]


def log_multinomial(counts: Sequence[int]) -> float:
    """``log[(sum counts)! / prod(counts!)]`` via log-gamma."""
    total = sum(counts)
    return math.lgamma(total + 1) - sum(math.lgamma(c + 1) for c in counts)


def log_binomial(n: int, k: int) -> float:
    """``log C(n, k)``; minus infinity outside the triangle."""
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
