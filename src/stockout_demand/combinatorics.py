"""Stock-out index vectors: feasibility, counting, enumeration, sampling.

Within a visit of ``n`` arrivals where products with stocks
``s_1, ..., s_k`` sell out, the latent arrival indices at which each one
hits zero form a "stock-out vector".  These vectors index the inner sums
of the sales likelihoods; this module provides the closed-form count, a
brute-force enumerator used as an oracle, and uniform sampling without
replacement via a linear congruential generator with rejection.  A vector
lists its products by position, ``0, ..., k - 1``, in the order of their
stocks.  The generator's states are computed a numpy block at a time by
affine jump-ahead, so rejecting out-of-range states costs no Python step
per state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "StockoutVector",
    "is_feasible",
    "count_stockout_vectors",
    "enumerate_stockout_vectors",
    "sample_stockout_vectors",
    "raw_stockout_draws",
    "log_multinomial",
    "log_binomial",
]

ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class StockoutVector:
    """Arrival indices (1-based) at which the products with ``stocks``
    sell out, one per product."""

    stocks: Tuple[int, ...]
    indices: Tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if len(self.stocks) != len(self.indices):
            raise ValueError("stocks and indices must align")


def is_feasible(v: StockoutVector) -> bool:
    """Whether some feasible choice sequence realizes these stock-out indices.

    Rules: indices in ``[1, n]``, pairwise distinct, and each index leaves
    room for all units sold out at or before it:
    ``r_j >= s_j + sum_{i: r_i < r_j} s_i``.
    """
    r = v.indices
    if len(set(r)) != len(r):
        return False
    if any(not 1 <= x <= v.n for x in r):
        return False
    cum = 0
    for idx, s in sorted(zip(r, v.stocks)):
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


def enumerate_stockout_vectors(stocks: Sequence[int], n: int) -> Iterator[StockoutVector]:
    """Yield every feasible vector exactly once (brute force over ``n^k``)."""
    k = len(stocks)
    if k == 0:
        yield StockoutVector((), (), n)
        return
    if n**k > ENUMERATION_GUARD:
        raise ValueError(f"refusing to enumerate {n}^{k} > {ENUMERATION_GUARD} candidates")
    stocks = tuple(stocks)
    for indices in iter_product(range(1, n + 1), repeat=k):
        v = StockoutVector(stocks, indices, n)
        if is_feasible(v):
            yield v


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


def _jump_ahead(a: int, c: int, mask: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """``A_i = a^(i+1)`` and ``C_i = c(1 + a + ... + a^i)`` modulo ``mask + 1``
    for ``i < _BLOCK``, so that ``state_{t+i+1} = A_i state_t + C_i``.

    Built by doubling: ``A_{h+j} = A_j A_{h-1}``, ``C_{h+j} = A_j C_{h-1} + C_j``.
    """
    A = np.array([a], dtype=dtype)
    C = np.array([c], dtype=dtype)
    while len(A) < _BLOCK:
        A, C = (
            np.concatenate([A, (A * A[-1]) & mask]),
            np.concatenate([C, (A * C[-1] + C) & mask]),
        )
    return A, C


def _decompose(x: int, n: int, k: int) -> Tuple[int, ...]:
    """Base-``n`` remainders of ``x``, each shifted to 1-based indices."""
    digits: List[int] = []
    for _ in range(k):
        x, rem = divmod(x, n)
        digits.append(rem + 1)
    return tuple(digits)


def raw_stockout_draws(
    stocks: Sequence[int], n: int, seed: int
) -> Iterator[Tuple[StockoutVector, bool]]:
    """Endless stream of raw candidate vectors with their feasibility flag.

    Each full LCG period visits every integer in ``[0, n^k)`` exactly once
    (out-of-range states are skipped); successive periods re-key the
    generator from the seed.  The period's states are computed a block at
    a time as ``(A state + C) mod 2^bits`` from :func:`_jump_ahead`, which
    gives the same stream as stepping the generator one state at a time.
    Arithmetic is ``uint64``, which wraps exactly for moduli up to 2^64;
    larger ranges use Python integers through the same expression.
    """
    k = len(stocks)
    if k and n < 1:
        raise ValueError(f"no candidate vectors for {k} products at n = {n}")
    stocks = tuple(stocks)
    total = n**k
    bits = max(total.bit_length(), _MIN_MODULUS_BITS)
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
            for x in block[block < total].tolist():
                v = StockoutVector(stocks, _decompose(x, n, k), n)
                yield v, is_feasible(v)
        cycle += 1


def sample_stockout_vectors(
    stocks: Sequence[int], n: int, sample_size: int, seed: int
) -> List[StockoutVector]:
    """Uniform sample of feasible vectors, without replacement.

    One full-period LCG pass visits each candidate integer once; base-``n``
    decomposition turns it into indices and infeasible candidates are
    rejected, so the kept vectors are a uniform without-replacement draw.
    """
    count = count_stockout_vectors(stocks, n)
    if sample_size > count:
        raise ValueError(f"sample_size {sample_size} exceeds feasible count {count}")
    out: List[StockoutVector] = []
    if sample_size == 0:
        return out
    for v, ok in raw_stockout_draws(stocks, n, seed):
        if ok:
            out.append(v)
            if len(out) == sample_size:
                return out
    raise AssertionError("unreachable: stream is endless")


def log_multinomial(counts: Sequence[int]) -> float:
    """``log[(sum counts)! / prod(counts!)]`` via log-gamma."""
    total = sum(counts)
    return math.lgamma(total + 1) - sum(math.lgamma(c + 1) for c in counts)


def log_binomial(n: int, k: int) -> float:
    """``log C(n, k)``; minus infinity outside the triangle."""
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
