"""Folding against per-visit references.

Timed records: the reference below folds visit by visit, one table per
distinct timed visit (its catalog, sales, segment assortments, exponents
and durations), read off ``segments()`` and summed into per-assortment
totals by a loop over the tables.  :func:`fold_timed`, directly and
through ``compile_dataset``, must return one group of one term whose
arrays are exactly the reference's, in the same dtypes and the same
registry order (as ``membership`` and ``nulls``), and a one-visit fold
exactly the visit's reference table.

Complete paths: a folded complete dataset's log-likelihood and gradient
must equal, to 1e-9 relative, those of the per-path ``l2`` stack (one
term per path, evaluated by the same kernel, ``CompiledDataset.loglik_grad``)
and the sum of :func:`l2_choice_sequence` over its paths; degenerate
datasets must also fit as they did when each path was stacked as one
``l2`` term.
"""

import importlib.util
import math
import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from stockout_demand import estimation
from stockout_demand import io as sd_io
from stockout_demand import simulate
from stockout_demand.estimation import (
    GRANULARITIES,
    CompiledDataset,
    _group_key,
    compile_dataset,
    fit,
)
from stockout_demand.likelihood import (
    Terms,
    TruncationPolicy,
    fold_timed,
    l2_choice_sequence,
    table_sequences,
)
from stockout_demand.types import (
    NULL,
    Assortment,
    CompletePath,
    InvalidObservation,
    TransactionRecord,
)

from conftest import membership_matrix

PRESET = sd_io.SECTION7_PRESET

CONFIGS = {
    # most arrivals walk away and every optional product has one unit
    "walkaway": replace(
        PRESET,
        weights={a: 0.1 * w for a, w in PRESET.weights.items()},
        rate=20.0,
        stock_level=1,
        include_null=True,
    ),
    "null-rate-10": replace(PRESET, include_null=True, rate=10.0),
}


def reference_table(record):
    """``(catalog, sales, assortments, exponents, durations)`` of one visit:
    each segment's choices plus the stock-out purchase that closes it, and
    the time between the stock-outs that bound it."""
    catalog = record.initial_assortment.products
    sales = np.array([record.products.count(a) for a in catalog], dtype=float)
    stockouts, seg_counts, assortments, stockout_idx = record.segments()
    k = len(stockouts)
    exponents = np.array([c + (1.0 if j < k else 0.0) for j, c in enumerate(seg_counts)])
    bounds = [0.0] + [float(record.transactions[i - 1][0]) for i in stockout_idx]
    bounds.append(record.horizon)
    durations = np.asarray([b - a for a, b in zip(bounds, bounds[1:])], dtype=float)
    return catalog, sales, list(assortments), exponents, durations


def reference_fold(catalog, groups):
    """Per-table sums: sales by column, the registry of segment
    assortments in order of first appearance, and exponents and durations
    per registered assortment."""
    a_of = {a: i for i, a in enumerate(catalog)}
    sales = np.zeros(len(catalog))
    registry = {}
    rows, exponents, durations = [], [], []
    for record, count in groups:
        t_catalog, t_sales, t_assortments, t_exponents, t_durations = reference_table(record)
        cols = np.array([a_of[a] for a in t_catalog], dtype=np.int64)
        sales[cols] += count * t_sales
        rows += [registry.setdefault(a, len(registry)) for a in t_assortments]
        exponents.extend(count * t_exponents)
        durations.extend(count * t_durations)
    rows = np.asarray(rows, dtype=np.int64)
    return (
        sales,
        list(registry),
        np.bincount(rows, np.asarray(exponents), len(registry)),
        np.bincount(rows, np.asarray(durations), len(registry)),
    )


def assert_same_arrays(got, want, names):
    for name, g, w in zip(names, got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert np.array_equal(g, w), name


def one_term(terms):
    """The arrays of a fold by name, after checking that they are one
    group of one term whose exponents run over the registry in order; its
    sales, exponents and durations become flat rows."""
    folded = terms._asdict()
    rows = folded["nulls"].size
    names = ("exp_indices", "exp_indptr", "bounds", "group_of", "counts")
    assert_same_arrays(
        [folded[name] for name in names],
        [
            np.arange(rows),
            np.array([0, rows]),
            np.zeros(1, np.int64),
            np.zeros(1, np.int64),
            np.ones(1),
        ],
        names,
    )
    assert folded["coef"].shape == folded["n"].shape == folded["exposures"].shape == (1,)
    folded["sales"], folded["exponents"] = folded["Z"][0], folded["exp_data"]
    return folded


def assert_registry(folded, catalog, registry):
    """The fold's registry rows are ``registry``, in order."""
    assert_same_arrays(
        (folded["membership"], folded["nulls"]),
        (
            membership_matrix(catalog, registry),
            np.array([float(a.includes_null) for a in registry]),
        ),
        ("membership", "nulls"),
    )


def assert_folds_as_reference(groups, catalog):
    folded = one_term(fold_timed(groups, catalog))
    sales, registry, exponents, durations = reference_fold(catalog, groups)
    assert_registry(folded, catalog, registry)
    assert_same_arrays(
        (folded["sales"], folded["exponents"], folded["thinned"]),
        (sales, exponents, durations),
        ("sales", "exponents", "durations"),
    )
    # timed records have no observed time, and their arrivals are their
    # purchases
    assert folded["exposures"][0] == 0.0 and folded["coef"][0] == 0.0
    assert folded["n"][0] == sales.sum()


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def records(request):
    config = CONFIGS[request.param]
    paths = simulate.simulate_dataset(config.visit_config(), 400, 3)
    return [sd_io.project_path(p, "transactions-timed") for p in paths]


def grouped(records):
    groups = {}
    for record in records:
        groups.setdefault(_group_key(record, "transactions-timed"), []).append(record)
    return [(members[0], len(members)) for members in groups.values()]


def test_records_cover_duplicates_and_several_stockouts(records):
    groups = grouped(records)
    assert len(groups) < len(records)
    assert max(len(r.segments()[0]) for r in records) >= 2
    # some groups differ only in their times
    sequences = {
        (r.initial_assortment.products, tuple(r.stocks.values()), r.products)
        for r, _ in groups
    }
    assert len(sequences) < len(groups)


def test_compile_matches_per_table_sum(records):
    ds = compile_dataset(records, "transactions-timed")
    folded = one_term(Terms(*(getattr(ds, name) for name in Terms._fields)))
    sales, registry, exponents, durations = reference_fold(ds.catalog, grouped(records))
    assert_registry(folded, ds.catalog, registry)
    assert_same_arrays(
        (folded["sales"], folded["exponents"], folded["thinned"]),
        (sales, exponents, durations),
        ("sales", "exponents", "durations"),
    )
    assert ds.visits == len(records)
    assert ds.n_assort == len(exponents)


def test_single_visit_table_matches_reference(records):
    for record in records:
        catalog, sales, assortments, exponents, durations = reference_table(record)
        folded = one_term(fold_timed([(record, 1)], catalog))
        assert_registry(folded, catalog, assortments)
        got = (folded["sales"], folded["exponents"], folded["thinned"])
        for g, w in zip(got, (sales, exponents, durations)):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def granularity_dataset(granularity, visits=20, seed=3):
    """A small compiled dataset of ``granularity``: the preset at rate 10,
    with the null option unless the granularity has none."""
    config = replace(PRESET, include_null=granularity != "sales-no-null", rate=10.0)
    paths = simulate.simulate_dataset(config.visit_config(), visits, seed)
    visits = [sd_io.project_path(p, granularity) for p in paths]
    return compile_dataset(visits, granularity, TruncationPolicy(m=12))


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_compile_calls_one_builder(granularity, monkeypatch):
    called = []

    def spy(name):
        builder = getattr(estimation, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return builder(*args, **kwargs)

        return wrapper

    for name in ("table_sales", "table_sequences", "fold_timed"):
        monkeypatch.setattr(estimation, name, spy(name))
    ds = granularity_dataset(granularity)
    builders = {
        "complete": "fold_timed",
        "transactions-timed": "fold_timed",
        "transactions": "table_sequences",
    }
    assert called == [builders.get(granularity, "table_sales")]
    # only a fold has thinned time
    assert ds.thinned.any() == (granularity == "transactions-timed")


def load_tracing():
    """The benchmark's ``tracing`` module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_benchmark_reads_every_compiled_dataset(granularity):
    # what the benchmark's traced run reads of a compiled dataset and of
    # the package, and each of the dataset's arrays counted once
    tracing = load_tracing()
    ds = granularity_dataset(granularity)
    arrays = [v for v in vars(ds).values() if isinstance(v, np.ndarray)]
    # the builder's arrays, the transpose's parts, what the kernel reads
    # as compiled, and the start point
    assert {name for name, v in vars(ds).items() if isinstance(v, np.ndarray)} == {
        *Terms._fields, "expt_data", "expt_indices", "expt_indptr",
        "null_rows", "guard", "null_thinned", "sold", "start",
    }
    # the sparse matrices read counted arrays, not copies
    for matrix in (ds.E, ds.Et):
        for part in (matrix.data, matrix.indices, matrix.indptr):
            assert any(part is a for a in arrays)
    assert not any(np.may_share_memory(a, b) for a, b in combinations(arrays, 2))
    assert tracing.compiled_stats(ds) == {
        "groups": ds.counts.size,
        "terms": ds.n.size,
        "assortments": ds.nulls.size,
        "timed_tables": 0,
        "compiled_bytes": sum(a.nbytes for a in arrays),
        "visits": 20,
    }
    for owner, attr in tracing.traced_names():
        assert callable(vars(owner)[attr]), (owner, attr)


def timed(horizon, products, stocks, purchases):
    """A timed record with the null option, offering ``products`` in that
    order at ``stocks``."""
    return TransactionRecord(
        horizon, Assortment(tuple(products)), dict(zip(products, stocks)), tuple(purchases), True
    )


#: 72 products: a sold-out set over this catalog does not fit in 64 bits
WIDE = tuple(range(72))

HAND_BUILT = {
    "counts above 1": [
        (timed(1.0, (0, 5), (2, 9), [(0.1, 0), (0.4, 5), (0.6, 0)]), 3),
        (timed(1.0, (0, 5), (2, 9), [(0.2, 5)]), 2),
    ],
    "equal timestamps": [
        (timed(1.0, (1, 2, 3), (1, 1, 4), [(0.3, 1), (0.3, 3), (0.3, 2), (0.3, 3)]), 1),
        (timed(1.0, (1, 2), (1, 2), [(0.0, 1), (0.0, 2), (1.0, 2)]), 2),
    ],
    "stock-out at the first purchase": [
        (timed(2, (4, 6), (1, 3), [(0.5, 4), (1.5, 6)]), 2),
    ],
    "stock-out at the last purchase": [
        (timed(1.0, (4, 6), (3, 1), [(0.1, 4), (0.2, 4), (0.9, 6)]), 1),
    ],
    "every optional product sells out": [
        (timed(1.0, (7, 8, 9), (1, 2, 1), [(0.1, 8), (0.2, 9), (0.4, 7), (0.8, 8)]), 2),
        (timed(1.0, (7,), (1,), [(0.5, 7)]), 1),
    ],
    "zero purchases": [
        (timed(1.0, (0, 1), (1, 1), []), 4),
        (timed(3, (2,), (5,), []), 1),
        (timed(1.0, (), (), []), 2),
    ],
    "assortments in another order": [
        (timed(1.0, (70, 3, 65, 1), (1, 2, 1, 5), [(0.1, 70), (0.2, 3), (0.5, 65)]), 1),
        # the same products listed in catalog order: distinct rows
        (timed(1.0, (1, 3, 65, 70), (5, 2, 1, 1), [(0.4, 70)]), 2),
        # offers (3, 65, 1) from the start, as the first record does after
        # its first purchase: one row
        (timed(1.0, (3, 65, 1), (2, 1, 5), [(0.7, 1)]), 1),
    ],
    "sold-out products beyond column 63": [
        # 66 and 2, and 70 and 6, share a bit modulo 64
        (timed(1.0, (2, 66, 70, 6), (1, 1, 1, 1), [(0.2, 66), (0.3, 6)]), 1),
        (timed(1.0, (2, 66, 70, 6), (1, 1, 1, 1), [(0.2, 2), (0.3, 70)]), 1),
        (timed(1.0, (71, 64, 0), (1, 1, 3), [(0.1, 0), (0.6, 71), (0.6, 64)]), 3),
    ],
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_groups_fold_as_reference(case):
    assert_folds_as_reference(HAND_BUILT[case], WIDE)


def test_all_hand_built_groups_fold_as_reference():
    assert_folds_as_reference([g for case in sorted(HAND_BUILT) for g in HAND_BUILT[case]], WIDE)


def random_groups(seed, groups=150):
    """Groups of timed records over :data:`WIDE`: random assortments in
    random order, stocks 1 to 3, purchases of what is still in stock at
    times rounded to 0.1 (so some are equal), counts 1 to 3, and each
    fifth record's purchases repeated at other times."""
    rng = random.Random(seed)
    out = []
    for g in range(groups):
        if g % 5 == 4:
            record, _ = out[-1]
            times = sorted(round(rng.uniform(0, 1), 1) for _ in record.transactions)
            products, stocks = record.initial_assortment.products, record.stocks
            purchases = list(zip(times, record.products))
            out.append((timed(1.0, products, [stocks[a] for a in products], purchases), 1))
            continue
        products = rng.sample(WIDE, rng.randint(1, 8))
        stocks = [rng.randint(1, 3) for _ in products]
        left = dict(zip(products, stocks))
        bought = []
        for _ in range(rng.randint(0, 10)):
            offered = [a for a in products if left[a]]
            if not offered:
                break
            a = rng.choice(offered)
            left[a] -= 1
            bought.append(a)
        times = sorted(round(rng.uniform(0, 1), 1) for _ in bought)
        out.append((timed(1.0, products, stocks, zip(times, bought)), rng.randint(1, 3)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_wide_groups_fold_as_reference(seed):
    groups = random_groups(seed)
    assert any(len(r.segments()[0]) == len(r.initial_assortment.products) for r, _ in groups)
    assert_folds_as_reference(groups, WIDE)


def test_empty_fold():
    folded = one_term(fold_timed([], WIDE))
    assert_registry(folded, WIDE, [])
    assert_same_arrays(
        (folded["sales"], folded["exponents"], folded["thinned"]),
        (np.zeros(len(WIDE)), np.zeros(0), np.zeros(0)),
        ("sales", "exponents", "durations"),
    )
    assert folded["n"][0] == 0 and folded["coef"][0] == folded["exposures"][0] == 0.0


@pytest.mark.parametrize(
    "order, message",
    [
        ((0, 1, 2), "timed transactions need transaction timestamps"),
        ((0, 2, 1), "l3 is defined for the null-inclusive regime"),
    ],
)
def test_first_bad_record_raises(order, message):
    good = timed(1.0, (0, 1), (1, 2), [(0.5, 0)])
    untimed = TransactionRecord(1.0, Assortment((0, 1)), {0: 1, 1: 2}, ((None, 0),), False)
    no_null = TransactionRecord(1.0, Assortment((0, 1), False), {0: 1, 1: 2}, ((0.5, 0),), True)
    records = [good, untimed, no_null]
    with pytest.raises(InvalidObservation, match=f"^{message}$"):
        fold_timed([(records[i], 1) for i in order], (0, 1))


# ---------------------------------------------------------------------------
# complete paths


def reference_l2_stack(catalog, groups):
    """The :class:`Terms` of complete paths stacked one ``l2`` term each: ``n`` the path's arrivals,
    coefficient ``n log T - log n!``, and per segment the assortment it
    faces with exponent its choices (the stock-out purchase that closes it
    included), zero exponents dropped; the exposure is the horizon, the
    sales are the purchases per product, and no row has thinned time."""
    col = {a: i for i, a in enumerate(catalog)}
    registry = {}
    rows = []
    sales = np.zeros((len(groups), len(catalog)))
    for g, (path, _) in enumerate(groups):
        _, seg_counts, assortments, _ = path.segments()
        k = len(seg_counts) - 1
        exponents = [c + (1.0 if j < k else 0.0) for j, c in enumerate(seg_counts)]
        segs = zip(assortments, exponents)
        rows.append([(registry.setdefault(a, len(registry)), e) for a, e in segs if e])
        for c in path.choices:
            if c is not NULL:
                sales[g, col[c]] += 1
    indptr = np.cumsum([0] + [len(r) for r in rows])
    flat = [entry for r in rows for entry in r]
    exp_indices = np.array([d for d, _ in flat], dtype=np.int64)
    exp_data = np.array([e for _, e in flat], dtype=float)
    n = np.array([path.arrivals for path, _ in groups], dtype=np.int64)
    horizons = np.array([path.horizon for path, _ in groups], dtype=float)
    return Terms(
        membership=membership_matrix(catalog, list(registry)),
        nulls=np.array([float(a.includes_null) for a in registry]),
        coef=np.array([-math.lgamma(x + 1) for x in n.tolist()]) + n * np.log(horizons),
        n=n,
        exp_data=exp_data,
        exp_indices=exp_indices,
        exp_indptr=indptr,
        bounds=np.arange(len(groups), dtype=np.int64),
        group_of=np.arange(len(groups), dtype=np.int64),
        counts=np.array([count for _, count in groups], dtype=float),
        exposures=horizons,
        Z=sales,
        thinned=np.zeros(len(registry)),
    )


def path(horizon, products, stocks, events, includes_null=True):
    """A complete path offering ``products`` in that order at ``stocks``."""
    assortment = Assortment(tuple(products), includes_null)
    return CompletePath(horizon, assortment, dict(zip(products, stocks)), tuple(events))


#: degenerate complete datasets, each with its fit when every path was
#: stacked as its own ``l2`` term: ``(paths, rate, loglik, probabilities)``
DEGENERATE = {
    # the first path's last stretch, (0.5, 1], offers nothing: F = 0 there
    "every product sells out, no null": (
        [
            path(1.0, (0, 1), (1, 2), [(0.1, 0), (0.2, 1), (0.5, 1)], False),
            path(1.0, (0, 1, 2), (2, 2, 3), [(0.3, 2), (0.4, 0), (0.6, 1), (0.9, 1)], False),
            path(1.5, (1, 2), (2, 1), [(0.2, 2), (1.1, 1)], False),
        ],
        2.5714285714285716,
        -11.091828298958886,
        {0: 0.3596117967978124, 1: 0.2807764064043752, 2: 0.3596117967978124},
    ),
    # products (0, 1) are offered with and without the null option
    "mixed regimes": (
        [
            path(
                1.0, (0, 1, 2), (1, 2, 2), [(0.1, NULL), (0.2, 0), (0.4, 1), (0.6, NULL), (0.8, 2)]
            ),
            path(1.0, (0, 1), (1, 2), [(0.1, 0), (0.2, 1)], False),
            path(1.0, (1, 2), (2, 1), [(0.3, 2), (0.5, 1), (0.7, 1)], False),
            path(1.0, (0, 1, 2), (1, 1, 1), [(0.2, 1), (0.3, NULL), (0.35, 2), (0.9, 0)]),
            path(1.0, (0, 1, 2), (2, 2, 2), [(0.2, 0), (0.3, 1), (0.5, 0)], False),
        ],
        3.4,
        -22.819210082251907,
        {
            0: 0.3922332586245197,
            1: 0.18191753102455305,
            2: 0.17447919741039622,
            None: 0.25137001294053096,
        },
    ),
    "zero arrivals": (
        [
            path(1.0, (0, 1), (2, 2), []),
            path(2.0, (0, 1), (2, 2), [(0.5, 1), (1.5, 0), (1.7, NULL)]),
            path(1.0, (0,), (3,), [], False),
            path(1.0, (0, 1), (1, 1), [(0.5, 0)], False),
        ],
        0.8,
        -8.423977142573936,
        {0: 0.44444444444952674, 1: 0.22222222221934232, None: 0.33333333333113085},
    ),
    "null arrivals only": (
        [
            path(1.0, (0, 1), (1, 1), [(0.2, NULL), (0.7, NULL)]),
            path(1.0, (0, 1), (1, 1), [(0.1, 1), (0.3, NULL), (0.8, 0)]),
            path(1.0, (), (), [(0.4, NULL), (0.5, NULL), (0.6, NULL)]),
        ],
        2.6666666666666665,
        -8.588915178281919,
        {0: 0.16666666810876335, 1: 0.3333333446789729, None: 0.4999999872122638},
    ),
    "mixed horizons": (
        [
            path(0.5, (0, 1), (1, 2), [(0.1, 1), (0.3, NULL), (0.4, 0)]),
            path(1.0, (0, 1), (1, 2), [(0.2, NULL), (0.9, 1)]),
            path(2.5, (0, 1, 2), (2, 1, 2), [(0.3, 2), (1.0, 1), (1.2, NULL), (2.4, 0)]),
            path(0.25, (2,), (1,), [(0.1, 2), (0.2, NULL)]),
        ],
        2.588235294117647,
        -18.902014093046674,
        {
            0: 0.16666666402699776,
            1: 0.33333333882893634,
            2: 0.285714281088392,
            None: 0.214285716055674,
        },
    ),
}


@pytest.fixture(scope="module", params=[True, False], ids=["null", "no-null"])
def complete_paths(request):
    config = replace(PRESET, include_null=request.param, rate=10.0)
    paths = simulate.simulate_dataset(config.visit_config(), 60, 3)
    assert any(len(p.segments()[2]) > 1 for p in paths)  # some stock out
    return paths


def assert_folds_as_l2(paths, counts, seed=0):
    """The folded dataset of ``counts[i]`` copies of ``paths[i]`` agrees
    with the per-path ``l2`` stack and with the sum of ``l2`` at three
    random points, with no ``0 log 0`` or ``0 / 0`` along the way."""
    groups = list(zip(paths, counts))
    ds = compile_dataset([p for p, c in groups for _ in range(c)], "complete")
    assert ds.counts.size == ds.n.size == 1  # every path folds into one term
    reference = CompiledDataset(ds.catalog, reference_l2_stack(ds.catalog, groups), 1.0, 0, [], 0)
    rnd = np.random.default_rng(seed)
    for _ in range(3):
        x = np.concatenate(([rnd.normal(1.0, 1.0)], rnd.normal(0.0, 1.0, len(ds.catalog))))
        params = ds.params_of(x)
        with np.errstate(all="raise"):
            value, grad = ds.loglik_grad(x)
            want_value, want_grad = reference.loglik_grad(x)
        l2_sum = sum(c * l2_choice_sequence(p, params) for p, c in groups)
        assert value == pytest.approx(want_value, rel=1e-9, abs=0)
        assert value == pytest.approx(l2_sum, rel=1e-9, abs=0)
        scale = np.abs(want_grad).max()
        assert np.abs(grad - want_grad).max() <= 1e-9 * scale


@pytest.mark.parametrize("counts", [1, 3], ids=["single", "repeated"])
def test_complete_fold_matches_l2(complete_paths, counts):
    assert_folds_as_l2(complete_paths, [1 + i % counts for i in range(len(complete_paths))])


@pytest.mark.parametrize("case", sorted(DEGENERATE))
@pytest.mark.parametrize("counts", [1, 3], ids=["single", "repeated"])
def test_degenerate_complete_fold_matches_l2(case, counts):
    paths = DEGENERATE[case][0]
    assert_folds_as_l2(paths, [1 + i % counts for i in range(len(paths))])


#: the degenerate cases with a no-null path that sells out every product:
#: its arrival count is censored, so the fit is not the MLE
CENSORED = {"every product sells out, no null", "mixed regimes"}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_complete_fits_as_stacked(case):
    paths, rate, loglik, probabilities = DEGENERATE[case]
    result = fit(paths, "complete")
    censored = (
        "not the MLE: 1 no-null visits sell out every offered product, "
        "so their arrival counts are censored"
    )
    assert result.converged == (case not in CENSORED)
    assert result.message.endswith(censored) == (case in CENSORED)
    assert result.params.rate == pytest.approx(rate, rel=1e-12)
    assert result.loglik == pytest.approx(loglik, rel=1e-12)
    assert result.probabilities.keys() == probabilities.keys()
    for c, p in probabilities.items():
        assert result.probabilities[c] == pytest.approx(p, rel=1e-6), c


def test_sold_out_stretch_is_observed_time():
    # the path sells out both products at 0.5 and faces nothing after: its
    # exposure is still lambda T, its empty row has exponent 0
    paths = DEGENERATE["every product sells out, no null"][0][:1]
    folded = one_term(fold_timed([(paths[0], 2)], (0, 1)))
    assert_registry(
        folded, (0, 1), [Assortment((0, 1), False), Assortment((1,), False), Assortment((), False)]
    )
    assert np.array_equal(folded["exponents"], [2.0, 4.0, 0.0])
    assert np.array_equal(folded["thinned"], [0.0, 0.0, 0.0])
    # no null choices: the arrivals are the sales
    assert folded["exposures"][0] == 2.0 and folded["n"][0] == 6
    assert np.array_equal(folded["sales"], [2.0, 4.0])


def test_regimes_key_distinct_rows():
    # (0, 1) with and without the null option are two rows; a null choice
    # adds to its segment's exponent and to the null choices, not the sales
    with_null = path(1.0, (0, 1), (1, 2), [(0.1, NULL), (0.2, 0), (0.6, NULL)])
    without = path(1.0, (0, 1), (1, 2), [(0.3, 1), (0.4, 0)], False)
    folded = one_term(fold_timed([(with_null, 1), (without, 3)], (0, 1)))
    assert_registry(folded, (0, 1), [
        Assortment((0, 1), True), Assortment((1,), True),
        Assortment((0, 1), False), Assortment((1,), False),
    ])
    assert np.array_equal(folded["exponents"], [2.0, 1.0, 6.0, 0.0])
    assert np.array_equal(folded["sales"], [4.0, 3.0])
    # 7 sales and 2 null choices
    assert folded["n"][0] == 9
    assert folded["exposures"][0] == 4.0
    # 3 (2 log 1 - log 2!) + (3 log 1 - log 3!)
    assert folded["coef"][0] == pytest.approx(-3 * math.log(2) - math.log(6), rel=1e-15)


def test_paths_that_differ_only_in_times_fold_as_one_group(monkeypatch):
    # neither l2 nor the fold reads a complete path's event times, so two
    # paths with the same choices at other times are one group of count 2;
    # the same choices in another order are another group
    first = path(1.0, (0, 1), (1, 2), [(0.1, NULL), (0.2, 0), (0.6, 1)])
    later = path(1.0, (0, 1), (1, 2), [(0.3, NULL), (0.5, 0), (0.9, 1)])
    swapped = path(1.0, (0, 1), (1, 2), [(0.3, NULL), (0.5, 1), (0.9, 0)])
    folded = []

    def spy(groups, catalog):
        folded.append(list(groups))
        return fold_timed(groups, catalog)

    monkeypatch.setattr(estimation, "fold_timed", spy)
    ds = compile_dataset([first, later, swapped], "complete")
    assert folded == [[(first, 2), (swapped, 1)]]
    assert ds.visits == 3


def test_w2_config_folds_to_one_row_per_assortment():
    config = replace(PRESET, include_null=True, rate=10.0)
    paths = simulate.simulate_dataset(config.visit_config(), 300, 5)
    ds = compile_dataset(paths, "complete")
    assert ds.counts.size == 1 and ds.n.size == 1
    rows = {a for p in paths for a in p.segments()[2]}
    assert ds.n_assort == ds.exp_data.size == len(rows) < len(paths)


def test_table_sequences_refuses_complete_paths():
    complete = path(1.0, (0, 1), (1, 1), [(0.5, 0)])
    with pytest.raises(
        InvalidObservation, match="^table_sequences stacks transaction records, not CompletePath$"
    ):
        table_sequences((0, 1), [(complete, 1, 1)])
