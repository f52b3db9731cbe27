"""Timed-visit folding against a per-visit reference.

The reference below is the earlier timed compile: one table per distinct
timed visit (its catalog, sales, segment assortments, exponents and
durations), summed into per-assortment totals by a loop over the tables.
:func:`fold_timed`, through ``compile_dataset``, must return exactly its
arrays, and a one-visit table exactly the visit's reference table.
"""

from dataclasses import replace

import numpy as np
import pytest

from stockout_demand import io as sd_io
from stockout_demand import simulate
from stockout_demand.estimation import _group_key, compile_dataset
from stockout_demand.likelihood import fold_timed, membership_matrix

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
    """Per-table sums: sales by column, and exponents and durations
    registered per assortment in order of first appearance."""
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
        membership_matrix(catalog, list(registry)),
        np.bincount(rows, np.asarray(exponents), len(registry)),
        np.bincount(rows, np.asarray(durations), len(registry)),
    )


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
    # groups that differ only in their times share one segment structure,
    # which fold_timed computes once
    sequences = {
        (r.initial_assortment.products, tuple(r.stocks.values()), r.products)
        for r, _ in groups
    }
    assert len(sequences) < len(groups)


def test_compile_matches_per_table_sum(records):
    ds = compile_dataset(records, "transactions-timed")
    want = reference_fold(ds.catalog, grouped(records))
    got = (ds.timed_sales, ds.timed_membership, ds.timed_exponents, ds.timed_durations)
    names = ("timed_sales", "timed_membership", "timed_exponents", "timed_durations")
    for name, g, w in zip(names, got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert np.array_equal(g, w), name
    # the benchmark reads these two
    assert len(ds._timed) == 1
    assert np.array_equal(ds._timed_cols[0], np.arange(len(ds.catalog)))
    assert ds.visits == len(records)
    assert ds.n_assort == len(ds.timed_exponents)


def test_single_visit_table_matches_reference(records):
    for record in records:
        table = fold_timed([(record, 1)], record.initial_assortment.products)
        catalog, sales, assortments, exponents, durations = reference_table(record)
        assert table.catalog == catalog
        assert table.assortments == assortments
        got = (table.sales, table.exponents, table.durations)
        for g, w in zip(got, (sales, exponents, durations)):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def test_untimed_compile_folds_nothing():
    paths = simulate.simulate_dataset(CONFIGS["null-rate-10"].visit_config(), 20, 3)
    ds = compile_dataset([sd_io.project_path(p, "sales") for p in paths], "sales")
    assert ds._timed == [] and ds._timed_cols == []
    assert ds.timed_exponents.size == 0 and not ds.timed_sales.any()
    assert ds.visits == 20
