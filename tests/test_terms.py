"""The contract every builder's :class:`Terms` keeps, which the kernel
(``CompiledDataset.loglik_grad``) relies on without checking it.

Every builder path runs on four small simulated datasets: W1 (the
Section 7 preset, no null option), W2 (the preset with a null option at
rate 10), W3 (most arrivals walk away) and C (no null option, every
product sold out in most visits, so a registry row offers nothing).
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from stockout_demand import io as sd_io
from stockout_demand import simulate
from stockout_demand.likelihood import Terms, fold_timed, sales_key, table_sequences
from stockout_demand.types import project_sales, project_transactions

from conftest import stack_sales

PRESET = sd_io.SECTION7_PRESET

#: each dataset's configuration and simulation seed
DATASETS = {
    "W1": (PRESET, 123),
    "W2": (replace(PRESET, include_null=True, rate=10.0), 5),
    "W3": (
        replace(
            PRESET,
            weights={a: 0.1 * w for a, w in PRESET.weights.items()},
            rate=20.0,
            stock_level=1,
            include_null=True,
        ),
        6,
    ),
    "C": (
        sd_io.RunConfig(
            catalog=(0, 1, 2),
            weights={0: 1.0, 1: 2.0, 2: 1.5},
            rate=8.0,
            stock_level=2,
            include_null=False,
        ),
        1,
    ),
}

#: the sales estimators, as ``table_sales`` options
SALES = {"exact": {}, "saa": {"saa_samples": 4, "seed": 0}, "naive": {"naive": True}}

#: every builder path and the datasets it runs on: untimed and timed
#: transactions exist only with a null option
PATHS = [
    *[(f"sales-{estimator}", name) for estimator in SALES for name in DATASETS],
    *[(path, name) for path in ("sequences", "timed") for name in ("W2", "W3")],
    *[("complete", name) for name in DATASETS],
]


@lru_cache(maxsize=None)
def simulated(name, visits=150):
    config, seed = DATASETS[name]
    return config.catalog, simulate.simulate_dataset(config.visit_config(), visits, seed)


def build(path, name):
    """The :class:`Terms` of ``path`` on dataset ``name``, visit ``i``
    counted ``1 + i % 3`` times, each latent arrival count up to 3 beyond
    the visit's observed count."""
    catalog, paths = simulated(name)
    counts = [1 + i % 3 for i in range(len(paths))]
    if path.startswith("sales-"):
        visits = [project_sales(p) for p in paths]
        groups = [
            (sales_key(s), c, s.total_sales + 3, i) for i, (s, c) in enumerate(zip(visits, counts))
        ]
        return stack_sales(catalog, groups, **SALES[path[len("sales-"):]])
    if path == "sequences":
        records = [project_transactions(p, keep_times=False) for p in paths]
        return table_sequences(catalog, [(r, c, r.total + 3) for r, c in zip(records, counts)])
    if path == "timed":
        paths = [project_transactions(p, keep_times=True) for p in paths]
    return fold_timed(list(zip(paths, counts)), catalog)


@pytest.mark.parametrize("path, name", PATHS, ids=[f"{p}-{n}" for p, n in PATHS])
def test_builder_keeps_the_terms_contract(path, name):
    terms = build(path, name)
    assert isinstance(terms, Terms)
    rows, size = terms.nulls.size, terms.n.size
    assert terms.membership.shape[0] == terms.thinned.size == rows
    # the CSR parts: indptr runs from 0 to the entries, every index names
    # a registry row
    indptr = terms.exp_indptr
    assert indptr.size == size + 1 and indptr[0] == 0 and indptr[-1] == terms.exp_data.size
    assert np.all(np.diff(indptr) >= 0)
    assert terms.exp_indices.size == terms.exp_data.size
    assert np.all((terms.exp_indices >= 0) & (terms.exp_indices < rows))
    # each arrival lands in exactly one segment: E.sum(axis=1) == n
    term_of = np.repeat(np.arange(size), np.diff(indptr))
    assert np.array_equal(np.bincount(term_of, terms.exp_data, size), terms.n)
    # every group owns a term, and group_of agrees with bounds
    owned = np.diff(np.append(terms.bounds, size))
    assert terms.bounds[0] == 0 and np.all(owned > 0)
    assert np.array_equal(terms.group_of, np.repeat(np.arange(owned.size), owned))
    # a no-null row that offers nothing has exponent 0 and no thinned time
    empty = (terms.nulls == 0) & ~terms.membership.any(axis=1)
    assert not terms.exp_data[empty[terms.exp_indices]].any()
    assert not terms.thinned[empty].any()
    # C sells out every product in most visits; only the naive fit, which
    # lets nothing sell out, never faces the empty assortment
    assert empty.sum() == (name == "C" and path != "sales-naive")
