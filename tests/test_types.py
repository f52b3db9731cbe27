"""Domain types: validation, projections, segmentation."""

import math
from dataclasses import fields, replace

import pytest

from stockout_demand import (
    Assortment,
    CompletePath,
    InvalidObservation,
    ModelParams,
    NULL,
    SalesSummary,
    TransactionRecord,
    project_sales,
    project_transactions,
)
from stockout_demand.types import checked_header, transaction_segments

from conftest import (
    IMPOSSIBLE_VISIT_CHANGES,
    TIMED_VISIT,
    badly_timed_transactions,
)


def make_path(events, products=(0, 1), stocks=None, includes_null=True, horizon=1.0):
    return CompletePath(
        horizon=horizon,
        initial_assortment=Assortment(tuple(products), includes_null),
        stocks=stocks or {a: 1 for a in products},
        events=tuple(events),
    )


class TestAssortment:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidObservation):
            Assortment((0, 0))

    def test_null_membership_follows_flag(self):
        assert NULL in Assortment((0,), True)
        assert NULL not in Assortment((0,), False)

    def test_without_preserves_order_and_flag(self):
        a = Assortment((2, 0, 5), False)
        assert a.without(0).products == (2, 5)
        assert a.without(0).includes_null is False


class TestModelParams:
    def test_rejects_nonpositive_rate_and_weights(self):
        with pytest.raises(InvalidObservation):
            ModelParams(rate=0.0, weights={0: 1.0})
        with pytest.raises(InvalidObservation):
            ModelParams(rate=1.0, weights={0: 0.0})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_nonfinite_rate_and_weights(self, value):
        with pytest.raises(InvalidObservation):
            ModelParams(rate=value, weights={0: 1.0})
        with pytest.raises(InvalidObservation):
            ModelParams(rate=1.0, weights={0: 1.0, 1: value})


class TestValidation:
    def test_valid_path_passes(self):
        make_path([(0.1, 0), (0.5, NULL), (0.9, 1)]).validate()

    def test_purchase_after_stockout_flagged(self):
        with pytest.raises(InvalidObservation, match="event 2: .* after it stocked out"):
            make_path([(0.1, 0), (0.2, 0)])

    def test_unoffered_product_flagged(self):
        with pytest.raises(InvalidObservation, match="event 1: .* not in the initial"):
            make_path([(0.1, 7)])

    def test_time_ordering_flagged(self):
        with pytest.raises(InvalidObservation, match="event 2: time 0.1 decreases"):
            make_path([(0.5, NULL), (0.1, NULL)])

    def test_null_in_no_null_regime_flagged(self):
        with pytest.raises(InvalidObservation, match="event 1: null choice"):
            make_path([(0.1, NULL)], includes_null=False)

    def test_equal_timestamps_allowed(self):
        make_path([(0.5, NULL), (0.5, 0)]).validate()


def one_of_each(includes_null=True):
    """A possible visit of each kind over products 0 and 1 (stocks 1 and 2)
    in which product 0 sells out (and product 1 too, in the path)."""
    assortment = Assortment((0, 1), includes_null)
    stocks = {0: 1, 1: 2}
    return [
        CompletePath(1.0, assortment, stocks, ((0.2, 1), (0.4, 0), (0.9, 1))),
        TransactionRecord(1.0, assortment, stocks, ((0.2, 1), (0.4, 0)), True),
        TransactionRecord(1.0, assortment, stocks, ((None, 1), (None, 0)), False),
        SalesSummary(1.0, assortment, stocks, {0: 1, 1: 2}),
    ]


class TestValidate:
    """A visit runs ``validate()`` when it is built, so one the process
    could not produce cannot be built, directly or by ``replace``."""

    @pytest.mark.parametrize("includes_null", [True, False])
    def test_possible_visits_pass(self, includes_null):
        for obs in one_of_each(includes_null):
            obs.validate()

    @pytest.mark.parametrize("includes_null", [True, False])
    @pytest.mark.parametrize("change, rule", IMPOSSIBLE_VISIT_CHANGES)
    def test_horizon_and_stock_rules_hold_for_every_kind(self, change, rule, includes_null):
        for obs in one_of_each(includes_null):
            with pytest.raises(InvalidObservation, match=rule):
                replace(obs, **change)

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: make_path([(0.1, 0), (0.5, NULL), (0.7, 0)]),
                "event 3: choice of product 0 after it stocked out",
            ),
            (lambda: make_path([(0.2, 1), (2.5, 0)]), "event 2: time 2.5 outside"),
            # a missing time breaks the time rule; it is no TypeError
            (lambda: make_path([(0.1, NULL), (None, 0)]), r"event 2: time None outside \[0, 1.0\]"),
            (
                lambda: TransactionRecord(*TIMED_VISIT, ((None, 1),), True),
                r"transaction 1: time None outside \[0, 1.0\]",
            ),
            (
                lambda: TransactionRecord(
                    1.0, Assortment((0, 1)), {0: 1, 1: 3}, ((None, 0), (None, 1), (None, 0)), False
                ),
                "transaction 3: product 0 bought beyond its stock of 1",
            ),
            (
                lambda: SalesSummary(1.0, Assortment((0, 1)), {0: 1, 1: 3}, {0: 2, 1: 0}),
                "sales 2 of product 0 outside",
            ),
        ],
    )
    def test_first_broken_rule_named_with_its_index(self, build, message):
        with pytest.raises(InvalidObservation, match=message):
            build()

    @pytest.mark.parametrize("message", list(badly_timed_transactions()))
    def test_timed_record_times_checked(self, message):
        transactions = badly_timed_transactions()[message]
        with pytest.raises(InvalidObservation, match=f"transaction 2: {message}"):
            TransactionRecord(*TIMED_VISIT, transactions, True)

    def test_untimed_record_has_no_time_rule(self):
        transactions = badly_timed_transactions()["time 2.5 outside"]
        TransactionRecord(*TIMED_VISIT, transactions, False)

    def test_segments_replay_own_choices(self):
        path, timed, untimed, _ = one_of_each()
        expected = transaction_segments(path.initial_assortment, path.stocks, (1, 0, 1))
        assert path.segments() == expected
        assert timed.segments() == untimed.segments() == transaction_segments(
            path.initial_assortment, path.stocks, (1, 0)
        )
        assert expected[0] == (0, 1) and expected[3] == (2, 3)


class TestReadOnly:
    """A visit keeps what it was built from: its stocks and sales cannot be
    assigned, and the caller's dicts are copied, so neither can get round
    the checks that construction ran."""

    @pytest.mark.parametrize("includes_null", [True, False])
    def test_stocks_and_sales_cannot_be_assigned(self, includes_null):
        visits = one_of_each(includes_null)
        for obs in visits:
            with pytest.raises(TypeError):
                obs.stocks[0] = 5
        with pytest.raises(TypeError):
            visits[-1].sales[0] = 5

    def test_caller_dicts_are_copied(self):
        stocks, sales = {0: 1, 1: 2}, {0: 0, 1: 1}
        assortment = Assortment((0, 1), True)
        visits = [
            CompletePath(1.0, assortment, stocks, ()),
            TransactionRecord(1.0, assortment, stocks, (), True),
            SalesSummary(1.0, assortment, stocks, sales),
        ]
        stocks[0], stocks[2], sales[0] = 0, 1, 5
        for obs in visits:
            assert dict(obs.stocks) == {0: 1, 1: 2}
        assert dict(visits[-1].sales) == {0: 0, 1: 1}


class TestOnHeader:
    """A visit built on a checked header runs only its own body rules, and
    equals, keys and guards itself as the visit its constructor builds;
    the header refuses what construction refuses."""

    @pytest.mark.parametrize("includes_null", [True, False])
    def test_equals_the_constructed_visit(self, includes_null):
        for obs in one_of_each(includes_null):
            header = checked_header(obs.horizon, obs.initial_assortment, obs.stocks)
            body = {f.name: getattr(obs, f.name) for f in fields(obs)[3:]}
            built = type(obs).on_header(header, body)
            assert built == obs and built.header_key == obs.header_key
            assert built.header_key is header[3]
            assert built.stocks is not header[2] and built.stocks == header[2]
            with pytest.raises(TypeError):
                built.stocks[0] = 5
            built.validate()

    @pytest.mark.parametrize("change, rule", IMPOSSIBLE_VISIT_CHANGES)
    def test_header_refuses_what_construction_refuses(self, change, rule):
        header = {"horizon": 1.0, "assortment": Assortment((0, 1)), "stocks": {0: 1, 1: 2}}
        with pytest.raises(InvalidObservation, match=rule):
            checked_header(**{**header, **change})

    def test_body_rules_run(self):
        header = checked_header(1.0, Assortment((0, 1)), {0: 1, 1: 3})
        with pytest.raises(InvalidObservation, match="sales 2 of product 0 outside"):
            SalesSummary.on_header(header, {"sales": {0: 2, 1: 0}})
        with pytest.raises(InvalidObservation, match="transaction 2: time 0.1 decreases"):
            TransactionRecord.on_header(
                header, {"transactions": ((0.5, 1), (0.1, 1)), "timestamps_present": True}
            )

    def test_caller_dicts_are_copied(self):
        stocks, sales = {0: 1, 1: 3}, {0: 1, 1: 0}
        header = checked_header(1.0, Assortment((0, 1)), stocks)
        visit = SalesSummary.on_header(header, {"sales": sales})
        stocks[0], sales[0] = 0, 5
        assert header[2] == visit.stocks == {0: 1, 1: 3} and visit.sales == {0: 1, 1: 0}


class TestProjections:
    def test_transactions_drop_nulls_keep_order(self):
        path = make_path([(0.1, 1), (0.2, NULL), (0.3, 0)])
        rec = project_transactions(path, keep_times=True)
        assert rec.transactions == ((0.1, 1), (0.3, 0))
        rec2 = project_transactions(path, keep_times=False)
        assert rec2.products == (1, 0)
        assert not rec2.timestamps_present

    def test_sales_histogram_matches_choices(self):
        path = make_path(
            [(0.1, 0), (0.2, NULL), (0.3, 1), (0.4, 1)],
            stocks={0: 3, 1: 2},
        )
        summary = project_sales(path)
        assert summary.sales == {0: 1, 1: 2}
        assert summary.total_sales == 3
        assert summary.stocked_out == (1,)


class TestLastSegment:
    def test_last_assortment_matches_batch_recount(self, rng):
        products = (0, 1, 2)
        stocks = {0: 2, 1: 1, 2: 3}
        initial = Assortment(products, True)
        for _ in range(50):
            remaining = dict(stocks)
            prefix = []
            for _ in range(rng.randint(0, 6)):
                options = [NULL] + [a for a in products if remaining[a] > 0]
                c = rng.choice(options)
                prefix.append(c)
                if c is not NULL:
                    remaining[c] -= 1
                expected = tuple(a for a in products if remaining[a] > 0)
                last = transaction_segments(initial, stocks, prefix)[2][-1]
                assert last.products == expected


class TestSegments:
    def test_transaction_segments_replay(self):
        initial = Assortment((0, 1, 2), True)
        stocks = {0: 1, 1: 2, 2: 5}
        order, counts, assorts, idx = transaction_segments(
            initial, stocks, (2, 0, 1, 2, 1)
        )
        assert order == (0, 1)
        assert counts == (1, 2, 0)  # stock-out purchases excluded
        assert [a.products for a in assorts] == [(0, 1, 2), (1, 2), (2,)]
        assert idx == (2, 5)

    def test_path_segments_total(self):
        path = make_path(
            [(0.1, NULL), (0.2, 0), (0.3, 1), (0.4, NULL)],
            stocks={0: 1, 1: 1},
        )
        order, sizes, _, _ = path.segments()
        assert order == (0, 1)
        assert sizes == (1, 0, 1)
        assert sum(sizes) + len(order) == path.arrivals

    def test_null_choice_counts_in_its_segment_without_depleting(self):
        initial = Assortment((0, 1), True)
        order, counts, assorts, idx = transaction_segments(
            initial, {0: 1, 1: 2}, (NULL, 0, NULL, NULL, 1)
        )
        assert order == (0,)
        assert counts == (1, 3)
        assert [a.products for a in assorts] == [(0, 1), (1,)]
        assert idx == (2,)
