"""File formats: JSONL visits, run configs, canonical round-trips."""

import json
import math

import pytest

from stockout_demand import SECTION7_PRESET, read_visits, write_visits
from stockout_demand.io import (
    DataFormatError,
    RunConfig,
    fit_result_json,
    parse_visit,
    project_path,
    serialize_visit,
)
from stockout_demand import fit_complete, simulate_dataset
from stockout_demand.simulate import VisitConfig
from stockout_demand.types import ModelParams


def small_config(include_null=True):
    return VisitConfig(
        horizon=1.0,
        params=ModelParams(rate=3.0, weights={0: 1.0, 1: 0.5}),
        always_available=(),
        optional_products=(0, 1),
        offer_probability=0.8,
        stock_level=2,
        include_null=include_null,
    )


GRANULARITY_REGIMES = [
    ("complete", True),
    ("transactions-timed", True),
    ("transactions", True),
    ("sales", True),
    ("sales-no-null", False),
]


class TestVisitRoundTrip:
    @pytest.mark.parametrize("granularity,include_null", GRANULARITY_REGIMES)
    def test_parse_then_serialize_is_identity(self, granularity, include_null):
        paths = simulate_dataset(small_config(include_null), 40, seed=3)
        for path in paths:
            obs = project_path(path, granularity)
            line = serialize_visit(obs, granularity)
            parsed, g = parse_visit(line, 1)
            assert g == granularity
            assert serialize_visit(parsed, g) == line

    @pytest.mark.parametrize("granularity,include_null", GRANULARITY_REGIMES)
    def test_file_round_trip(self, tmp_path, granularity, include_null):
        paths = simulate_dataset(small_config(include_null), 10, seed=4)
        observations = [project_path(p, granularity) for p in paths]
        out = tmp_path / "visits.jsonl"
        write_visits(str(out), observations, granularity)
        loaded, g = read_visits(str(out))
        assert g == granularity
        assert len(loaded) == 10
        again = tmp_path / "again.jsonl"
        write_visits(str(again), loaded, g)
        assert out.read_bytes() == again.read_bytes()


class TestVisitValidation:
    def test_unknown_field_rejected_with_line_number(self):
        record = {
            "T": 1.0,
            "assortment": [0],
            "stocks": {"0": 1},
            "granularity": "sales",
            "data": {"0": 0},
            "bogus": 1,
        }
        with pytest.raises(DataFormatError) as exc:
            parse_visit(json.dumps(record), line=17)
        assert exc.value.line == 17
        assert "bogus" in str(exc.value)
        assert "line 17" in str(exc.value)

    def test_missing_field_rejected(self):
        with pytest.raises(DataFormatError, match="missing"):
            parse_visit('{"T": 1.0}', 2)

    def test_invalid_json_rejected(self):
        with pytest.raises(DataFormatError, match="line 3"):
            parse_visit("{not json", 3)

    def test_unknown_granularity_rejected(self):
        record = {
            "T": 1.0,
            "assortment": [0],
            "stocks": {"0": 1},
            "granularity": "hourly",
            "data": {"0": 0},
        }
        with pytest.raises(DataFormatError, match="granularity"):
            parse_visit(json.dumps(record), 1)

    def test_stocks_must_cover_assortment(self):
        record = {
            "T": 1.0,
            "assortment": [0, 1],
            "stocks": {"0": 1},
            "granularity": "sales",
            "data": {"0": 0, "1": 0},
        }
        with pytest.raises(DataFormatError):
            parse_visit(json.dumps(record), 1)

    def test_offered_product_without_stock_rejected(self):
        record = {
            "T": 1.0,
            "assortment": [0, 1],
            "stocks": {"0": 0, "1": 2},
            "granularity": "sales",
            "data": {"0": 0, "1": 1},
        }
        with pytest.raises(DataFormatError, match="line 4.*stock"):
            parse_visit(json.dumps(record), 4)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        record = {
            "T": horizon,
            "assortment": [0],
            "stocks": {"0": 1},
            "granularity": "transactions-timed",
            "data": [],
        }
        with pytest.raises(DataFormatError, match="line 6.*T must"):
            parse_visit(json.dumps(record), 6)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([[0.2, 1], [2.5, 0], [0.1, 1]], "time 2.5 outside"),
            ([[-0.1, 1]], "time -0.1 outside"),
            ([[0.2, 1], [math.inf, 0]], "time inf outside"),
            ([[math.nan, 1]], "time nan outside"),
            ([[0.5, 1], [0.3, 0]], "time 0.3 decreases from 0.5"),
        ],
    )
    def test_timed_transactions_need_ordered_times_within_horizon(self, data, message):
        # a time past T or out of order gives a segment a negative exposure
        record = {
            "T": 1.0,
            "assortment": [0, 1],
            "stocks": {"0": 1, "1": 3},
            "granularity": "transactions-timed",
            "data": data,
        }
        with pytest.raises(DataFormatError, match=f"line 7.*{message}"):
            parse_visit(json.dumps(record), 7)

    def test_timed_transactions_accept_equal_and_boundary_times(self):
        record = {
            "T": 1.0,
            "assortment": [0, 1],
            "stocks": {"0": 1, "1": 3},
            "granularity": "transactions-timed",
            "data": [[0.0, 1], [0.4, 1], [0.4, 0], [1.0, 1]],
        }
        obs, _ = parse_visit(json.dumps(record), 1)
        assert [t for t, _ in obs.transactions] == [0.0, 0.4, 0.4, 1.0]

    @pytest.mark.parametrize(
        "granularity, data, message",
        [
            ("complete", [[0.2, 0], [0.5, None], [0.7, 0]], "event 3: .* after it stocked"),
            ("complete", [[0.2, 1], [2.5, 0]], "event 2: time 2.5 outside"),
            ("complete", [[math.nan, 1]], "event 1: time nan outside"),
            ("transactions-timed", [[0.2, 0], [0.7, 0]], "transaction 2: product 0 bought"),
            ("transactions", [0, 1, 0], "transaction 3: product 0 bought beyond its stock of 1"),
            ("transactions", [1, 5], "transaction 2: product 5 bought beyond its stock of 0"),
            ("sales", {"0": 2, "1": 0}, "sales 2 of product 0 outside"),
            ("sales-no-null", {"0": 0, "1": 4}, "sales 4 of product 1 outside"),
        ],
    )
    def test_infeasible_visit_rejected_with_line_number(self, granularity, data, message):
        # each visit breaks its own stocks (one unit of product 0, three of
        # product 1, none of product 5) or its horizon
        record = {
            "T": 1.0,
            "assortment": [0, 1],
            "stocks": {"0": 1, "1": 3},
            "granularity": granularity,
            "data": data,
        }
        with pytest.raises(DataFormatError, match=f"line 9: {message}"):
            parse_visit(json.dumps(record), 9)

    def test_mixed_granularities_rejected(self, tmp_path):
        paths = simulate_dataset(small_config(), 2, seed=5)
        lines = [
            serialize_visit(project_path(paths[0], "sales"), "sales"),
            serialize_visit(
                project_path(paths[1], "transactions"), "transactions"
            ),
        ]
        f = tmp_path / "mixed.jsonl"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_visits(str(f))


class TestRunConfig:
    def test_preset_values(self):
        p = SECTION7_PRESET
        assert p.catalog == (0, 1, 2, 3, 4)
        assert p.weights == {0: 0.25, 1: 0.05, 2: 0.1, 3: 0.2, 4: 0.4}
        assert p.rate == 6.0
        assert p.offer_probability == 0.6
        assert p.stock_level == 3
        assert p.always_available == (0,)
        assert not p.include_null
        assert p.visits == 2000

    def test_load_round_trip(self, tmp_path):
        raw = {
            "catalog": [0, 1],
            "weights": {"0": 1.0, "1": 0.5},
            "rate": 3.0,
            "include_null": True,
            "visits": 7,
            "seed": 2,
        }
        f = tmp_path / "config.json"
        f.write_text(json.dumps(raw))
        config = RunConfig.load(str(f))
        assert config.catalog == (0, 1)
        assert config.weights == {0: 1.0, 1: 0.5}
        assert config.visits == 7
        assert config.visit_config().params.rate == 3.0

    def test_unknown_key_rejected(self):
        with pytest.raises(DataFormatError, match="unknown"):
            RunConfig.from_dict(
                {"catalog": [0], "weights": {"0": 1.0}, "rate": 1.0, "typo": 1}
            )

    @pytest.mark.parametrize("key", ["truncation", "saa_samples"])
    def test_estimation_settings_are_unknown_keys(self, key):
        # estimation takes these from the command line only, so a config
        # naming them is refused rather than silently ignored
        raw = {"catalog": [0], "weights": {"0": 1.0}, "rate": 1.0, key: 5}
        with pytest.raises(DataFormatError, match=f"unknown config fields \\['{key}'\\]"):
            RunConfig.from_dict(raw)

    def test_missing_key_rejected(self):
        with pytest.raises(DataFormatError, match="missing"):
            RunConfig.from_dict({"catalog": [0]})

    def test_weights_must_cover_catalog(self):
        with pytest.raises(DataFormatError):
            RunConfig.from_dict(
                {"catalog": [0, 1], "weights": {"0": 1.0}, "rate": 1.0}
            )

    def test_stock_override_below_one_rejected(self):
        with pytest.raises(DataFormatError, match="stock 0"):
            RunConfig.from_dict(
                {"catalog": [0], "weights": {"0": 1.0}, "rate": 1.0, "stocks": {"0": 0}}
            )

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_include_null_must_be_a_json_boolean(self, value):
        # bool("false") is True, so a cast would read it as a null option
        raw = {"catalog": [0], "weights": {"0": 1.0}, "rate": 1.0, "include_null": value}
        with pytest.raises(DataFormatError, match="include_null must be true or false"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stock_level", 1.9),
            ("visits", 2.5),
            ("seed", "3"),
            ("visits", True),
            ("stocks", {"0": 1.5}),
            ("stocks", {"0": "2"}),
        ],
    )
    def test_counts_must_be_integral(self, field, value):
        # int() used to truncate 2.5 visits to 2 and 1.9 units to 1
        raw = {"catalog": [0], "weights": {"0": 1.0}, "rate": 1.0, field: value}
        with pytest.raises(DataFormatError, match=f"{field}.* must be an integer"):
            RunConfig.from_dict(raw)

    def test_integral_float_counts_accepted(self):
        raw = {"catalog": [0, 1], "weights": {"0": 1.0, "1": 0.5}, "rate": 1.0}
        config = RunConfig.from_dict(
            {**raw, "stock_level": 2.0, "visits": 7.0, "seed": 0.0, "stocks": {"1": 3.0}}
        )
        assert (config.stock_level, config.visits, config.seed) == (2, 7, 0)
        assert config.stocks == {1: 3}
        assert all(type(v) is int for v in (config.stock_level, config.visits, config.seed))

    def test_stock_of_always_available_product_rejected(self):
        # an always-available product has unlimited stock, so the entry
        # used to be ignored
        raw = {
            "catalog": [0, 1],
            "weights": {"0": 1.0, "1": 0.5},
            "rate": 1.0,
            "always_available": [0],
            "stocks": {"0": 2, "1": 2},
        }
        with pytest.raises(DataFormatError, match=r"stocks names always_available products \[0\]"):
            RunConfig.from_dict(raw)


class TestFitResultJson:
    def test_contains_expected_keys(self):
        paths = simulate_dataset(small_config(), 10, seed=6)
        result = fit_complete(paths)
        payload = json.loads(fit_result_json(result, extra={"estimator": "exact"}))
        assert set(payload) >= {
            "lambda_hat",
            "weights",
            "probabilities",
            "loglik",
            "converged",
            "estimator",
        }
        assert payload["lambda_hat"] == result.params.rate
        assert "null" in payload["probabilities"]
