"""Command-line interface: subcommands, exit codes, reproducibility."""

import csv
import hashlib
import json

import pytest

from stockout_demand import cli
from stockout_demand.cli import main
from stockout_demand.io import read_visits


def run(*argv):
    return main(list(argv))


def simulate_small(tmp_path, name="visits.jsonl", visits=30, seed=1):
    out = tmp_path / name
    code = run(
        "simulate",
        "--preset",
        "section7",
        "--visits",
        str(visits),
        "--seed",
        str(seed),
        "--out",
        str(out),
    )
    assert code == 0
    return out


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 1

    def test_reused_parser_still_exits_1_on_usage_errors(self, tmp_path, capsys):
        # the parser is built once per process; a second usage error, after a
        # good call, must still exit 1 with its own message
        assert run("estimate") == 1
        assert "--data" in capsys.readouterr().err
        simulate_small(tmp_path)
        assert run("estimate", "--data", "x.jsonl", "--truncation", "two") == 1
        assert "invalid int value" in capsys.readouterr().err
        assert cli._build_parser() is cli._build_parser()

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        assert run("simulate", "--out", str(tmp_path / "x.jsonl")) == 2

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        assert run("estimate", "--data", str(tmp_path / "nope.jsonl")) == 2

    def test_malformed_data_reports_line(self, tmp_path, capsys):
        f = tmp_path / "bad.jsonl"
        f.write_text('{"T": 1.0}\n')
        assert run("estimate", "--data", str(f)) == 2
        assert "line 1" in capsys.readouterr().err

    def test_zero_stock_visit_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "bad.jsonl"
        good = '{"T": 1.0, "assortment": [0], "stocks": {"0": 2}, '
        bad = '{"T": 1.0, "assortment": [0], "stocks": {"0": 0}, '
        tail = '"granularity": "sales", "data": {"0": 0}}\n'
        f.write_text(good + tail + bad + tail)
        assert run("estimate", "--data", str(f)) == 2
        assert "line 2" in capsys.readouterr().err

    def test_timestamp_past_horizon_is_data_error(self, tmp_path, capsys):
        # the stock-out purchase of product 0 at t = 2.5 > T would give the
        # second segment a negative exposure
        f = tmp_path / "bad.jsonl"
        head = '{"T": 1.0, "assortment": [0, 1], "stocks": {"0": 1, "1": 3}, '
        head += '"granularity": "transactions-timed", "data": '
        f.write_text(head + "[[0.3, 1]]}\n" + head + "[[0.2, 1], [2.5, 0], [0.1, 1]]}\n")
        assert run("estimate", "--data", str(f)) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "granularity, data",
        [
            ("complete", "[[0.2, 1], [2.5, 0]]"),
            ("transactions", "[0, 0]"),
            ("sales", '{"0": 2, "1": 0}'),
        ],
    )
    def test_infeasible_visit_is_data_error_on_its_line(
        self, tmp_path, capsys, granularity, data
    ):
        # product 0 has one unit; the second visit buys it twice, or buys it
        # after the horizon ends
        f = tmp_path / "bad.jsonl"
        head = '{"T": 1.0, "assortment": [0, 1], "stocks": {"0": 1, "1": 3}, '
        head += f'"granularity": "{granularity}", "data": '
        good = {
            "complete": "[[0.3, 1]]",
            "transactions": "[1]",
            "sales": '{"0": 0, "1": 1}',
        }
        f.write_text(head + good[granularity] + "}\n" + head + data + "}\n")
        assert run("estimate", "--data", str(f)) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_negative_truncation_is_usage_error(self, tmp_path, capsys, command):
        # no-null sales never read m, so estimate used to fit and write
        # "truncation": -3
        data = simulate_small(tmp_path)
        out = tmp_path / "out"
        config = ("--preset", "section7") if command == "compare" else ()
        code = run(command, "--data", str(data), *config, "--truncation", "-3", "--out", str(out))
        assert code == 1
        assert "truncation m must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_negative_seed_is_usage_error_whatever_is_drawn(self, tmp_path, capsys, command):
        # a sample size above every block's count draws nothing, so a
        # negative seed used to reach no generator: estimate wrote
        # "seed": -1 and compare its CSV
        data = simulate_small(tmp_path)
        out = tmp_path / "out"
        config = ("--preset", "section7") if command == "compare" else ()
        code = run(
            command, "--data", str(data), *config, "--saa-samples", "100000", "--seed", "-1",
            "--out", str(out),
        )
        assert code == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_preset_with_config_is_usage_error(self, tmp_path, capsys, command):
        # the preset used to win and the config file to be ignored
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({"catalog": [0], "weights": {"0": 1.0}, "rate": 1.0}))
        data = () if command == "simulate" else ("--data", str(simulate_small(tmp_path)))
        out = tmp_path / "out"
        code = run(
            command, *data, "--preset", "section7", "--config", str(config), "--out", str(out)
        )
        assert code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_stock_is_data_error(self, tmp_path, capsys):
        # a cast would read the stock of 1.5 as 1
        f = tmp_path / "bad.jsonl"
        head = '{"T": 1.0, "assortment": [0], "granularity": "sales", "data": {"0": 1}, '
        f.write_text(head + '"stocks": {"0": 2}}\n' + head + '"stocks": {"0": 1.5}}\n')
        out = tmp_path / "fit.json"
        assert run("estimate", "--data", str(f), "--out", str(out)) == 2
        assert "line 2: malformed visit record: stock must be an integer, got 1.5" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestSimulate:
    def test_writes_visits_and_reports_summary(self, tmp_path, capsys):
        out = simulate_small(tmp_path)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 30
        assert json.loads(lines[0])["granularity"] == "sales-no-null"
        assert "mean arrivals" in capsys.readouterr().out

    def test_stockout_frequency_is_share_of_visits_with_a_stockout(self, tmp_path, capsys):
        out = simulate_small(tmp_path, visits=200, seed=2)
        visits, _ = read_visits(str(out))
        share = sum(1 for v in visits if v.stocked_out) / len(visits)
        assert 0 < share < 1
        assert f"stock-out frequency {share:.3f})" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a = simulate_small(tmp_path, "a.jsonl", seed=5)
        b = simulate_small(tmp_path, "b.jsonl", seed=5)
        assert a.read_bytes() == b.read_bytes()
        c = simulate_small(tmp_path, "c.jsonl", seed=6)
        assert a.read_bytes() != c.read_bytes()

    # a null-inclusive config with a horizon of 2 and a stock override
    NULL_CONFIG = {
        "catalog": [0, 1, 2, 3, 4],
        "weights": {"0": 0.25, "1": 0.05, "2": 0.1, "3": 0.2, "4": 0.4},
        "rate": 5.0,
        "horizon": 2.0,
        "always_available": [0],
        "offer_probability": 0.6,
        "stock_level": 2,
        "stocks": {"4": 1},
        "include_null": True,
    }

    @pytest.mark.parametrize(
        "granularity, digest",
        [
            ("sales-no-null", "dc9f2a2e54cb2494da376c346d04bc9b258e2830764980e1e4dbd43784253109"),
            ("sales", "e949dd5cc2618f1ebe4c126db9a957223f0891bb668aa1522b3ef4ab803951fe"),
            ("transactions", "a452464945cf5b6ed4b57ad3a53bdc9bbb60291ba1aece7219982bdf0029676a"),
            (
                "transactions-timed",
                "27046c5d4bbfddb78750ed7272a6b49e12e1e768e82a2037630d1038ca559e14",
            ),
            ("complete", "19575e138f78dceff4ca61cf62174e5349b327c8c91ba72ec39b4800b0bf03a3"),
        ],
    )
    def test_written_bytes_pinned(self, tmp_path, capsys, granularity, digest):
        # the section7 preset writes the no-null file; the null config the rest
        if granularity == "sales-no-null":
            source = ("--preset", "section7")
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(self.NULL_CONFIG))
            source = ("--config", str(config))
        out = tmp_path / "visits.jsonl"
        argv = ("--visits", "200", "--seed", "7", "--granularity", granularity)
        assert run("simulate", *source, *argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_no_null_config_refuses_other_granularity(self, tmp_path, capsys):
        code = run(
            "simulate",
            "--preset",
            "section7",
            "--granularity",
            "sales",
            "--out",
            str(tmp_path / "x.jsonl"),
        )
        assert code == 2

    def test_null_config_refuses_sales_no_null_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        def simulate(*args):
            raise AssertionError("simulated a config its granularity refuses")

        monkeypatch.setattr(cli, "simulate_dataset", simulate)
        config = tmp_path / "null.json"
        config.write_text(json.dumps({"catalog": [0, 1], "weights": {"0": 1, "1": 2}, "rate": 2}))
        out = tmp_path / "x.jsonl"
        code = run(
            "simulate", "--config", str(config), "--granularity", "sales-no-null", "--out", str(out)
        )
        assert code == 2
        assert "a config with include_null True cannot be written at sales-no-null" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_zero_stock_override_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "catalog": [0, 1],
                    "weights": {"0": 1.0, "1": 0.5},
                    "rate": 2.0,
                    "stocks": {"0": 0},
                    "visits": 5,
                }
            )
        )
        out = tmp_path / "visits.jsonl"
        assert run("simulate", "--config", str(config), "--out", str(out)) == 2
        assert "stock 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", -1), ("horizon", "nan"), ("offer_probability", 1.5)],
    )
    def test_bad_horizon_or_offer_probability_is_data_error(
        self, tmp_path, capsys, field, value
    ):
        config = tmp_path / "config.json"
        raw = {"catalog": [0, 1], "weights": {"0": 1.0, "1": 0.5}, "rate": 2.0}
        config.write_text(json.dumps({**raw, field: value, "visits": 5}))
        out = tmp_path / "visits.jsonl"
        assert run("simulate", "--config", str(config), "--out", str(out)) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stock_level", 0),
            ("visits", -5),
            ("seed", -3),
            ("always_available", [7]),
            ("stocks", {"5": 2}),
            ("include_null", "false"),
            ("stock_level", 1.9),
            ("visits", 2.5),
            ("seed", 1.5),
            ("stocks", {"1": 2.5}),
            ("stocks", {"0": 2}),  # product 0 is always available
            ("catalog", [0.5, 1]),
            ("rate", "3"),
        ],
    )
    def test_bad_count_or_unknown_product_is_data_error(
        self, tmp_path, capsys, field, value
    ):
        # these used to exit 1, crash with a KeyError, or load as something
        # else: stocks outside the catalog or of an always-available product
        # ignored, "false" read as a null option, 1.9 units as 1 and 2.5
        # visits as 2
        config = tmp_path / "config.json"
        raw = {
            "catalog": [0, 1],
            "weights": {"0": 1.0, "1": 0.5},
            "rate": 2.0,
            "always_available": [0],
            "visits": 5,
        }
        config.write_text(json.dumps({**raw, field: value}))
        out = tmp_path / "visits.jsonl"
        assert run("simulate", "--config", str(config), "--out", str(out)) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


    def test_repeated_catalog_product_is_data_error_at_every_seed(self, tmp_path, capsys):
        # the repeat used to surface only at a seed that offered product 1
        # twice in one visit; other seeds wrote visits
        config = tmp_path / "config.json"
        raw = {"catalog": [0, 1, 1], "weights": {"0": 1.0, "1": 0.5}, "rate": 2.0}
        config.write_text(json.dumps({**raw, "offer_probability": 0.5, "visits": 5}))
        for seed in range(1, 5):
            out = tmp_path / f"visits{seed}.jsonl"
            argv = ["--config", str(config), "--seed", str(seed), "--out", str(out)]
            assert run("simulate", *argv) == 2
            assert "catalog lists products [1] more than once" in capsys.readouterr().err
            assert not out.exists()


class TestEstimate:
    def test_estimates_preset_data(self, tmp_path, capsys):
        data = simulate_small(tmp_path, visits=60, seed=2)
        out = tmp_path / "fit.json"
        code = run("estimate", "--data", str(data), "--out", str(out))
        assert code in (0, 3)
        payload = json.loads(out.read_text())
        assert payload["estimator"] == "exact"
        assert payload["visits"] == 60
        assert payload["lambda_hat"] > 0
        probs = payload["probabilities"]
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_naive_and_saa_labels(self, tmp_path, capsys):
        data = simulate_small(tmp_path, visits=40, seed=3)
        out = tmp_path / "fit.json"
        assert run("estimate", "--data", str(data), "--naive", "--out", str(out)) in (0, 3)
        assert json.loads(out.read_text())["estimator"] == "naive"
        assert run(
            "estimate",
            "--data",
            str(data),
            "--saa-samples",
            "2",
            "--seed",
            "4",
            "--out",
            str(out),
        ) in (0, 3)
        payload = json.loads(out.read_text())
        assert payload["estimator"] == "saa"
        assert payload["saa_samples"] == 2
        assert payload["seed"] == 4

    def test_naive_with_saa_is_usage_error(self, tmp_path, capsys):
        # the SAA request used to be dropped and a naive fit written
        data = simulate_small(tmp_path, visits=30, seed=3)
        out = tmp_path / "fit.json"
        code = run(
            "estimate", "--data", str(data), "--naive", "--saa-samples", "4", "--out", str(out)
        )
        assert code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_without_saa_is_usage_error(self, tmp_path, capsys):
        # the seed used to be dropped and the fit written with "seed": null
        data = simulate_small(tmp_path)
        out = tmp_path / "fit.json"
        assert run("estimate", "--data", str(data), "--seed", "3", "--out", str(out)) == 1
        assert "--seed seeds the SAA sampler and needs --saa-samples" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--saa-samples", "4"), "the SAA estimator fits sales"),
            (("--naive",), "visit 1 is a TransactionRecord"),
        ],
    )
    def test_sales_estimator_on_timed_file_is_data_error(
        self, tmp_path, capsys, option, message
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"catalog": [0, 1], "weights": {"0": 1.0, "1": 0.5}, "rate": 2.0})
        )
        data = tmp_path / "timed.jsonl"
        assert run(
            "simulate",
            "--config",
            str(config),
            "--visits",
            "20",
            "--granularity",
            "transactions-timed",
            "--out",
            str(data),
        ) == 0
        out = tmp_path / "fit.json"
        assert run("estimate", "--data", str(data), *option, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_fit_short_of_the_truncation_tail_exits_3_and_is_written(self, tmp_path, capsys):
        # m one above the largest visit total leaves Poisson mass beyond m
        # at the fitted rate, so the fit is not the MLE
        head = '{"T": 1.0, "assortment": [0, 1], "stocks": {"0": 1, "1": 3}, '
        head += '"granularity": "sales", "data": '
        data = tmp_path / "sales.jsonl"
        data.write_text(
            "".join(head + d + "}\n" for d in ('{"0": 1, "1": 2}', '{"0": 0, "1": 1}'))
        )
        out = tmp_path / "fit.json"
        assert run("estimate", "--data", str(data), "--truncation", "4", "--out", str(out)) == 3
        payload = json.loads(out.read_text())
        assert payload["converged"] is False
        assert "beyond m=4" in payload["message"]

    def test_repeat_run_identical_output(self, tmp_path, capsys):
        data = simulate_small(tmp_path, visits=40, seed=7)
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        args = ["estimate", "--data", str(data), "--saa-samples", "1", "--seed", "0"]
        assert run(*args, "--out", str(out1)) in (0, 3)
        assert run(*args, "--out", str(out2)) in (0, 3)
        assert out1.read_bytes() == out2.read_bytes()


class TestVerifyCounterexample:
    def test_default_case_confirms_mismatch(self, capsys):
        assert run("verify-counterexample") == 0
        out = capsys.readouterr().out
        assert "10/11" in out
        assert "26/33" in out
        assert "mismatch confirmed" in out


class TestCompare:
    def test_writes_plot_ready_csv(self, tmp_path, capsys):
        data = simulate_small(tmp_path, visits=24, seed=8)
        out = tmp_path / "compare.csv"
        code = run(
            "compare",
            "--data",
            str(data),
            "--preset",
            "section7",
            "--prefixes",
            "12,24",
            "--saa-samples",
            "1",
            "--out",
            str(out),
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert {r["estimator"] for r in rows} == {"correct", "naive", "saa"}
        assert {r["prefix_size"] for r in rows} == {"12", "24"}
        # five products, no null column in the no-null regime
        assert {r["parameter"] for r in rows} == {f"P_{a}" for a in range(5)}
        truth = {f"P_{a}": w for a, w in enumerate([0.25, 0.05, 0.1, 0.2, 0.4])}
        for r in rows:
            assert float(r["truth"]) == pytest.approx(truth[r["parameter"]])
            assert 0.0 <= float(r["estimate"]) <= 1.0

    def test_rejects_non_sales_data(self, tmp_path, capsys):
        from stockout_demand import simulate_dataset, write_visits
        from stockout_demand.io import project_path
        from stockout_demand.simulate import VisitConfig
        from stockout_demand.types import ModelParams

        config = VisitConfig(
            horizon=1.0,
            params=ModelParams(rate=2.0, weights={0: 1.0}),
            always_available=(0,),
        )
        paths = simulate_dataset(config, 5, seed=1)
        f = tmp_path / "txn.jsonl"
        write_visits(
            str(f), [project_path(p, "transactions") for p in paths], "transactions"
        )
        code = run(
            "compare",
            "--data",
            str(f),
            "--preset",
            "section7",
            "--out",
            str(tmp_path / "c.csv"),
        )
        assert code == 2

    def refuse(self, tmp_path, capsys, *options):
        data = simulate_small(tmp_path)
        out = tmp_path / "c.csv"
        code = run("compare", "--data", str(data), *options, "--out", str(out))
        assert code == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_prefix_missing_a_catalog_product_is_data_error(self, tmp_path, capsys):
        # the first visit offers products 0, 2 and 4 only; compare used to
        # stop with KeyError: 1 when it read the fit's probability of 1
        err = self.refuse(tmp_path, capsys, "--preset", "section7", "--prefixes", "1,2")
        assert "prefix 1 offers products [0, 2, 4], but the config's catalog is" in err

    @pytest.mark.parametrize(
        "catalog, include_null, message",
        [
            # compare used to write estimates over five products next to
            # "truth" over four
            (
                [0, 1, 2, 3],
                False,
                "prefix 30 offers products [0, 1, 2, 3, 4], "
                "but the config's catalog is [0, 1, 2, 3]",
            ),
            (
                [0, 1, 2, 3, 4],
                True,
                "include_null is True, but the file's granularity is sales-no-null",
            ),
        ],
    )
    def test_config_that_does_not_describe_the_data_is_data_error(
        self, tmp_path, capsys, catalog, include_null, message
    ):
        weights = {0: 0.25, 1: 0.05, 2: 0.1, 3: 0.2, 4: 0.4}
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "catalog": catalog,
                    "weights": {str(a): weights[a] for a in catalog},
                    "rate": 6.0,
                    "include_null": include_null,
                }
            )
        )
        assert message in self.refuse(tmp_path, capsys, "--config", str(config))
