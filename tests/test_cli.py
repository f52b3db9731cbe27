"""Command-line interface: subcommands, exit codes, reproducibility."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from stockout_demand import cli
from stockout_demand.cli import main
from stockout_demand.estimation import GRANULARITIES
from stockout_demand.io import read_visits


def run(*argv):
    return main(list(argv))


def simulate_refused(*args):
    raise AssertionError("simulated before refusing")


def visit(data, granularity="sales", stocks='{"0": 1, "1": 3}', tail=""):
    """A visit line over products 0 and 1, recording ``data``."""
    return (
        f'{{"T": 1.0, "assortment": [0, 1], "stocks": {stocks}, '
        f'"granularity": "{granularity}", "data": {data}{tail}}}'
    )


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def simulate_small(tmp_path, name="visits.jsonl", visits=30, seed=1):
    out = tmp_path / name
    argv = ("--preset", "section7", "--visits", str(visits), "--seed", str(seed))
    assert run("simulate", *argv, "--out", str(out)) == 0
    return out


#: the section7 preset with a null option, at rate 10
PRESET_WITH_NULL = {
    "catalog": [0, 1, 2, 3, 4],
    "weights": {"0": 0.25, "1": 0.05, "2": 0.1, "3": 0.2, "4": 0.4},
    "rate": 10,
    "horizon": 1.0,
    "always_available": [0],
    "offer_probability": 0.6,
    "stock_level": 3,
    "include_null": True,
}

#: estimate calls that must write the same bytes on every run: each row's
#: file granularity and options.  Both SAA fits draw sampled blocks, and the
#: null-inclusive sales fits sum over a range of arrival counts
RERUNS = {
    "no-null-exact": ("sales-no-null", ()),
    "no-null-naive": ("sales-no-null", ("--naive",)),
    "no-null-saa16": ("sales-no-null", ("--saa-samples", "16", "--seed", "0")),
    "null-exact": ("sales", ()),
    "null-naive": ("sales", ("--naive",)),
    "null-saa4": ("sales", ("--saa-samples", "4", "--seed", "1")),
    "complete": ("complete", ()),
    "transactions-timed": ("transactions-timed", ()),
    "transactions": ("transactions", ()),
}


@pytest.fixture(scope="module")
def rerun_files(tmp_path_factory):
    """30 visits of the section7 preset at sales-no-null (seed 1), and of
    :data:`PRESET_WITH_NULL` at every other granularity (seed 5), by path."""
    root = tmp_path_factory.mktemp("reruns")
    config = root / "null.json"
    config.write_text(json.dumps(PRESET_WITH_NULL))
    files = {}
    for granularity in GRANULARITIES:
        if granularity == "sales-no-null":
            source = ("--preset", "section7", "--seed", "1")
        else:
            source = ("--config", str(config), "--seed", "5")
        out = files[granularity] = root / f"{granularity}.jsonl"
        argv = ("--visits", "30", "--granularity", granularity, "--out", str(out))
        assert run("simulate", *source, *argv) == 0
    return files


def rerun_argv(files, row):
    granularity, options = RERUNS[row]
    return ["estimate", "--data", str(files[granularity]), *options]


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

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['{"T": 1.0}'], "line 1: missing fields"),
            (
                [visit('{"0": 0, "1": 1}'), visit('{"0": 0, "1": 1}', stocks='{"0": 0, "1": 3}')],
                "line 2: offered product 0 has stock 0",
            ),
            # product 0 has one unit; line 2 buys it twice, or buys it
            # after the horizon ends, which would give the second segment a
            # negative exposure
            (
                [visit("[[0.3, 1]]", "complete"), visit("[[0.2, 1], [2.5, 0]]", "complete")],
                "line 2: event 2: time 2.5 outside [0, 1.0]",
            ),
            (
                [
                    visit("[[0.3, 1]]", "transactions-timed"),
                    visit("[[0.2, 1], [2.5, 0], [0.1, 1]]", "transactions-timed"),
                ],
                "line 2: transaction 2: time 2.5 outside [0, 1.0]",
            ),
            (
                [visit("[1]", "transactions"), visit("[0, 0]", "transactions")],
                "line 2: transaction 2: product 0 bought beyond its stock of 1",
            ),
            (
                [visit('{"0": 0, "1": 1}'), visit('{"0": 2, "1": 0}')],
                "line 2: sales 2 of product 0 outside [0, 1]",
            ),
            # a cast would read the stock of 1.5 as 1
            (
                [visit('{"0": 0, "1": 1}'), visit('{"0": 0, "1": 1}', stocks='{"0": 1.5, "1": 3}')],
                "line 2: malformed visit record: stock must be an integer, got 1.5",
            ),
            # a read builds each header once, and True == 1: line 2 must not
            # reuse line 1's
            (
                [
                    visit('{"0": 1, "1": 0}'),
                    visit('{"0": 1, "1": 0}', stocks='{"0": true, "1": 3}'),
                ],
                "line 2: malformed visit record: stock must be an integer, got True",
            ),
            (
                [
                    visit('{"0": 1, "1": 0}'),
                    visit('{"0": 1, "1": 0}', stocks='{"0": 1, "1": 2, "01": 3}'),
                ],
                "line 2: malformed visit record: stocks names product 1 more than once",
            ),
            # a read decodes line 1's header text once, yet must still read
            # line 2 to its end
            (
                [visit('{"0": 1, "1": 0}'), visit('{"0": 0, "1": 1}', tail=', "extra": 1')],
                "line 2: unknown fields ['extra']",
            ),
            # JSON whitespace is space, tab and line ends, so a line of only
            # U+00A0 is no blank line but invalid JSON
            (
                [visit('{"0": 1, "1": 0}'), "\u00a0", visit('{"0": 0, "1": 1}')],
                "line 2: invalid JSON",
            ),
        ],
        ids=[
            "missing-fields",
            "zero-stock",
            "complete-past-horizon",
            "timed-past-horizon",
            "transactions-oversold",
            "sales-oversold",
            "fractional-stock",
            "true-stock",
            "product-named-twice",
            "key-after-data",
            "nbsp-line",
        ],
    )
    def test_bad_line_is_data_error_naming_it(self, tmp_path, capsys, lines, message):
        data = write_lines(tmp_path / "bad.jsonl", lines)
        out = tmp_path / "fit.json"
        assert run("estimate", "--data", str(data), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, options, message",
        [
            # no-null sales never read m, so estimate used to fit and write
            # "truncation": -3
            ("estimate", ("--truncation", "-3"), "truncation m must be >= 0, got -3"),
            ("compare", ("--truncation", "-3"), "truncation m must be >= 0, got -3"),
            ("compare", ("--prefixes", "5,x"), "--prefixes takes comma-separated integers"),
            # the seed used to be dropped and the fit written with "seed": null
            (
                "estimate",
                ("--seed", "3"),
                "--seed seeds the SAA sampler and needs --saa-samples",
            ),
            # the SAA request used to be dropped and a naive fit written
            ("estimate", ("--naive", "--saa-samples", "4"), "not allowed with argument"),
        ],
        ids=[
            "negative-truncation-estimate",
            "negative-truncation-compare",
            "prefixes-not-integers",
            "seed-without-saa",
            "naive-with-saa",
        ],
    )
    def test_bad_option_is_usage_error(self, tmp_path, capsys, command, options, message):
        data = simulate_small(tmp_path)
        out = tmp_path / "out"
        config = ("--preset", "section7") if command == "compare" else ()
        code = run(command, "--data", str(data), *config, *options, "--out", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, options",
        [
            ("estimate", ("--saa-samples", "100000")),
            ("compare", ("--preset", "section7", "--saa-samples", "100000")),
            ("simulate", ("--preset", "section7")),
        ],
        ids=["estimate", "compare", "simulate"],
    )
    def test_negative_seed_is_usage_error_whatever_is_drawn(
        self, tmp_path, capsys, monkeypatch, command, options
    ):
        # a sample size above every block's count draws nothing, so a
        # negative seed used to reach no generator: estimate wrote
        # "seed": -1 and compare its CSV; simulate stopped in numpy
        data = () if command == "simulate" else ("--data", str(simulate_small(tmp_path)))
        monkeypatch.setattr(cli, "simulate_dataset", simulate_refused)
        out = tmp_path / "out"
        code = run(command, *data, *options, "--seed", "-1", "--out", str(out))
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
        monkeypatch.setattr(cli, "simulate_dataset", simulate_refused)
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

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--saa-samples", "4"), "the SAA estimator fits sales"),
            (("--naive",), "visit 1 is a TransactionRecord"),
        ],
    )
    def test_sales_estimator_on_timed_file_is_data_error(
        self, rerun_files, tmp_path, capsys, option, message
    ):
        data = rerun_files["transactions-timed"]
        out = tmp_path / "fit.json"
        assert run("estimate", "--data", str(data), *option, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, options, message",
        [
            # m one above the largest visit total leaves Poisson mass beyond
            # m at the fitted rate
            (
                [visit('{"0": 1, "1": 2}'), visit('{"0": 0, "1": 1}')],
                ("--truncation", "4"),
                "beyond m=4",
            ),
            # a product offered and never sold: its weight's supremum is 0
            (
                [
                    visit('{"0": 1, "1": 0}', stocks='{"0": 2, "1": 3}'),
                    visit('{"0": 2, "1": 0}', stocks='{"0": 2, "1": 3}'),
                ],
                (),
                "product 1 never sold",
            ),
            # line 1 sells out both products: with no null option the
            # arrivals after that go unrecorded
            (
                [
                    visit('{"0": 1, "1": 2}', "sales-no-null", '{"0": 1, "1": 2}'),
                    visit('{"0": 1, "1": 1}', "sales-no-null", '{"0": 2, "1": 2}'),
                ],
                (),
                "1 no-null visits sell out every offered product, "
                "so their arrival counts are censored",
            ),
        ],
        ids=["tail", "never-sold", "censored"],
    )
    def test_fit_not_the_mle_exits_3_and_is_written(
        self, tmp_path, capsys, lines, options, message
    ):
        data = write_lines(tmp_path / "sales.jsonl", lines)
        out = tmp_path / "fit.json"
        assert run("estimate", "--data", str(data), *options, "--out", str(out)) == 3
        payload = json.loads(out.read_text())
        assert payload["converged"] is False
        assert message in payload["message"]

    @pytest.mark.parametrize("row", RERUNS)
    def test_reruns_are_byte_identical(self, rerun_files, tmp_path, capsys, row):
        argv = rerun_argv(rerun_files, row)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run(*argv, "--out", str(first)) == 0
        assert run(*argv, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_reruns_in_another_process_are_byte_identical(self, rerun_files, tmp_path, capsys):
        # the SAA streams are keyed through hash(), which a str in a key
        # would salt per process: a child under another hash seed must write
        # every rerun row's bytes
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        salt = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=salt)
        calls = [
            [*rerun_argv(rerun_files, row), "--out", str(tmp_path / f"child-{row}.json")]
            for row in RERUNS
        ]
        code = (
            "import json, sys; from stockout_demand.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
        )
        subprocess.run(
            [sys.executable, "-c", code, json.dumps(calls)],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        for row in RERUNS:
            out = tmp_path / f"{row}.json"
            assert run(*rerun_argv(rerun_files, row), "--out", str(out)) == 0
            assert (tmp_path / f"child-{row}.json").read_bytes() == out.read_bytes(), row

    @pytest.mark.parametrize(
        "granularity, copies",
        [("transactions-timed", 1), ("transactions-timed", 2), ("complete", 1)],
        ids=["timed", "doubled", "complete"],
    )
    def test_file_written_two_ways_fits_the_same(
        self, rerun_files, tmp_path, capsys, granularity, copies
    ):
        # a doubled file's repeated lines are read as one shared visit each
        # but still counted; "T": 1 on every other line is the same visit
        # as "T": 1.0, so each doubled pair, written two ways, still folds
        # as one group
        text = rerun_files[granularity].read_text().splitlines()
        lines = [line for line in text for _ in range(copies)]
        retyped = [
            line.replace('"T": 1.0,', '"T": 1,', 1) if i % 2 == 0 else line
            for i, line in enumerate(lines)
        ]
        assert all(line.startswith('{"T": 1,') for line in retyped[::2])
        fits = []
        for name, written in (("original", lines), ("retyped", retyped)):
            data = write_lines(tmp_path / f"{name}.jsonl", written)
            out = tmp_path / f"{name}.json"
            assert run("estimate", "--data", str(data), "--out", str(out)) == 0
            fit = json.loads(out.read_text())
            assert fit.pop("data_path") == str(data)
            fits.append(fit)
        assert fits[0]["visits"] == len(text) * copies
        assert fits[0] == fits[1]


class TestVerifyCounterexample:
    def test_default_case_confirms_mismatch(self, capsys):
        assert run("verify-counterexample") == 0
        out = capsys.readouterr().out
        assert "10/11" in out
        assert "26/33" in out
        assert "mismatch confirmed" in out


class TestCompare:
    @pytest.mark.parametrize(
        "seed, prefixes, not_mle",
        [
            (8, "12,24", None),
            # no visit of the first two sells product 2: compare used to exit
            # 0 with P_2 = 5.6e-13 as the correct estimate
            (1, "2", "not the MLE: product 2 never sold, its weight's supremum 0"),
        ],
        ids=["converged", "never-sold"],
    )
    def test_writes_plot_ready_csv(self, tmp_path, capsys, seed, prefixes, not_mle):
        data = simulate_small(tmp_path, visits=24, seed=seed)
        out = tmp_path / "compare.csv"
        argv = ("--preset", "section7", "--prefixes", prefixes, "--saa-samples", "1")
        code = run("compare", "--data", str(data), *argv, "--out", str(out))
        # as estimate does, compare writes a fit that is not the MLE, then
        # exits 3 naming its prefix, estimator and message
        assert code == (0 if not_mle is None else 3)
        err = capsys.readouterr().err.splitlines()
        named = [] if not_mle is None else ["correct", "naive", "saa"]
        assert [line.split(": L-BFGS-B: ")[0] for line in err] == [
            f"prefix {prefixes}, {name}" for name in named
        ]
        assert all(not_mle in line for line in err)
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert {r["estimator"] for r in rows} == {"correct", "naive", "saa"}
        assert {r["prefix_size"] for r in rows} == set(prefixes.split(","))
        # five products, no null column in the no-null regime
        assert {r["parameter"] for r in rows} == {f"P_{a}" for a in range(5)}
        truth = {f"P_{a}": w for a, w in enumerate([0.25, 0.05, 0.1, 0.2, 0.4])}
        for r in rows:
            assert float(r["truth"]) == pytest.approx(truth[r["parameter"]])
            assert 0.0 <= float(r["estimate"]) <= 1.0

    def test_rejects_non_sales_data(self, rerun_files, tmp_path, capsys):
        data = rerun_files["transactions"]
        err = self.refuse(tmp_path, capsys, "--preset", "section7", data=data)
        assert "compare expects a sales-granularity file" in err

    def refuse(self, tmp_path, capsys, *options, data=None):
        data = data or simulate_small(tmp_path)
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
