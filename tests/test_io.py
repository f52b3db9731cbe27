"""File formats: JSONL visits, run configs, canonical round-trips."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from stockout_demand import SECTION7_PRESET, compile_dataset, read_visits, write_visits
from stockout_demand import io as sd_io
from stockout_demand import types
from stockout_demand.estimation import _group_key
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
from stockout_demand.types import Assortment, ModelParams, TransactionRecord


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


# a cast would read a stock of 1.5 as 1, T = "1" as 1.0 and a time of
# "0.5" as 0.5; stocks given as a list are malformed, not a crash
STRICT_VALUE_CASES = [
    ("sales", {"stocks": {"0": 1.5, "1": 3}}, "stock must be an integer, got 1.5"),
    ("sales", {"data": {"0": 1, "1": 2.7}}, "sales must be an integer, got 2.7"),
    ("sales", {"assortment": [0, 1.9]}, "product id must be an integer, got 1.9"),
    ("sales", {"T": True}, "T must be a number, got True"),
    ("sales", {"T": "1"}, "T must be a number, got '1'"),
    ("transactions", {"data": [1, True]}, "product id must be an integer, got True"),
    ("transactions-timed", {"data": [["0.5", 1]]}, "time must be a number, got '0.5'"),
    ("transactions-timed", {"data": [[None, 1]]}, "time must be a number, got None"),
    ("complete", {"data": [[0.5, 1.5]]}, "choice must be an integer, got 1.5"),
    ("complete", {"stocks": [1, 3]}, "'list' object has no attribute 'items'"),
]


def strict_value_record(granularity, change):
    """A valid visit of ``granularity`` (products 0 and 1, stocks 1 and 3),
    with the fields in ``change`` replaced."""
    return {
        "T": 1.0,
        "assortment": [0, 1],
        "stocks": {"0": 1, "1": 3},
        "granularity": granularity,
        "data": {"sales": {"0": 0, "1": 1}, "transactions": [1]}.get(granularity, []),
        **change,
    }


REPEATED_PRODUCT_CASES = [
    ("sales", {"stocks": {"1": 2, "01": 3}}, "stocks names product 1 more than once"),
    ("sales", {"data": {"1": 2, " 1": 0}}, "data names product 1 more than once"),
    ("transactions", {"stocks": {"1": 3, "+1": 1}}, "stocks names product 1 more than once"),
]


def repeated_product_record(granularity, change):
    """A valid visit of ``granularity`` offering product 1 at stock 3, with
    the fields in ``change`` replaced."""
    return {
        "T": 1.0,
        "assortment": [1],
        "stocks": {"1": 3},
        "granularity": granularity,
        "data": {"1": 2} if granularity == "sales" else [1],
        **change,
    }


#: a sales visit whose integers are written as floats and whose T is an int
INTEGRAL_FLOATS = {
    "T": 1,
    "assortment": [0.0, 1],
    "stocks": {"0": 1.0, "1": 3},
    "granularity": "sales",
    "data": {"0": 1.0, "1": 2},
}


def assert_read_as_integers(obs):
    assert obs.horizon == 1.0 and type(obs.horizon) is float
    assert obs.initial_assortment.products == (0, 1)
    assert obs.stocks == {0: 1, 1: 3} and obs.sales == {0: 1, 1: 2}
    assert all(type(v) is int for v in (*obs.stocks.values(), *obs.sales.values()))
    assert all(type(a) is int for a in obs.initial_assortment.products)


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

    @pytest.mark.parametrize("granularity", ["complete", "transactions-timed", "transactions"])
    def test_no_null_visit_is_not_written_as_null_inclusive(self, tmp_path, granularity):
        # a line's regime comes from its granularity alone: this visit
        # would read back with a null option
        no_null = types.CompletePath(
            1.0, Assortment((0, 1), False), {0: 1, 1: 2}, ((0.2, 1), (0.5, 0))
        )
        good = project_path(simulate_dataset(small_config(), 1, seed=4)[0], granularity)
        out = tmp_path / "visits.jsonl"
        match = f"^visit 2: regime does not match granularity '{granularity}'$"
        with pytest.raises(types.InvalidObservation, match=match):
            write_visits(str(out), [good, project_path(no_null, granularity)], granularity)
        assert not out.exists()

    @pytest.mark.parametrize(
        "granularity,include_null", [("sales", False), ("sales-no-null", True)]
    )
    def test_sales_in_the_other_regime_is_not_written(self, tmp_path, granularity, include_null):
        # the projection keeps the path's regime; the writer refuses it
        good, other = (
            simulate_dataset(small_config(regime), 1, seed=4)[0]
            for regime in (not include_null, include_null)
        )
        projected = project_path(other, granularity)
        assert projected == types.project_sales(other)
        out = tmp_path / "visits.jsonl"
        match = f"^visit 2: regime does not match granularity '{granularity}'$"
        with pytest.raises(types.InvalidObservation, match=match):
            write_visits(str(out), [project_path(good, granularity), projected], granularity)
        assert not out.exists()

    @pytest.mark.parametrize("granularity,include_null", GRANULARITY_REGIMES)
    def test_line_writer_refuses_the_other_regime(self, granularity, include_null):
        path = simulate_dataset(small_config(not include_null), 1, seed=4)[0]
        obs = project_path(path, granularity)
        match = f"^regime does not match granularity '{granularity}'$"
        with pytest.raises(types.InvalidObservation, match=match):
            serialize_visit(obs, granularity)


class TestSharedReads:
    """A read parses each distinct line once: its repeats are one visit,
    which compiles exactly as the lines parsed one by one."""

    @staticmethod
    def write_repeated(tmp_path, granularity, include_null):
        paths = simulate_dataset(small_config(include_null), 12, seed=6)
        lines = [serialize_visit(project_path(p, granularity), granularity) for p in paths]
        # every line again in reverse order, after a blank line
        text = lines + [""] + lines[::-1]
        out = tmp_path / "repeated.jsonl"
        out.write_text("\n".join(text) + "\n")
        return out, lines + lines[::-1]

    @pytest.mark.parametrize("granularity,include_null", GRANULARITY_REGIMES)
    def test_repeats_are_one_visit(self, tmp_path, granularity, include_null):
        out, lines = self.write_repeated(tmp_path, granularity, include_null)
        loaded, g = read_visits(str(out))
        assert g == granularity and len(loaded) == len(lines)
        first = {}
        for line, obs in zip(lines, loaded):
            assert first.setdefault(line, obs) is obs
        assert len({id(obs) for obs in loaded}) == len(first)

    @pytest.mark.parametrize("granularity,include_null", GRANULARITY_REGIMES)
    def test_shared_visits_compile_as_parsed_lines(self, tmp_path, granularity, include_null):
        out, lines = self.write_repeated(tmp_path, granularity, include_null)
        shared = compile_dataset(read_visits(str(out))[0], granularity)
        parsed = compile_dataset([parse_visit(line)[0] for line in lines], granularity)
        assert shared.catalog == parsed.catalog and shared.visits == parsed.visits
        arrays = {k: v for k, v in vars(parsed).items() if isinstance(v, np.ndarray)}
        assert "thinned" in arrays and "coef" in arrays
        for name, value in arrays.items():
            assert np.array_equal(getattr(shared, name), value), name

    def test_repeated_bad_line_reported_at_first(self, tmp_path):
        path = simulate_dataset(small_config(), 1, seed=7)[0]
        good = serialize_visit(project_path(path, "sales"), "sales")
        bad = good.replace('"granularity": "sales"', '"granularity": "sales", "extra": 1')
        f = tmp_path / "bad.jsonl"
        f.write_text("\n".join([good, bad, good, bad]) + "\n")
        with pytest.raises(DataFormatError, match="line 2: unknown fields"):
            read_visits(str(f))


def read_lines(tmp_path, lines):
    """``read_visits`` of a file of ``lines``, each ended by a newline."""
    f = tmp_path / "visits.jsonl"
    f.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return read_visits(str(f))[0]


class TestHeaderHits:
    """A read checks and builds each distinct header (T, assortment,
    stocks) once.  Line 1 of each file here is a valid visit, so where
    line 2's header values equal its own (``true == 1`` and ``1.0 == 1``
    included), line 2's header is a hit, which must be read as strictly
    as a miss."""

    @pytest.mark.parametrize(
        "granularity, change, message",
        STRICT_VALUE_CASES
        + [
            ("sales", {"stocks": {"0": True, "1": 3}}, "stock must be an integer, got True"),
            ("sales", {"assortment": [0, True]}, "product id must be an integer, got True"),
            (
                "transactions-timed",
                {"stocks": {"0": True, "1": 3}},
                "stock must be an integer, got True",
            ),
        ],
    )
    def test_values_read_strictly(self, tmp_path, granularity, change, message):
        lines = [strict_value_record(granularity, {}), strict_value_record(granularity, change)]
        with pytest.raises(DataFormatError, match=f"^line 2: malformed visit record: {message}"):
            read_lines(tmp_path, [json.dumps(r) for r in lines])

    @pytest.mark.parametrize("granularity, change, message", REPEATED_PRODUCT_CASES)
    def test_two_keys_naming_one_product_rejected(self, tmp_path, granularity, change, message):
        lines = [
            repeated_product_record(granularity, {}),
            repeated_product_record(granularity, change),
        ]
        with pytest.raises(DataFormatError, match=f"^line 2: malformed visit record: {message}"):
            read_lines(tmp_path, [json.dumps(r) for r in lines])

    @pytest.mark.parametrize("first", ["integers", "floats"])
    @pytest.mark.parametrize(
        "retyped", [("T",), ("assortment", "stocks", "data"), tuple(INTEGRAL_FLOATS)]
    )
    def test_integral_floats_read_as_integers(self, tmp_path, first, retyped):
        # the same values written as integers and as floats ("T": 1 after
        # 1.0, a stock of 1.0 after 1, and the other way round) read alike
        integers = {
            "T": 1.0,
            "assortment": [0, 1],
            "stocks": {"0": 1, "1": 3},
            "granularity": "sales",
            "data": {"0": 1, "1": 2},
        }
        floats = {**integers, **{k: INTEGRAL_FLOATS[k] for k in retyped}}
        pair = [integers, floats] if first == "integers" else [floats, integers]
        loaded = read_lines(tmp_path, [json.dumps(r) for r in pair])
        assert len(loaded) == 2 and loaded[0] == loaded[1]
        for obs in loaded:
            assert_read_as_integers(obs)

    @pytest.mark.parametrize("granularity,include_null", GRANULARITY_REGIMES)
    def test_shared_header_shares_nothing_mutable(self, tmp_path, granularity, include_null):
        paths = simulate_dataset(small_config(include_null), 40, seed=8)
        lines = [serialize_visit(project_path(p, granularity), granularity) for p in paths]
        loaded = read_lines(tmp_path, lines)
        first = {}
        shared = 0
        for line, obs in zip(lines, loaded):
            header = (obs.horizon, obs.initial_assortment, tuple(obs.stocks.items()))
            first_line, a = first.setdefault(header, (line, obs))
            if first_line == line:
                continue
            # a different line with the same header: one assortment, but
            # each visit its own read-only stocks
            shared += 1
            assert obs.initial_assortment is a.initial_assortment
            assert obs.stocks is not a.stocks and obs.stocks == a.stocks
            for visit in (a, obs):
                with pytest.raises(TypeError):
                    visit.stocks[0] = 99
        assert shared > 0


#: line 1 of each TestHeaderText case, a valid sales visit; line 2 starts
#: with its header text, the part before its first '"data": '
HEAD = '{"T": 1.0, "assortment": [0, 1], "stocks": {"0": 1, "1": 3}, "granularity": "sales", '
FIRST = HEAD + '"data": {"0": 1, "1": 0}}'


def assert_read_as_parsed(tmp_path, lines):
    """``read_visits`` of ``lines`` equals :func:`parse_visit` line by
    line: the same visits with the same header keys, or the same error at
    the first line that ``parse_visit`` refuses."""
    parsed = []
    for i, text in enumerate(lines, start=1):
        try:
            parsed.append(parse_visit(text + "\n", i)[0])
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as refused:
                read_lines(tmp_path, lines)
            assert str(refused.value) == str(exc)
            return str(exc)
    loaded = read_lines(tmp_path, lines)
    assert loaded == parsed
    assert [obs.header_key for obs in loaded] == [obs.header_key for obs in parsed]
    return loaded


class TestHeaderText:
    """A read decodes, checks and builds each distinct header text (what
    comes before a line's first ``"data": ``) once; a line repeating it
    decodes only its data value.  Whatever a line holds, the read equals
    :func:`parse_visit` of each line, which decodes it whole."""

    @pytest.mark.parametrize(
        "first, second, outcome",
        [
            (FIRST, HEAD + '"data": {"0": 0, "1": 1}, "extra": 1}', "line 2: unknown fields"),
            (FIRST, HEAD + '"data": {"0": 1, "1": 0}, "data": {"0": 0, "1": 2}}', None),
            (FIRST, HEAD + '"data": {"0": 0, "1": 1}, "\\u0064ata": {"0": 1, "1": 1}}', None),
            (
                HEAD + '"\\u0064ata": {"0": 0, "1": 2}, "data": {"0": 1, "1": 0}}',
                HEAD + '"\\u0064ata": {"0": 0, "1": 2}, "data": {"0": 0, "1": 3}}',
                None,
            ),
            (
                HEAD + '"x\\"data": 1, "data": {"0": 1, "1": 0}}',
                HEAD + '"x\\"data": 1, "data": {"0": 0, "1": 1}}',
                "line 1: unknown fields",
            ),
            (FIRST, HEAD + '"data": {"0": 0, "1": 1} \t }  ', None),
            (FIRST, HEAD + '"data": {"0": 0, "1": 1}} x', "line 2: invalid JSON: Extra data"),
            (FIRST, HEAD + '"data": {"0": 0, "1": 1}}}', "line 2: invalid JSON: Extra data"),
            (FIRST, HEAD + '"data":  {"0": 0, "1": 1}}', None),
            (FIRST, HEAD + '"data": {"0": 0, "1": 1}', "line 2: invalid JSON"),
            (FIRST, HEAD + '"data": {"0": 1.5, "1": 0}}', "line 2: malformed visit record: sales"),
            (FIRST, HEAD + '"data": {"0": 0, "1": 4}}', "line 2: sales 4 of product 1 outside"),
            (FIRST, HEAD + '"data": {"0": 0, "1": 1,}}', "line 2: invalid JSON"),
            (FIRST, HEAD + '"data": [[0.5, 1]]}', "line 2: malformed visit record"),
        ],
        ids=[
            "key-after-data",
            "data-twice",
            "escaped-data-after",
            "escaped-data-before",
            "quoted-data-key-before",
            "space-before-brace",
            "text-after-brace",
            "brace-after-brace",
            "two-spaces-after-colon",
            "no-brace",
            "bad-value-on-hit",
            "oversold-on-hit",
            "bad-json-on-hit",
            "wrong-kind-on-hit",
        ],
    )
    def test_read_equals_parse_visit(self, tmp_path, first, second, outcome):
        cut = first.index('"data": ')
        assert second[:cut] == first[:cut] and second[cut:].startswith('"data":')
        got = assert_read_as_parsed(tmp_path, [first, second, first])
        if outcome is None:
            assert len(got) == 3
        else:
            assert got.startswith(outcome)

    @pytest.mark.parametrize(
        "second, message",
        [
            ('"data": {"0": 1, "1": 0}}', "line 2: offered product 0 has stock 0"),
            ('"data": {"0": 1.5, "1": 0}}', "line 2: malformed visit record: sales"),
            ('"data": {"0": 1, "1": 0}, "extra": 1}', "line 2: unknown fields"),
        ],
    )
    def test_header_breaking_a_rule_reported_as_parse_visit(self, tmp_path, second, message):
        # a stock of 0 breaks a header rule, which a whole line reports
        # after its data values are read
        head = HEAD.replace('"0": 1, "1": 3', '"0": 0, "1": 3')
        assert assert_read_as_parsed(tmp_path, [FIRST, head + second]).startswith(message)

    @pytest.mark.parametrize("granularity,include_null", GRANULARITY_REGIMES)
    def test_simulated_read_equals_parse_visit(self, tmp_path, granularity, include_null):
        paths = simulate_dataset(small_config(include_null), 300, seed=9)
        lines = [serialize_visit(project_path(p, granularity), granularity) for p in paths]
        heads = {line[: line.index('"data": ')] for line in lines}
        assert len(heads) < len(set(lines))
        loaded = assert_read_as_parsed(tmp_path, lines)
        parsed = [parse_visit(line)[0] for line in lines]
        assert [_group_key(o, granularity) for o in loaded] == [
            _group_key(o, granularity) for o in parsed
        ]

    def test_header_checked_once_per_header_text(self, tmp_path, monkeypatch):
        # the walkaway-timed benchmark's dataset seed 6: 1,057 distinct
        # lines over 16 header texts
        config = replace(
            SECTION7_PRESET,
            weights={a: 0.1 * w for a, w in SECTION7_PRESET.weights.items()},
            rate=20.0,
            stock_level=1,
            include_null=True,
        ).visit_config()
        granularity = "transactions-timed"
        paths = simulate_dataset(config, 1500, seed=6)
        lines = [serialize_visit(project_path(p, granularity), granularity) for p in paths]
        calls = []
        check = types._check_header
        monkeypatch.setattr(
            types, "_check_header", lambda *header: calls.append(header) or check(*header)
        )
        loaded = read_lines(tmp_path, lines)
        heads = {line[: line.index('"data": ')] for line in lines}
        assert len(calls) == len(heads) == 16 and len(set(lines)) == 1057
        # a visit built by its constructor checks its header and keys as
        # the read visit it equals, a horizon of 1 as 1.0
        obs = loaded[0]
        built = TransactionRecord(
            1, obs.initial_assortment, dict(obs.stocks), obs.transactions, True
        )
        assert len(calls) == 17 and built == obs
        assert _group_key(built, granularity) == _group_key(obs, granularity)

    def test_assortment_built_once_per_read(self, tmp_path, monkeypatch):
        # every line its own header text, as with varied horizons, over a
        # few assortments: each is built once and shared by its visits
        paths = simulate_dataset(small_config(), 200, seed=11)
        lines = [
            serialize_visit(project_path(p, "sales"), "sales").replace(
                '"T": 1.0', f'"T": {1 + i / 1000}'
            )
            for i, p in enumerate(paths)
        ]
        assert len({line[: line.index('"data": ')] for line in lines}) == 200
        assert_read_as_parsed(tmp_path, lines)
        built = []
        monkeypatch.setattr(
            sd_io, "Assortment", lambda *fields: built.append(fields) or Assortment(*fields)
        )
        loaded = read_lines(tmp_path, lines)
        shared = {o.initial_assortment.products: o.initial_assortment for o in loaded}
        assert len(built) == len(set(built)) == len(shared) < 200
        assert all(o.initial_assortment is shared[o.initial_assortment.products] for o in loaded)

    @pytest.mark.parametrize("granularity,include_null", [("complete", True), ("sales", True)])
    def test_built_visit_joins_the_read_visits_group(self, tmp_path, granularity, include_null):
        paths = simulate_dataset(small_config(include_null), 60, seed=10)
        lines = [serialize_visit(project_path(p, granularity), granularity) for p in paths]
        loaded = read_lines(tmp_path, lines)
        obs = loaded[0]
        built = parse_visit(lines[0])[0]
        assert built == obs and built is not obs and "header_key" not in vars(built)
        joined = compile_dataset(loaded + [built], granularity)
        repeated = compile_dataset(loaded + [obs], granularity)
        for name, value in vars(repeated).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(joined, name), value), name


class TestScanner:
    """A line is decoded by json's C scanner, which must accept exactly
    what ``json.loads`` accepts: JSON whitespace is only space, tab,
    newline and carriage return, while ``str.isspace`` also matches
    "\u00a0" and "\u2028"."""

    LINE = json.dumps(strict_value_record("transactions-timed", {"data": [[0.5, 1]]}))

    @pytest.mark.parametrize(
        "text",
        [
            LINE + "\u00a0",
            LINE + "\u2028",
            "\u00a0" + LINE,
            LINE + " " + LINE,
            LINE + "x",
            "\ufeff" + LINE,
            LINE[:-1],
        ],
        ids=[
            "trailing-nbsp",
            "trailing-u2028",
            "leading-nbsp",
            "two-objects",
            "trailing-text",
            "bom",
            "cut",
        ],
    )
    def test_what_json_refuses_is_refused(self, tmp_path, text):
        with pytest.raises(json.JSONDecodeError) as refused:
            json.loads(text + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_lines(tmp_path, [text])
        assert str(exc.value) == f"line 1: invalid JSON: {refused.value}"

    @pytest.mark.parametrize(
        "text",
        ["   " + LINE, "\t" + LINE, LINE + " \t ", "\t " + LINE + "  "],
        ids=["leading-spaces", "leading-tab", "trailing-blanks", "both"],
    )
    def test_what_json_accepts_is_accepted(self, tmp_path, text):
        (obs,) = read_lines(tmp_path, [text])
        assert obs == parse_visit(self.LINE)[0]
        assert serialize_visit(obs, "transactions-timed") == self.LINE

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028"], ids=["nbsp", "u2028"])
    def test_line_of_unicode_space_is_not_blank(self, tmp_path, space):
        # str.strip() would empty this line and skip it; JSON refuses it
        with pytest.raises(json.JSONDecodeError) as refused:
            json.loads(space + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_lines(tmp_path, [self.LINE, space, self.LINE])
        assert str(exc.value) == f"line 2: invalid JSON: {refused.value}"

    @pytest.mark.parametrize(
        "granularity, time, message",
        [
            ("transactions-timed", "NaN", "transaction 1: time nan outside"),
            ("transactions-timed", "Infinity", "transaction 1: time inf outside"),
            ("transactions-timed", "-Infinity", "transaction 1: time -inf outside"),
            ("complete", "NaN", "event 1: time nan outside"),
        ],
    )
    def test_non_finite_times_refused_by_the_visit(self, tmp_path, granularity, time, message):
        # json reads NaN and Infinity as floats; the visit refuses them
        line = json.dumps(strict_value_record(granularity, {"data": [[0.5, 1]]}))
        line = line.replace("0.5", time)
        assert time in line
        with pytest.raises(DataFormatError, match=f"^line 1: {message}"):
            read_lines(tmp_path, [line])


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

    @pytest.mark.parametrize("granularity, change, message", STRICT_VALUE_CASES)
    def test_values_read_strictly(self, granularity, change, message):
        # a cast would read a stock of 1.5 as 1, T = "1" as 1.0 and a time
        # of "0.5" as 0.5; stocks given as a list are malformed, not a crash
        record = strict_value_record(granularity, change)
        with pytest.raises(DataFormatError, match=f"line 5: malformed visit record: {message}"):
            parse_visit(json.dumps(record), 5)

    @pytest.mark.parametrize("granularity, change, message", REPEATED_PRODUCT_CASES)
    def test_two_keys_naming_one_product_rejected(self, granularity, change, message):
        # int() reads "1", "01", " 1" and "+1" alike, so the last key would
        # silently win: a stock of 3, or no sales for the two units sold
        record = repeated_product_record(granularity, change)
        with pytest.raises(DataFormatError, match=f"line 4: malformed visit record: {message}"):
            parse_visit(json.dumps(record), 4)

    def test_integral_floats_read_as_integers(self):
        obs, _ = parse_visit(json.dumps(INTEGRAL_FLOATS), 1)
        assert_read_as_integers(obs)

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
            ("catalog", [0.5, 1]),
            ("always_available", [1.9]),
        ],
    )
    def test_counts_must_be_integral(self, field, value):
        # int() used to truncate 2.5 visits to 2 and 1.9 units to 1
        raw = {"catalog": [0], "weights": {"0": 1.0}, "rate": 1.0, field: value}
        with pytest.raises(DataFormatError, match=f"{field}.* must be an integer"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("horizon", True, "horizon must be a number, got True"),
            ("rate", True, "rate must be a number, got True"),
            ("rate", "3", "rate must be a number, got '3'"),
            ("offer_probability", "0.5", "offer_probability must be a number, got '0.5'"),
            ("weights", {"0": True, "1": 0.5}, "weights of product 0 must be a number, got True"),
        ],
    )
    def test_values_must_be_json_numbers(self, field, value, message):
        # a cast would read true as 1.0 and "3" as 3.0
        raw = {"catalog": [0, 1], "weights": {"0": 1.0, "1": 0.5}, "rate": 1.0, field: value}
        with pytest.raises(DataFormatError, match=message):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("catalog", [0, 1, 1], r"catalog lists products \[1\] more than once"),
            ("always_available", [0, 0], r"always_available lists products \[0\] more than once"),
        ],
    )
    def test_repeated_product_rejected(self, field, value, message):
        raw = {"catalog": [0, 1], "weights": {"0": 1.0, "1": 0.5}, "rate": 1.0, field: value}
        with pytest.raises(DataFormatError, match=message):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "field, value",
        [("weights", {"0": 1.0, "1": 0.5, "01": 9.0}), ("stocks", {"1": 2, "01": 3})],
    )
    def test_two_keys_naming_one_product_rejected(self, field, value):
        raw = {"catalog": [0, 1], "weights": {"0": 1.0, "1": 0.5}, "rate": 1.0, field: value}
        with pytest.raises(DataFormatError, match=f"{field} names product 1 more than once"):
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
