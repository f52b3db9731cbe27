"""File formats: JSONL visit records, run configs, fit-result JSON.

Visit files hold one JSON object per line with exactly the keys ``T``,
``assortment``, ``stocks``, ``granularity``, ``data``; unknown keys are
rejected with the offending line number.  A line's null regime is its
granularity's (see :func:`offers_null`), so :func:`serialize_visit`
refuses a visit in the other regime.  Serialization is canonical (fixed
key order, shortest round-trip numbers), so parse → re-serialize is
byte-identical.  Coarse records repeat often (the same assortment, stocks
and sales, or no purchase at all), so a read parses each distinct line
once and its repeats share that one read-only visit.  A worker restocks
to the same levels at each visit, so distinct lines repeat a few headers
(``T``, assortment, stocks).  A line's header text is what comes before
its first ``"data": ``; a read decodes, checks and builds each distinct
header text once, and a line that repeats it decodes only its data value
and builds its visit on that checked header, running only the data's
rules.  A hit is exact: where the line's data value ends the object, the
line decodes as its header text with ``0}`` after it does, with the data
value in place of the ``0`` (see :func:`_parse_visit`), and any other
line is read whole by :func:`parse_visit`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .estimation import GRANULARITIES, FitResult, Observation
from .simulate import VisitConfig
from .types import (
    Assortment,
    CompletePath,
    Header,
    InvalidObservation,
    ModelParams,
    SalesSummary,
    TransactionRecord,
    checked_header,
)

__all__ = [
    "DataFormatError",
    "RunConfig",
    "SECTION7_PRESET",
    "serialize_visit",
    "parse_visit",
    "write_visits",
    "read_visits",
    "project_path",
    "offers_null",
    "fit_result_json",
]


class DataFormatError(ValueError):
    """Malformed input file; carries a line number when applicable."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# run configuration


def _integer(value, name: str) -> int:
    """A count or a product id: a JSON number of integral value (``2.0``
    is 2), not a boolean or a string."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise DataFormatError(f"{name} must be an integer, got {value!r}")


def _repeated_product(raw: Mapping, name: str) -> DataFormatError:
    """The error for the field ``name``, whose mapping ``raw`` came out
    shorter with its keys read as product ids by ``int``: two of them name
    one product ("1" and "01", say), and the error names it.  Callers
    compare the two lengths, which costs a line next to nothing."""
    ids = [int(a) for a in raw]
    repeated = next(a for a in ids if ids.count(a) > 1)
    return DataFormatError(f"{name} names product {repeated} more than once")


def _real(value, name: str) -> float:
    """A time, horizon, rate, probability or weight: a JSON number, not a
    boolean or a string.  Its range is checked where it is used."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise DataFormatError(f"{name} must be a number, got {value!r}")


_CONFIG_KEYS = {
    "catalog",
    "weights",
    "rate",
    "horizon",
    "always_available",
    "offer_probability",
    "stock_level",
    "stocks",
    "include_null",
    "visits",
    "seed",
}


@dataclass(frozen=True)
class RunConfig:
    """Simulation / estimation settings, loadable from JSON."""

    catalog: Tuple[int, ...]
    weights: Dict[int, float]
    rate: float
    horizon: float = 1.0
    always_available: Tuple[int, ...] = ()
    offer_probability: float = 1.0
    stock_level: int = 1
    stocks: Dict[int, int] = field(default_factory=dict)
    include_null: bool = True
    visits: int = 1000
    seed: int = 0

    def params(self) -> ModelParams:
        return ModelParams(rate=self.rate, weights=dict(self.weights))

    def visit_config(self) -> VisitConfig:
        return VisitConfig(
            horizon=self.horizon,
            params=self.params(),
            always_available=self.always_available,
            optional_products=tuple(
                a for a in self.catalog if a not in self.always_available
            ),
            offer_probability=self.offer_probability,
            stock_level=self.stock_level,
            include_null=self.include_null,
            stock_overrides=dict(self.stocks),
        )

    @staticmethod
    def from_dict(raw: Mapping) -> "RunConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise DataFormatError(f"unknown config fields {sorted(unknown)}")
        missing = {"catalog", "weights", "rate"} - set(raw)
        if missing:
            raise DataFormatError(f"missing config fields {sorted(missing)}")
        try:
            catalog = tuple(_integer(a, "catalog product") for a in raw["catalog"])
            weights = {
                int(a): _real(w, f"weights of product {a}") for a, w in raw["weights"].items()
            }
            if len(weights) < len(raw["weights"]):
                raise _repeated_product(raw["weights"], "weights")
            kwargs = dict(
                catalog=catalog,
                weights=weights,
                rate=_real(raw["rate"], "rate"),
            )
            for key in ("horizon", "offer_probability"):
                if key in raw:
                    kwargs[key] = _real(raw[key], key)
            for key in ("stock_level", "visits", "seed"):
                if key in raw:
                    kwargs[key] = _integer(raw[key], key)
            if "include_null" in raw:
                if not isinstance(raw["include_null"], bool):
                    raise DataFormatError(
                        f"include_null must be true or false, got {raw['include_null']!r}"
                    )
                kwargs["include_null"] = raw["include_null"]
            if "always_available" in raw:
                kwargs["always_available"] = tuple(
                    _integer(a, "always_available product") for a in raw["always_available"]
                )
            if "stocks" in raw:
                kwargs["stocks"] = {
                    int(a): _integer(s, f"stocks of product {a}")
                    for a, s in raw["stocks"].items()
                }
                if len(kwargs["stocks"]) < len(raw["stocks"]):
                    raise _repeated_product(raw["stocks"], "stocks")
        except DataFormatError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise DataFormatError(f"malformed config value: {exc}") from exc
        for key in ("catalog", "always_available"):
            products = kwargs.get(key, ())
            repeated = sorted({a for a in products if products.count(a) > 1})
            if repeated:
                raise DataFormatError(f"{key} lists products {repeated} more than once")
        if set(weights) != set(catalog):
            raise DataFormatError("weights must cover exactly the catalog")
        for key in ("always_available", "stocks"):
            outside = sorted(set(kwargs.get(key, ())) - set(catalog))
            if outside:
                raise DataFormatError(f"{key} names products {outside} outside the catalog")
        unlimited = sorted(set(kwargs.get("stocks", ())) & set(kwargs.get("always_available", ())))
        if unlimited:
            raise DataFormatError(
                f"stocks names always_available products {unlimited}, whose stock is unlimited"
            )
        for a, stock in kwargs.get("stocks", {}).items():
            if stock < 1:
                raise DataFormatError(f"product {a} has stock {stock}")
        config = RunConfig(**kwargs)
        if config.stock_level < 1:
            raise DataFormatError(f"stock_level must be >= 1, got {config.stock_level}")
        for key in ("visits", "seed"):
            value = getattr(config, key)
            if value < 0:
                raise DataFormatError(f"{key} must be non-negative, got {value}")
        if not (math.isfinite(config.horizon) and config.horizon > 0):
            raise DataFormatError(f"horizon must be finite and positive, got {config.horizon}")
        # a NaN fails both comparisons
        if not 0.0 <= config.offer_probability <= 1.0:
            raise DataFormatError(
                f"offer_probability must lie in [0, 1], got {config.offer_probability}"
            )
        return config

    @staticmethod
    def load(path: str) -> "RunConfig":
        with open(path) as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"invalid JSON in config: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataFormatError("config must be a JSON object")
        return RunConfig.from_dict(raw)


#: the simulation setup used throughout the numerical experiments: five
#: products, one always available, the rest offered independently with
#: probability 0.6 at stock 3, arrival rate 6 per unit-length visit, and
#: no null option (every arrival buys something)
SECTION7_PRESET = RunConfig(
    catalog=(0, 1, 2, 3, 4),
    weights={0: 0.25, 1: 0.05, 2: 0.1, 3: 0.2, 4: 0.4},
    rate=6.0,
    horizon=1.0,
    always_available=(0,),
    offer_probability=0.6,
    stock_level=3,
    include_null=False,
    visits=2000,
    seed=0,
)


# ---------------------------------------------------------------------------
# visit records

_VISIT_KEYS = {"T", "assortment", "stocks", "granularity", "data"}


def offers_null(granularity: str) -> bool:
    """Whether a visit line at ``granularity`` offers the null option: all
    but ``sales-no-null`` do, as a line states no regime of its own."""
    return granularity != "sales-no-null"


def project_path(path: CompletePath, granularity: str) -> Observation:
    """Reduce a complete path to the requested observation granularity, in
    its own regime, which the line writer may refuse."""
    from .types import project_sales, project_transactions

    if granularity == "complete":
        return path
    if granularity == "transactions-timed":
        return project_transactions(path, keep_times=True)
    if granularity == "transactions":
        return project_transactions(path, keep_times=False)
    if granularity in ("sales", "sales-no-null"):
        return project_sales(path)
    raise ValueError(f"unknown granularity {granularity!r}")


def _payload(obs: Observation, granularity: str):
    if granularity == "complete":
        return [[t, c] for t, c in obs.events]
    if granularity == "transactions-timed":
        return [[t, p] for t, p in obs.transactions]
    if granularity == "transactions":
        return list(obs.products)
    return {str(a): obs.sales.get(a, 0) for a in obs.initial_assortment.products}


def serialize_visit(obs: Observation, granularity: str) -> str:
    """One canonical JSON line for one visit; a visit that would read back
    in the other regime (see :func:`offers_null`) raises InvalidObservation."""
    if obs.initial_assortment.includes_null != offers_null(granularity):
        raise InvalidObservation(f"regime does not match granularity {granularity!r}")
    record = {
        "T": obs.horizon,
        "assortment": list(obs.initial_assortment.products),
        "stocks": {str(a): obs.stocks[a] for a in obs.initial_assortment.products},
        "granularity": granularity,
        "data": _payload(obs, granularity),
    }
    return json.dumps(record, separators=(", ", ": "))


#: JSON's whitespace: ``str.strip()`` with no argument would also strip
#: "\u00a0" and "\u2028", which json.loads refuses after a value
_JSON_SPACE = " \t\n\r"
#: what opens the data value in a written line; a line's header text is
#: what comes before it
_DATA = '"data": '
_scan_once = json.JSONDecoder().scan_once


def _decode(text: str):
    """``json.loads(text)``, by its C scanner alone when the value starts at
    the first character and only JSON whitespace follows it; on a short
    line json.loads's Python wrapper costs half as much as the scan.  Any
    other text goes through json.loads, which gives its reading or error."""
    try:
        raw, end = _scan_once(text, 0)
    except (StopIteration, TypeError):  # no value at 0 (whitespace, BOM), or bytes
        return json.loads(text)
    if text[end:].strip(_JSON_SPACE):
        return json.loads(text)  # raises "Extra data" where the value ends
    return raw


def _header(
    raw: dict, granularity: str, assortments: Dict[tuple, Assortment]
) -> Tuple[float, Assortment, dict]:
    """The visit's horizon, assortment and stocks, read strictly from its
    ``T``, ``assortment`` and ``stocks``.  The assortment is the one in
    ``assortments`` with its fields ``(products, includes_null)``, built
    and kept there if it is new."""
    horizon = _real(raw["T"], "T")
    fields = (
        tuple(_integer(a, "product id") for a in raw["assortment"]),
        offers_null(granularity),
    )
    stocks = {int(a): _integer(s, "stock") for a, s in raw["stocks"].items()}
    if len(stocks) < len(raw["stocks"]):
        raise _repeated_product(raw["stocks"], "stocks")
    assortment = assortments.get(fields)
    if assortment is None:
        assortment = assortments[fields] = Assortment(*fields)
    return horizon, assortment, stocks


def _body(granularity: str, data) -> Tuple[type, dict]:
    """The visit class of ``granularity`` and its fields after ``stocks``,
    by name, each read strictly, by one reading, from the visit's ``data``."""
    if granularity == "complete":
        events = tuple(
            (_real(t, "time"), None if c is None else _integer(c, "choice")) for t, c in data
        )
        return CompletePath, {"events": events}
    if granularity == "transactions-timed":
        purchases = tuple((_real(t, "time"), _integer(p, "product id")) for t, p in data)
        return TransactionRecord, {"transactions": purchases, "timestamps_present": True}
    if granularity == "transactions":
        purchases = tuple((None, _integer(p, "product id")) for p in data)
        return TransactionRecord, {"transactions": purchases, "timestamps_present": False}
    sales = {int(a): _integer(z, "sales") for a, z in data.items()}
    if len(sales) < len(data):
        raise _repeated_product(data, "data")
    return SalesSummary, {"sales": sales}


#: what a visit's strict reading and its rules raise
_READ_ERRORS = (TypeError, ValueError, AttributeError)


def _refusal(exc: Exception, line: int) -> DataFormatError:
    """The error for a visit value that fails its strict reading or its
    visit's rules: the broken rule is the message."""
    if isinstance(exc, InvalidObservation):
        return DataFormatError(str(exc), line)
    return DataFormatError(f"malformed visit record: {exc}", line)


def parse_visit(text: str, line: int = 0) -> Tuple[Observation, str]:
    """Parse one JSONL visit line; returns the observation and granularity.

    The line is decoded whole, its values are read strictly (a stock of
    1.5 or a time of "0.5" is an error rather than 1 or 0.5), and the visit
    is built by its public constructor, which checks every rule, so a
    visit the process could not produce is refused with its broken rule as
    the message.  Where a line breaks several rules, the first of the keys,
    the granularity, the header's values, the data's values, the header's
    rules and the data's rules is reported.
    """
    try:
        raw = _decode(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}", line)
    if not isinstance(raw, dict):
        raise DataFormatError("visit record must be a JSON object", line)
    if raw.keys() != _VISIT_KEYS:
        unknown = set(raw) - _VISIT_KEYS
        if unknown:
            raise DataFormatError(f"unknown fields {sorted(unknown)}", line)
        missing = _VISIT_KEYS - set(raw)
        raise DataFormatError(f"missing fields {sorted(missing)}", line)
    granularity = raw["granularity"]
    if granularity not in GRANULARITIES:
        raise DataFormatError(f"unknown granularity {granularity!r}", line)
    try:
        horizon, assortment, stocks = _header(raw, granularity, {})
        kind, body = _body(granularity, raw["data"])
        return kind(horizon, assortment, stocks, **body), granularity
    except _READ_ERRORS as exc:
        raise _refusal(exc, line)


def _decode_header(
    text: str, assortments: Dict[tuple, Assortment]
) -> Optional[Tuple[str, Header]]:
    """The granularity and checked header of ``text``, a line's header
    text followed by ``"data": 0}``; None unless it decodes to a visit
    object of exactly the visit keys whose granularity, header values and
    header rules all pass.  Its assortment is shared through
    ``assortments`` (see :func:`_header`)."""
    try:
        raw = _decode(text)
        if type(raw) is dict and raw.keys() == _VISIT_KEYS:
            granularity = raw["granularity"]
            if granularity in GRANULARITIES:
                header = _header(raw, granularity, assortments)
                return granularity, checked_header(*header)
    except _READ_ERRORS:  # json's errors and InvalidObservation are ValueErrors
        pass
    return None


def _parse_visit(
    text: str,
    line: int,
    headers: Dict[str, Tuple[str, Header]],
    assortments: Dict[tuple, Assortment],
):
    """:func:`parse_visit` of ``text``, reading its header text (what comes
    before its first ``"data": ``, the cut) once per read: ``headers`` maps
    each header text the read has checked to its granularity and
    :data:`~stockout_demand.types.Header`, and ``assortments`` each
    assortment the read has built to its fields (see :func:`_header`).

    A line takes this path when a data value starts right after the cut's
    ``"data": `` and only JSON whitespace and the closing ``}`` follow it.
    A new header text is decoded with ``"data": 0}`` after it, checked as
    :func:`parse_visit` checks a line, and kept only if it passes; on a
    hit, the data value is the only part decoded.

    A hit is exact.  The kept decode ends with ``"data": 0}``, so that
    ``0`` is the value of the top-level object's last member, whose key
    ends with the ``data"`` after the cut.  That key is one of the five
    visit keys, so it is ``"data"`` itself, opening at the cut: were the
    cut's quote escaped inside a longer string, the key would end in
    ``data`` but be longer, and no other visit key does.  So the decoder
    reaches the cut expecting a member key, after the header text's
    members, in every line with that header text, and such a line decodes
    to those members and its data value, which ends the object (a key given
    twice keeps its last value in both).

    Any line or header text this path does not take is read whole by
    :func:`parse_visit`, which raises its error: a header that breaks a
    rule is reported after the data's values are read, as in a whole line.
    """
    cut = text.find(_DATA)
    if cut >= 0:
        start = cut + len(_DATA)
        try:
            data, end = _scan_once(text, start)
        except (StopIteration, ValueError):  # no value there, or a bad one
            end = -1
        if end >= 0 and text[end:].strip(_JSON_SPACE) == "}":
            head = text[:cut]
            header = headers.get(head)
            if header is None:
                header = _decode_header(text[:start] + "0}", assortments)
                if header is not None:
                    headers[head] = header
            if header is not None:
                granularity, checked = header
                try:
                    kind, body = _body(granularity, data)
                    return kind.on_header(checked, body), granularity
                except _READ_ERRORS as exc:
                    raise _refusal(exc, line)
    return parse_visit(text, line)


def write_visits(path: str, observations: Iterable[Observation], granularity: str) -> int:
    """Write one :func:`serialize_visit` line per visit; returns the count.

    Every visit is serialized before the file is opened, so a visit the
    line writer refuses (one in the other regime, see :func:`offers_null`)
    raises :class:`InvalidObservation`, naming the visit by its place, and
    leaves no file."""
    lines = []
    for i, obs in enumerate(observations, start=1):
        try:
            lines.append(serialize_visit(obs, granularity) + "\n")
        except InvalidObservation as exc:
            raise InvalidObservation(f"visit {i}: {exc}") from None
    with open(path, "w") as handle:
        handle.writelines(lines)
    return len(lines)


def read_visits(path: str, granularity: Optional[str] = None) -> Tuple[List[Observation], str]:
    """Read a JSONL visit file; returns observations and their granularity.

    The file must be granularity-homogeneous; if ``granularity`` is given,
    the file must match it.  A line of JSON whitespace alone is skipped; a
    line holding any other character (``"\u00a0"`` say) is read, and
    refused.  Each distinct line is parsed once per call: its repeats are
    the same visit object, and a bad line is reported at its first
    occurrence.  Each distinct header text is decoded, checked and built
    once per call (see :func:`_parse_visit`): the visits on it share its
    assortment and its group key's header part, each with its own
    read-only stocks.  Each distinct assortment is built once per call,
    and shared by the header texts that offer it.  The visits and errors
    are those of :func:`parse_visit` line by line.
    """
    observations: List[Observation] = []
    parsed: Dict[str, Tuple[Observation, str]] = {}
    headers: dict = {}
    assortments: dict = {}
    seen: Optional[str] = None
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip(_JSON_SPACE):
                continue
            visit = parsed.get(line)
            if visit is None:
                visit = parsed[line] = _parse_visit(line, line_no, headers, assortments)
            obs, g = visit
            if seen is None:
                seen = g
            elif g != seen:
                raise DataFormatError(
                    f"granularity {g!r} differs from earlier {seen!r}", line_no
                )
            if granularity is not None and g != granularity:
                raise DataFormatError(
                    f"granularity {g!r} does not match requested {granularity!r}",
                    line_no,
                )
            observations.append(obs)
    return observations, (seen or granularity or "sales")


def fit_result_json(result: FitResult, extra: Optional[Mapping] = None) -> str:
    """Canonical FitResult JSON (probability keys: product ids + "null")."""
    payload = {
        "lambda_hat": result.params.rate,
        "weights": {str(a): w for a, w in sorted(result.params.weights.items())},
        "probabilities": {
            ("null" if a is None else str(a)): p
            for a, p in sorted(
                result.probabilities.items(), key=lambda kv: (kv[0] is None, kv[0])
            )
        },
        "loglik": result.loglik,
        "iterations": result.iterations,
        "converged": result.converged,
        "saa_samples": result.saa_samples,
        "seed": result.seed,
        "message": result.message,
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=False)
