"""File formats: JSONL visit records, run configs, fit-result JSON.

Visit files hold one JSON object per line with exactly the keys ``T``,
``assortment``, ``stocks``, ``granularity``, ``data``; unknown keys are
rejected with the offending line number.  Serialization is canonical
(fixed key order, shortest round-trip numbers), so parse → re-serialize
is byte-identical.
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
    InvalidObservation,
    ModelParams,
    SalesSummary,
    TransactionRecord,
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
    """A config count: a JSON number of integral value, not a boolean."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise DataFormatError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
            catalog = tuple(int(a) for a in raw["catalog"])
            weights = {int(a): float(w) for a, w in raw["weights"].items()}
            kwargs = dict(
                catalog=catalog,
                weights=weights,
                rate=float(raw["rate"]),
            )
            for key in ("horizon", "offer_probability"):
                if key in raw:
                    kwargs[key] = float(raw[key])
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
                kwargs["always_available"] = tuple(int(a) for a in raw["always_available"])
            if "stocks" in raw:
                kwargs["stocks"] = {
                    int(a): _integer(s, f"stocks of product {a}")
                    for a, s in raw["stocks"].items()
                }
        except DataFormatError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise DataFormatError(f"malformed config value: {exc}") from exc
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


def project_path(path: CompletePath, granularity: str) -> Observation:
    """Reduce a complete path to the requested observation granularity."""
    from .types import project_sales, project_transactions

    if granularity == "complete":
        return path
    if granularity == "transactions-timed":
        return project_transactions(path, keep_times=True)
    if granularity == "transactions":
        return project_transactions(path, keep_times=False)
    if granularity in ("sales", "sales-no-null"):
        summary = project_sales(path)
        want_null = granularity == "sales"
        if summary.initial_assortment.includes_null != want_null:
            raise InvalidObservation(
                f"visit regime does not match granularity {granularity!r}"
            )
        return summary
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
    """One canonical JSON line for one visit."""
    record = {
        "T": obs.horizon,
        "assortment": list(obs.initial_assortment.products),
        "stocks": {str(a): obs.stocks[a] for a in obs.initial_assortment.products},
        "granularity": granularity,
        "data": _payload(obs, granularity),
    }
    return json.dumps(record, separators=(", ", ": "))


def parse_visit(text: str, line: int = 0) -> Tuple[Observation, str]:
    """Parse one JSONL visit line; returns the observation and granularity."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}", line)
    if not isinstance(raw, dict):
        raise DataFormatError("visit record must be a JSON object", line)
    unknown = set(raw) - _VISIT_KEYS
    if unknown:
        raise DataFormatError(f"unknown fields {sorted(unknown)}", line)
    missing = _VISIT_KEYS - set(raw)
    if missing:
        raise DataFormatError(f"missing fields {sorted(missing)}", line)
    granularity = raw["granularity"]
    if granularity not in GRANULARITIES:
        raise DataFormatError(f"unknown granularity {granularity!r}", line)
    try:
        horizon = float(raw["T"])
        products = tuple(int(a) for a in raw["assortment"])
        stocks = {int(a): int(s) for a, s in raw["stocks"].items()}
        assortment = Assortment(products, granularity != "sales-no-null")
        data = raw["data"]
        obs: Observation
        if granularity == "complete":
            events = tuple(
                (float(t), None if c is None else int(c)) for t, c in data
            )
            obs = CompletePath(horizon, assortment, stocks, events)
        elif granularity == "transactions-timed":
            obs = TransactionRecord(
                horizon,
                assortment,
                stocks,
                tuple((float(t), int(p)) for t, p in data),
                timestamps_present=True,
            )
        elif granularity == "transactions":
            obs = TransactionRecord(
                horizon,
                assortment,
                stocks,
                tuple((None, int(p)) for p in data),
                timestamps_present=False,
            )
        else:
            obs = SalesSummary(
                horizon,
                assortment,
                stocks,
                {int(a): int(z) for a, z in data.items()},
            )
    except (TypeError, ValueError, KeyError, InvalidObservation) as exc:
        raise DataFormatError(f"malformed visit record: {exc}", line)
    try:
        obs.validate()
    except InvalidObservation as exc:
        raise DataFormatError(str(exc), line)
    return obs, granularity


def write_visits(path: str, observations: Iterable[Observation], granularity: str) -> int:
    count = 0
    with open(path, "w") as handle:
        for obs in observations:
            handle.write(serialize_visit(obs, granularity) + "\n")
            count += 1
    return count


def read_visits(path: str, granularity: Optional[str] = None) -> Tuple[List[Observation], str]:
    """Read a JSONL visit file; returns observations and their granularity.

    The file must be granularity-homogeneous; if ``granularity`` is given,
    the file must match it.
    """
    observations: List[Observation] = []
    seen: Optional[str] = None
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            obs, g = parse_visit(line, line_no)
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
