"""In-memory spans around the package's entry points, for the traced run.

:func:`installed` replaces each traced name where its caller looks it up
(for example ``cli.fit``, which ``cmd_estimate`` calls, or
``TruncationPolicy.resolve`` on the class) with a wrapper that records a
span, and puts every original back when the block exits, also on error.
The package itself is not edited.

A span is ``[name, start, end, parent, fit]``: ``parent`` is the index of
the enclosing span (``-1`` for none) and ``fit`` the id of the fit it
belongs to (``None`` during set-up).  Spans stay in memory until
:meth:`Tracer.dump` writes them out once.  A span's self time is its
duration minus the durations of its direct children; children never
overlap, because everything runs on one thread.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from stockout_demand import cli, combinatorics, estimation, likelihood

#: the root span of each fit: the benchmark's own ``cli.main`` call
FIT_SPAN = "cli.estimate"


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.compiles: List[Dict[str, float]] = []
        self.fit: Optional[int] = None
        self._open: List[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.fit])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextmanager
    def fit_span(self, fit_id: int) -> Iterator[None]:
        """Root span of one fit; spans opened inside carry ``fit_id``."""
        self.fit = fit_id
        try:
            with self.span(FIT_SPAN):
                yield
        finally:
            self.fit = None

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, over the spans
        of every fit (set-up spans excluded)."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span[4] is None:
                continue
            row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += own
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "fit")
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [dict(zip(keys, s)) for s in self.spans],
                    "counts": self.counts,
                    "compiles": self.compiles,
                },
                handle,
            )


def compiled_stats(ds: "estimation.CompiledDataset") -> Dict[str, float]:
    """Sizes of a compiled dataset; ``compiled_bytes`` is computed from the
    NumPy arrays it holds, timed tables included, not measured."""
    arrays = [v for v in vars(ds).values() if isinstance(v, np.ndarray)]
    arrays += [c for c in ds._timed_cols]
    for table, _ in ds._timed:
        arrays += [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    return {
        "groups": len(ds.counts) + len(ds._timed),
        "terms": int(ds.n.size),
        "assortments": int(ds.n_assort),
        "timed_tables": len(ds._timed),
        "compiled_bytes": int(sum(a.nbytes for a in arrays)),
        "visits": int(ds.visits),
    }


def _spanned(
    tracer: Tracer, name: str, original: Callable, after: Optional[Callable] = None
) -> Callable:
    """``original`` inside a span; ``after(args, kwargs, result)`` runs
    outside the span, so its cost is not charged to the layer."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _counted_draws(tracer: Tracer, original: Callable) -> Callable:
    """Count candidate vectors drawn and how many were feasible."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        for vector, feasible in original(*args, **kwargs):
            tracer.count("draws")
            if feasible:
                tracer.count("feasible")
            yield vector, feasible

    return wrapper


def traced_names() -> List[tuple]:
    """``(owner, attribute)`` of every name :func:`installed` replaces."""
    names = [
        (cli, "read_visits"),
        (cli, "fit"),
        (cli, "fit_naive"),
        (estimation, "compile_dataset"),
        (estimation, "minimize"),
        (estimation.CompiledDataset, "loglik_grad"),
        (likelihood.TruncationPolicy, "resolve"),
        (likelihood, "sample_stockout_vectors"),
        (combinatorics, "raw_stockout_draws"),
    ]
    names += [
        (estimation, attr) for attr in sorted(vars(estimation)) if attr.startswith("table_")
    ]
    return names


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every name of :func:`traced_names` for the block's duration."""

    def read_bytes(args, kwargs, result):
        tracer.count("bytes_read", Path(args[0]).stat().st_size)

    def resolved(args, kwargs, m):
        tracer.counts["m_max"] = max(tracer.counts.get("m_max", 0), m)

    def solved(args, kwargs, result):
        x0 = args[1] if len(args) > 1 else kwargs["x0"]
        if not np.any(x0):
            tracer.count("inner_restarts")

    def compiled(args, kwargs, ds):
        tracer.compiles.append(dict(compiled_stats(ds), fit=tracer.fit))

    wrappers = {
        (cli, "read_visits"): lambda f: _spanned(tracer, "io.read_visits", f, read_bytes),
        (cli, "fit"): lambda f: _spanned(tracer, "estimation.fit", f),
        (cli, "fit_naive"): lambda f: _spanned(tracer, "estimation.fit", f),
        (estimation, "compile_dataset"): lambda f: _spanned(
            tracer, "estimation.compile_dataset", f, compiled
        ),
        (estimation, "minimize"): lambda f: _spanned(tracer, "estimation.minimize", f, solved),
        (estimation.CompiledDataset, "loglik_grad"): lambda f: _spanned(
            tracer, "estimation.loglik_grad", f
        ),
        (likelihood.TruncationPolicy, "resolve"): lambda f: _spanned(
            tracer, "likelihood.resolve", f, resolved
        ),
        (likelihood, "sample_stockout_vectors"): lambda f: _spanned(
            tracer, "combinatorics.sample", f
        ),
        (combinatorics, "raw_stockout_draws"): lambda f: _counted_draws(tracer, f),
    }
    restore = []
    try:
        for owner, attr in traced_names():
            original = vars(owner)[attr]
            make = wrappers.get((owner, attr))
            if make is None:  # the estimation.table_* builders
                make = lambda f: _spanned(tracer, "likelihood.table_build", f)
            setattr(owner, attr, make(original))
            restore.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
