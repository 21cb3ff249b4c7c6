"""Per-layer measurement: in-memory spans around wrapped public calls.

:class:`Spans` records one span (name, start, end, parent, trace id)
per call of every function it wraps, keeps them in memory and writes
them as JSONL at the end.  Wrapping patches the attribute the caller
looks up (a module function or a class method) for the duration of a
``with`` block and restores it afterwards, so the program under test
is never edited.

:func:`core_metrics` and :func:`flush_metrics` turn the recorded
spans and the program's own slice-lifecycle traces into ``per_layer``
metrics of ``BENCHMARK.json``; :class:`WireCounter` counts what the
HTTP client sends and receives.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from stats import p50, tail

#: Per-layer metric names and units, in ``BENCHMARK.json`` order.
PER_LAYER = {
    "core.initialize_s": "s",
    "core.step_batch_dense_us": "us",
    "core.step_batch_sparse_us": "us",
    "core.step_us": "us",
    "core.forecast_us": "us",
    "core.step_batch_self_us": "us",
    "core.outliers.robust_step_batch_us": "us",
    "core.outliers.robust_step_batch_at_us": "us",
    "forecast.vector_hw.update_many_us": "us",
    "forecast.vector_hw.forecast_us": "us",
    "tensor.kernels.kruskal_reconstruct_rows_us": "us",
    "tensor.kernels.mttkrp_us": "us",
    "tensor.kernels.mttkrp_observed_us": "us",
    "tensor.kernels.calls_per_slice": "count",
    "core.serialization.dumps_us": "us",
    "core.serialization.loads_us": "us",
    "core.serialization.load_us": "us",
    "core.serialization.state_bytes": "bytes",
    "serving.manager.ingest_us": "us",
    "serving.scheduler.queue_wait_ms_p50": "ms",
    "serving.scheduler.queue_wait_ms_tail": "ms",
    "serving.manager.impute_wait_ms_tail": "ms",
    "serving.scheduler.dispatches": "count",
    "serving.scheduler.mean_batch_size": "count",
    "serving.scheduler.mean_fused_sessions": "count",
    "serving.pool.execute_us_per_slice": "us",
    "serving.pool.transport_us_per_flush": "us",
    "serving.pool.busy_frac": "ratio",
    "serving.client.connects_per_request": "count",
    "serving.client.ingest_body_bytes": "bytes",
    "serving.client.forecast_response_bytes": "bytes",
    "serving.gateway.ingest_wire_ms": "ms",
    "serving.observability.trace_overhead_frac": "ratio",
}

#: Kernel entry points whose calls ``tensor.kernels.calls_per_slice``
#: counts (the ones the dynamic phase reaches through the kernel seam).
KERNELS = ("kruskal_reconstruct_rows", "mttkrp", "mttkrp_observed")


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    trace: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """Thread-aware span recorder for wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            span_id=span_id,
            parent=parent.span_id if parent else None,
            trace=parent.trace if parent else span_id,
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextlib.contextmanager
    def wrap(self, owner, attribute: str, name: str, attrs_of=None):
        """Record a span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        recorder = self

        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with recorder.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(owner, attribute, wrapper)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return {
            span.span_id: span.seconds - covered[span.span_id]
            for span in self.spans
        }

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "id": span.span_id,
                            "parent": span.parent,
                            "trace": span.trace,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )


def _batch_attrs(model, ys, masks=None):
    density = 1.0 if masks is None else float(np.mean(masks))
    return {
        "slices": len(ys),
        "sparse": density < model.config.density_threshold,
    }


@contextlib.contextmanager
def core_wrappers(spans: Spans):
    """Wrap the core math layers (wherever they run in this process)."""
    from repro.core import dynamic
    from repro.core.sofia import Sofia
    from repro.forecast.vector_hw import VectorHoltWinters
    from repro.tensor import kernels

    with contextlib.ExitStack() as stack:
        stack.enter_context(
            spans.wrap(Sofia, "step_batch", "core.step_batch", _batch_attrs)
        )
        stack.enter_context(spans.wrap(Sofia, "step", "core.step"))
        stack.enter_context(spans.wrap(Sofia, "forecast", "core.forecast"))
        for name in ("robust_step_batch", "robust_step_batch_at"):
            stack.enter_context(
                spans.wrap(dynamic, name, f"core.outliers.{name}")
            )
        for name in ("update_many", "forecast"):
            stack.enter_context(
                spans.wrap(
                    VectorHoltWinters, name, f"forecast.vector_hw.{name}"
                )
            )
        for name in KERNELS:
            stack.enter_context(
                spans.wrap(kernels, name, f"tensor.kernels.{name}")
            )
        yield


@contextlib.contextmanager
def serving_wrappers(spans: Spans):
    """Wrap the manager-side serving and serialization calls."""
    from repro.serving import manager, store

    with contextlib.ExitStack() as stack:
        stack.enter_context(
            spans.wrap(
                manager.SessionManager,
                "ingest_traced",
                "serving.manager.ingest",
            )
        )
        stack.enter_context(
            spans.wrap(manager, "load_sofia", "core.serialization.load")
        )
        for name in ("dumps_sofia", "loads_sofia"):
            stack.enter_context(
                spans.wrap(
                    store, name, f"core.serialization.{name[:-6]}"
                )
            )
        yield


@contextlib.contextmanager
def count_kernel_calls(counts: dict[str, int]):
    """Count kernel calls without timing them (the exact counter)."""
    from repro.tensor import kernels

    originals = {name: getattr(kernels, name) for name in KERNELS}

    def counting(name):
        original = originals[name]

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for name in KERNELS:
        setattr(kernels, name, counting(name))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(kernels, name, original)


class WireCounter:
    """Counts TCP connects and request/response bytes of the client.

    Attributes are keyed by the operation the benchmark marks as
    current (``ingest``, ``impute``, ``forecast``, ...).
    """

    def __init__(self) -> None:
        self.current = "other"
        self.connects = 0
        self.requests = 0
        self.request_bytes: dict[str, list[int]] = defaultdict(list)
        self.response_bytes: dict[str, list[int]] = defaultdict(list)

    @contextlib.contextmanager
    def installed(self):
        connection = http.client.HTTPConnection
        response = http.client.HTTPResponse
        connect, request, read = (
            connection.connect,
            connection.request,
            response.read,
        )
        counter = self

        def counting_connect(self, *args, **kwargs):
            counter.connects += 1
            return connect(self, *args, **kwargs)

        def counting_request(self, method, url, body=None, *args, **kw):
            counter.requests += 1
            counter.request_bytes[counter.current].append(
                len(body) if body else 0
            )
            return request(self, method, url, body, *args, **kw)

        def counting_read(self, *args, **kwargs):
            data = read(self, *args, **kwargs)
            counter.response_bytes[counter.current].append(len(data))
            return data

        connection.connect = counting_connect
        connection.request = counting_request
        response.read = counting_read
        try:
            yield self
        finally:
            connection.connect = connect
            connection.request = request
            response.read = read

    @contextlib.contextmanager
    def op(self, name: str):
        self.current = name
        try:
            yield
        finally:
            self.current = "other"


def _mean_us(spans: list[Span], per_slice: bool = False) -> float:
    if not spans:
        return 0.0
    total = sum(span.seconds for span in spans)
    count = (
        sum(span.attrs.get("slices", 1) for span in spans)
        if per_slice
        else len(spans)
    )
    return 1e6 * total / count


def core_metrics(spans: Spans) -> dict[str, float]:
    """Core, outlier, Holt-Winters and kernel layers from wrapped spans."""
    batches = spans.named("core.step_batch")
    dense = [s for s in batches if s.attrs["slices"] > 1 and not s.attrs["sparse"]]
    sparse = [s for s in batches if s.attrs["slices"] > 1 and s.attrs["sparse"]]
    single = spans.named("core.step") + [
        s for s in batches if s.attrs["slices"] == 1
    ]
    selfs = spans.self_seconds()
    multi = dense + sparse
    n_multi = sum(s.attrs["slices"] for s in multi)
    metrics = {
        "core.step_batch_dense_us": _mean_us(dense, per_slice=True),
        "core.step_batch_sparse_us": _mean_us(sparse, per_slice=True),
        "core.step_us": _mean_us(single),
        "core.forecast_us": _mean_us(spans.named("core.forecast")),
        "core.step_batch_self_us": (
            1e6 * sum(selfs[s.span_id] for s in multi) / n_multi
            if n_multi
            else 0.0
        ),
    }
    for name in ("robust_step_batch", "robust_step_batch_at"):
        metrics[f"core.outliers.{name}_us"] = _mean_us(
            spans.named(f"core.outliers.{name}")
        )
    for name in ("update_many", "forecast"):
        metrics[f"forecast.vector_hw.{name}_us"] = _mean_us(
            spans.named(f"forecast.vector_hw.{name}")
        )
    for name in KERNELS:
        metrics[f"tensor.kernels.{name}_us"] = _mean_us(
            spans.named(f"tensor.kernels.{name}")
        )
    for name in ("dumps", "loads", "load"):
        metrics[f"core.serialization.{name}_us"] = _mean_us(
            spans.named(f"core.serialization.{name}")
        )
    metrics["serving.manager.ingest_us"] = _mean_us(
        spans.named("serving.manager.ingest")
    )
    return {name: value for name, value in metrics.items() if value}


def flush_metrics(
    slice_spans: list[dict], timed_seconds: float, pool_size: int
) -> dict[str, float]:
    """Scheduler and pool layers from the program's slice traces.

    One fused dispatch stamps every member slice with the same
    ``dispatched``/``executed`` pair, which identifies the flush group;
    each member session's ``execute_seconds`` is its own share.
    """
    if not slice_spans:
        return {}
    waits = [
        1e3 * (s["stages"]["dispatched"] - s["stages"]["accepted"])
        for s in slice_spans
    ]
    groups: dict[tuple, dict[str, float]] = {}
    for s in slice_spans:
        key = (s["stages"]["dispatched"], s["stages"]["executed"])
        groups.setdefault(key, {})[s["session_id"]] = s["execute_seconds"]
    walls = [executed - dispatched for dispatched, executed in groups]
    transport = [
        wall - sum(members.values())
        for wall, members in zip(walls, groups.values())
    ]
    return {
        "serving.scheduler.queue_wait_ms_p50": p50(waits),
        "serving.scheduler.queue_wait_ms_tail": tail(waits)[0],
        "serving.pool.execute_us_per_slice": 1e6 * sum(walls) / len(slice_spans),
        "serving.pool.transport_us_per_flush": 1e6 * float(np.mean(transport)),
        "serving.pool.busy_frac": sum(walls) / (timed_seconds * pool_size),
    }
