"""The four workloads: one closed-loop client, four depths of stack.

``core_stream`` drives bare :class:`~repro.core.Sofia` models.  The
served workloads drive the same traffic through the typed
``ServingClient`` surface: ``fleet_thread`` and ``fleet_process`` a
:class:`~repro.serving.SessionManager` in this process through
:class:`~repro.serving.InProcessServingClient`, ``http_gateway`` a
``repro-serve`` subprocess through
:class:`~repro.serving.HTTPServingClient`.

Each run fits the paper-default model (three times on ``core_stream``,
whose ``setup_s`` the fit is), checkpoints it, replays
one pass of traffic on bare models (untimed) as the oracle, and then
repeats whole passes, each from the checkpoint, until the run's
seconds are spent.  Every impute and forecast is compared bit for bit
with the oracle.  Set-ups, passes and epochs are bracketed by runs of
the calibration kernel, and their timings are scaled to nominal host
speed (see ``calibrate.py``).  The flush deadline is set far beyond
the run, so every flush is triggered by a full batch or a drain and
batch boundaries do not depend on timing.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import traffic as T
from layers import (
    Spans,
    WireCounter,
    core_metrics,
    core_wrappers,
    count_kernel_calls,
    flush_metrics,
    serving_wrappers,
)
from stats import p50, tail

#: Workload -> number of served sessions (``core_stream`` runs the
#: streams one after another on bare models).
SESSIONS = {
    "core_stream": T.N_STREAMS,
    "fleet_thread": 64,
    "fleet_process": 64,
    "http_gateway": T.N_STREAMS,
}
WORKERS = 2
#: Flush deadline far beyond any run: flushes are size- or drain-triggered.
NO_DEADLINE_S = 3600.0
#: Set-ups timed per run; ``setup_s`` is their median.  A bare model's
#: set-up is its fit (seconds each); a served runtime's is cheaper.
FIT_REPEATS = 3
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """Everything one run measured."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Printed beside the metrics but not gated: ``(value, percentile, n)``.
    tails: dict[str, tuple[float, float, int]] = field(default_factory=dict)
    counts: dict[str, object] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Ledger:
    """Operation outcomes and latencies of the timed phase."""

    def __init__(self, reference: T.Reference, outcome: Outcome) -> None:
        self.reference = reference
        self.outcome = outcome
        #: Timed work as measured: latencies by kind, epoch seconds.
        self.latency: dict[str, list[float]] = {}
        self.seconds = 0.0
        self.slices = 0
        #: The same at nominal host speed, up to the last calibration.
        self.scaled: dict[str, list[float]] = {}
        self.scaled_seconds = 0.0
        self.scales: list[float] = []
        self._calibration: float | None = None
        self._pending: list[tuple[str, float]] = []
        self._pending_seconds = 0.0
        self.passes: list[tuple[float, float]] = []
        #: Per pass, at nominal host speed: slices per second, and each
        #: kind's median latency; and the unscaled rate.
        self.pass_rates: list[float] = []
        self.pass_p50s: dict[str, list[float]] = {}
        self.raw_rates: list[float] = []
        self.wire: WireCounter | None = None
        self.detail: dict | None = None
        self.scheduler: list[dict] = []

    def call(self, kind: str, timed: bool, fn, *args):
        """Run one operation; exceptions count as failed, not fatal."""
        self.outcome.attempted += 1
        marker = self.wire.op(kind) if self.wire else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with marker:
                result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.outcome.failed += 1
            self._problem(f"{kind} raised {type(exc).__name__}: {exc}")
            return None, 0.0
        latency = time.perf_counter() - started
        if timed:
            self.latency.setdefault(kind, []).append(latency)
            self._pending.append((kind, latency))
        return result, latency

    def epoch(self, seconds: float, slices: int) -> None:
        """Count one timed epoch's wall time and applied slices."""
        self.seconds += seconds
        self.slices += slices
        self._pending_seconds += seconds

    def calibrate(self) -> None:
        """Run the calibration kernel and scale the timed work since the
        previous run of it by the mean of the two.

        Called after every pass of ``core_stream`` and every epoch of
        the served workloads, a quarter to half a second of work apart:
        the host's speed can change within a second, and with one scale
        per two-second pass of ``fleet_thread`` its forecast latency
        was bimodal from pass to pass.
        """
        now = calibrate.measure()
        if self._calibration is not None:
            factor = calibrate.scale(self._calibration, now)
            self.scales.append(factor)
            for kind, latency in self._pending:
                self.scaled.setdefault(kind, []).append(factor * latency)
            self.scaled_seconds += factor * self._pending_seconds
        self._calibration = now
        self._pending = []
        self._pending_seconds = 0.0

    def check(self, kind: str, served, expected) -> None:
        if served is not None and not T.same_bits(served, expected):
            self.outcome.failed += 1
            self._problem(f"{kind} output differs from the bare model")

    def _problem(self, text: str) -> None:
        if len(self.outcome.problems) < 20:
            self.outcome.problems.append(text)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def core_pass(ledger: Ledger, traffic: T.Traffic, checkpoint: bytes,
              warmup: bool) -> T.Quality:
    """One pass on bare models, one stream after another."""
    from repro.core.serialization import loads_sofia

    quality = T.Quality()
    for stream in range(T.N_STREAMS):
        model = loads_sofia(checkpoint)
        for epoch in range(T.EPOCHS):
            timed = not (warmup and stream == 0 and epoch == 0)
            started = time.perf_counter()
            ledger.call("ingest", timed, model.step_batch,
                        *traffic.batch(stream, epoch))
            value, mask = traffic.impute_slice(stream, epoch)
            completed, _ = ledger.call("impute", timed, model.impute,
                                       value, mask)
            _score_impute(ledger, quality, traffic, stream, epoch, completed)
            if T.is_forecast_epoch(epoch):
                forecast, _ = ledger.call("forecast", timed, model.forecast,
                                          T.HORIZON)
                _score_forecast(ledger, quality, traffic, stream, epoch,
                                forecast)
            if timed:
                ledger.epoch(time.perf_counter() - started, T.EPOCH_SLICES)
    ledger.calibrate()
    return quality


def served_pass(ledger: Ledger, client, traffic: T.Traffic,
                checkpoint_path: str, n_sessions: int,
                warmup: bool) -> T.Quality:
    """One pass over ``n_sessions`` served sessions, closed loop.

    Ingests go round-robin across sessions, so every session's batch
    comes due in the same round; then each session is imputed (and
    forecast) in turn.  A session's forecast follows its own impute, as
    on ``core_stream`` and as a caller that waits for each reply would
    ask.  In a traced phase ``ledger.detail`` collects
    per-request latencies to match against the program's slice spans.
    Sessions restart every pass, so its keys repeat and keep the last
    pass, as does the span lookup they are matched with.
    """
    detail = ledger.detail
    sessions = [f"s{i:02d}" for i in range(n_sessions)]
    for sid in sessions:
        client.create_session(sid, checkpoint=checkpoint_path)
    quality = T.Quality()
    for epoch in range(T.EPOCHS):
        timed = not (warmup and epoch == 0)
        started = time.perf_counter()
        for j in range(T.BATCH):
            for i, sid in enumerate(sessions):
                values, masks = traffic.batch(i % T.N_STREAMS, epoch)
                ack, latency = ledger.call(
                    "ingest", timed, client.ingest, sid, values[j], masks[j]
                )
                if detail is not None and ack is not None and ack.trace_id:
                    detail["ingest"][ack.trace_id] = latency
        for i, sid in enumerate(sessions):
            stream = i % T.N_STREAMS
            value, mask = traffic.impute_slice(stream, epoch)
            result, latency = ledger.call(
                "impute", timed, client.impute, sid, value, mask
            )
            completed = None if result is None else result.completed
            _score_impute(ledger, quality, traffic, stream, epoch, completed)
            if detail is not None:
                seq = epoch * T.EPOCH_SLICES + T.BATCH
                detail["impute"][(sid, seq)] = latency
            if T.is_forecast_epoch(epoch):
                result, _ = ledger.call(
                    "forecast", timed, client.forecast, sid, T.HORIZON
                )
                _score_forecast(
                    ledger, quality, traffic, stream, epoch,
                    None if result is None else result.forecast,
                )
        if timed:
            ledger.epoch(time.perf_counter() - started,
                         n_sessions * T.EPOCH_SLICES)
        ledger.calibrate()
    for sid in sessions:
        client.close_session(sid)
    return quality


def _score_impute(ledger, quality, traffic, stream, epoch, completed):
    if completed is None:
        return
    ledger.check("impute", completed, ledger.reference.imputes[stream][epoch])
    quality.add_impute(
        completed,
        traffic.clean_impute(epoch),
        traffic.impute_slice(stream, epoch)[1],
    )


def _score_forecast(ledger, quality, traffic, stream, epoch, forecast):
    if forecast is None:
        return
    ledger.check(
        "forecast", forecast, ledger.reference.forecasts[stream][epoch]
    )
    quality.add_forecast(forecast, traffic.clean_future(epoch))


# ----------------------------------------------------------------------
# Runtimes of the served workloads
# ----------------------------------------------------------------------
class InProcessRuntime:
    """A SessionManager in this process (thread or process pool)."""

    def __init__(self, kind: str, store: Path, trace: bool,
                 child_cpus: set[int]) -> None:
        import multiprocessing

        from repro.serving import InProcessServingClient, SessionManager

        self.manager = SessionManager(
            checkpoint_dir=store,
            max_latency_s=NO_DEADLINE_S,
            workers=WORKERS,
            worker_kind=kind,
            trace_sample_rate=1.0 if trace else 0.0,
            trace_capacity=4 * SESSIONS[f"fleet_{kind}"] * T.EPOCHS
            * T.EPOCH_SLICES,
        )
        self.client = InProcessServingClient(self.manager)
        for child in multiprocessing.active_children():
            os.sched_setaffinity(child.pid, child_cpus)

    def close(self) -> None:
        self.manager.close()


class GatewayRuntime:
    """A ``repro-serve`` subprocess on a free local port."""

    def __init__(self, root: Path, workdir: Path, store: Path,
                 trace: bool, child_cpus: set[int]) -> None:
        from repro.serving import HTTPServingClient

        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(workdir / "gateway.log", "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.serving.gateway",
                "--port", "0",
                "--checkpoint-dir", str(store),
                "--max-latency-ms", str(NO_DEADLINE_S * 1000),
                "--workers", str(WORKERS),
                "--trace-sample-rate", "1.0" if trace else "0.0",
                "--trace-capacity", str(4 * T.PASS_SLICES),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        os.sched_setaffinity(self.process.pid, child_cpus)
        try:
            url = self._await_url(timeout=60.0)
            self.client = HTTPServingClient(url)
            self._await_health(timeout=60.0)
        except BaseException:
            self.close()
            raise

    def _await_url(self, timeout: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline().decode() if ready else ""
        if "listening on " not in line:
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        return line.split("listening on ", 1)[1].split("/v1", 1)[0]

    def _await_health(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.client.healthz().get("status") == "ok":
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path, workdir: Path, child_cpus: set[int]) -> Outcome:
    """One run; processes it starts are placed on ``child_cpus``."""
    from repro.core.serialization import save_sofia

    outcome = Outcome()
    traffic = T.make_traffic(seed)

    fits, raw_fits = [], []
    for _ in range(FIT_REPEATS if workload == "core_stream" else 1):
        fit_s, raw, model = calibrate.timed(T.fit, traffic)
        fits.append(fit_s)
        raw_fits.append(raw)
    outcome.per_layer["core.initialize_s"] = p50(raw_fits)
    checkpoint = T.checkpoint_bytes(model)
    checkpoint_path = workdir / "checkpoint.npz"
    save_sofia(model, checkpoint_path)

    calls: dict[str, int] = {}
    with count_kernel_calls(calls):
        reference = T.reference(traffic, checkpoint)
    outcome.counts["calls_per_slice"] = sum(calls.values()) / T.PASS_SLICES
    outcome.counts["state_bytes"] = len(checkpoint)
    outcome.per_layer["tensor.kernels.calls_per_slice"] = (
        outcome.counts["calls_per_slice"]
    )
    outcome.per_layer["core.serialization.state_bytes"] = len(checkpoint)

    if workload == "core_stream":
        harness = _CoreHarness(traffic, checkpoint)
        setups, raw_setups = fits, raw_fits
    else:
        harness = _ServedHarness(workload, traffic, str(checkpoint_path),
                                 root, workdir, child_cpus)
        setups, raw_setups = harness.measure_setup() if not trace else ([], [])
    if not trace:
        outcome.metrics["setup_s"] = (p50(setups), "s")
        outcome.info["raw_setup_s"] = p50(raw_setups)

    try:
        if trace:
            plain = _timed_phase(harness, reference, outcome, seconds / 2,
                                 traced=False)
            traced = _timed_phase(harness, reference, outcome, seconds / 2,
                                  traced=True)
            _per_layer(outcome, harness, plain, traced, workdir, workload,
                       seed)
        else:
            ledger = _timed_phase(harness, reference, outcome, seconds,
                                  traced=False)
            _end_to_end(outcome, ledger, workload)
    finally:
        harness.close()
    return outcome


class _CoreHarness:
    pool_size = 1

    def __init__(self, traffic, checkpoint) -> None:
        self.traffic = traffic
        self.checkpoint = checkpoint
        self.spans = Spans()
        self.wire = None
        self.slice_spans: list[dict] = []
        self.scheduler: list[dict] = []

    def run_pass(self, ledger, warmup, traced):
        scope = core_wrappers(self.spans) if traced else contextlib.nullcontext()
        with scope:
            return core_pass(ledger, self.traffic, self.checkpoint, warmup)

    def start(self, traced):
        pass

    def close(self):
        pass


class _ServedHarness:
    pool_size = WORKERS

    def __init__(self, workload, traffic, checkpoint_path, root, workdir,
                 child_cpus):
        self.workload = workload
        self.traffic = traffic
        self.checkpoint_path = checkpoint_path
        self.root = root
        self.workdir = workdir
        self.store = workdir / "store"
        self.n_sessions = SESSIONS[workload]
        self.runtime = None
        self.traced = None
        self.spans = Spans()
        self.wire = WireCounter() if workload == "http_gateway" else None
        self.child_cpus = child_cpus
        self.slice_spans: list[dict] = []
        self.scheduler: list[dict] = []

    def _open(self, traced: bool):
        if self.workload == "http_gateway":
            return GatewayRuntime(self.root, self.workdir, self.store, traced,
                                  self.child_cpus)
        kind = "process" if self.workload == "fleet_process" else "thread"
        return InProcessRuntime(kind, self.store, traced, self.child_cpus)

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Scaled and raw times of runtime start plus creating every
        session, ``SETUP_REPEATS`` times."""
        sessions = [f"s{i:02d}" for i in range(self.n_sessions)]

        def set_up():
            runtime = self._open(traced=False)
            for sid in sessions:
                runtime.client.create_session(
                    sid, checkpoint=self.checkpoint_path
                )
            return runtime

        times, raw_times = [], []
        for _ in range(SETUP_REPEATS):
            self.close()
            setup_s, raw, runtime = calibrate.timed(set_up)
            times.append(setup_s)
            raw_times.append(raw)
            for sid in sessions:
                runtime.client.close_session(sid)
            self.runtime, self.traced = runtime, False
        return times, raw_times

    def start(self, traced: bool) -> None:
        if self.runtime is not None and self.traced == traced:
            return
        self.close()
        self.runtime = self._open(traced)
        self.traced = traced

    def run_pass(self, ledger, warmup, traced):
        client = self.runtime.client
        before = client.metrics()
        scope = contextlib.ExitStack()
        if traced and self.workload != "http_gateway":
            scope.enter_context(core_wrappers(self.spans))
            scope.enter_context(serving_wrappers(self.spans))
        with scope:
            quality = served_pass(ledger, client, self.traffic,
                                  self.checkpoint_path, self.n_sessions,
                                  warmup)
        after = client.metrics()
        delta = {
            key: after[key] - before[key]
            for key in ("dispatches", "batches_flushed", "slices_flushed")
        }
        self.scheduler.append(delta)
        if traced:
            limit = self.n_sessions * T.EPOCHS * T.EPOCH_SLICES
            self.slice_spans.extend(client.traces(limit=limit)["traces"])
        return quality

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None


def _timed_phase(harness, reference, outcome, seconds, traced) -> Ledger:
    """Whole passes until ``seconds`` of wall time are spent."""
    ledger = Ledger(reference, outcome)
    harness.start(traced)
    ledger.wire = harness.wire
    wire_scope = (
        ledger.wire.installed() if ledger.wire else contextlib.nullcontext()
    )
    ledger.detail = {"ingest": {}, "impute": {}} if traced else None
    harness.scheduler = []
    deadline = time.perf_counter() + seconds
    first = True
    ledger.calibrate()
    with wire_scope:
        while first or time.perf_counter() < deadline:
            before = (ledger.seconds, ledger.scaled_seconds, ledger.slices)
            counts_before = {k: len(v) for k, v in ledger.scaled.items()}
            quality = harness.run_pass(ledger, first, traced)
            ledger.passes.append(quality.nres())
            slices = ledger.slices - before[2]
            ledger.raw_rates.append(slices / (ledger.seconds - before[0]))
            ledger.pass_rates.append(
                slices / (ledger.scaled_seconds - before[1])
            )
            for kind, samples in ledger.scaled.items():
                ledger.pass_p50s.setdefault(kind, []).append(
                    p50(samples[counts_before.get(kind, 0):])
                )
            first = False
    outcome.info["pass_slices_per_s"] = [round(r, 1) for r in ledger.pass_rates]
    outcome.info["raw_slices_per_s"] = p50(ledger.raw_rates)
    outcome.info["calibration_scale"] = p50(ledger.scales)
    for nres in ledger.passes[1:]:
        if nres != ledger.passes[0]:
            outcome.failed += 1
            outcome.problems.append(
                f"pass NREs {nres} differ from the first pass "
                f"{ledger.passes[0]}"
            )
    impute_nre, forecast_nre = ledger.passes[0]
    outcome.counts["impute_nre"] = impute_nre
    outcome.counts["forecast_nre"] = forecast_nre
    scheduler = harness.scheduler
    if scheduler:
        for key in ("batches_flushed", "slices_flushed"):
            values = {delta[key] for delta in scheduler}
            if len(values) > 1:
                outcome.failed += 1
                outcome.problems.append(f"{key} differs between passes")
            outcome.counts[key] = scheduler[0][key]
        ledger.scheduler = scheduler
        outcome.info["dispatches_per_pass"] = [
            delta["dispatches"] for delta in scheduler
        ]
    if ledger.wire is not None and ledger.wire.requests:
        outcome.counts["connects_per_request"] = (
            ledger.wire.connects / ledger.wire.requests
        )
    return ledger


def _end_to_end(outcome: Outcome, ledger: Ledger, workload: str) -> None:
    """Timings are medians over passes of figures scaled to nominal host
    speed, so neither a slow spell of the host that covers a minority
    of passes nor one that covers the whole run moves them much.

    ``ingest_p50_ms`` is an end-to-end metric of ``http_gateway`` only:
    elsewhere an ingest is an in-process enqueue of about 13 us, or, on
    ``core_stream``, the ``step_batch`` that ``slices_per_s`` already
    times, and it is printed with the ungated figures.
    """
    metrics = outcome.metrics
    metrics["slices_per_s"] = (p50(ledger.pass_rates), "slices/s")
    for kind in ("ingest", "impute", "forecast"):
        value = 1e3 * p50(ledger.pass_p50s[kind])
        if kind != "ingest" or workload == "http_gateway":
            metrics[f"{kind}_p50_ms"] = (value, "ms")
        else:
            outcome.info["ingest_p50_ms"] = value
        outcome.tails[f"{kind}_tail_ms"] = tail(
            [1e3 * s for s in ledger.latency[kind]]
        )
    metrics["impute_nre"] = (outcome.counts["impute_nre"], "ratio")
    metrics["forecast_nre"] = (outcome.counts["forecast_nre"], "ratio")


def _per_layer(outcome, harness, plain, traced, workdir, workload, seed):
    layer = outcome.per_layer
    untraced_sps = p50(plain.pass_rates)
    traced_sps = p50(traced.pass_rates)
    outcome.info["untraced_slices_per_s"] = untraced_sps
    outcome.info["traced_slices_per_s"] = traced_sps
    layer["serving.observability.trace_overhead_frac"] = (
        1.0 - traced_sps / untraced_sps
    )
    layer.update(core_metrics(harness.spans))
    slice_spans = harness.slice_spans
    layer.update(flush_metrics(slice_spans, traced.seconds, harness.pool_size))
    detail = traced.detail
    if slice_spans:
        by_seq = {(s["session_id"], s["seq"]): s for s in slice_spans}
        waits = [
            1e3 * (latency - by_seq[key]["execute_seconds"])
            for key, latency in detail["impute"].items()
            if key in by_seq
        ]
        layer["serving.manager.impute_wait_ms_tail"] = tail(waits)[0]
    if traced.scheduler:
        dispatches = sum(d["dispatches"] for d in traced.scheduler)
        batches = sum(d["batches_flushed"] for d in traced.scheduler)
        flushed = sum(d["slices_flushed"] for d in traced.scheduler)
        layer["serving.scheduler.dispatches"] = dispatches / len(
            traced.scheduler
        )
        layer["serving.scheduler.mean_batch_size"] = flushed / batches
        layer["serving.scheduler.mean_fused_sessions"] = batches / dispatches
    if workload == "http_gateway" and slice_spans:
        by_trace = {s["trace_id"]: s for s in slice_spans}
        server = {
            trace: s["stages"]["enqueued"] - s["stages"]["accepted"]
            for trace, s in by_trace.items()
        }
        layer["serving.manager.ingest_us"] = 1e6 * float(
            np.mean(list(server.values()))
        )
        layer["serving.gateway.ingest_wire_ms"] = p50(
            [
                1e3 * (latency - server[trace])
                for trace, latency in detail["ingest"].items()
                if trace in server
            ]
        )
        wire = harness.wire
        layer["serving.client.connects_per_request"] = (
            wire.connects / wire.requests
        )
        layer["serving.client.ingest_body_bytes"] = float(
            np.mean(wire.request_bytes["ingest"])
        )
        layer["serving.client.forecast_response_bytes"] = float(
            np.mean(wire.response_bytes["forecast"])
        )
    spans_path = workdir / "traces" / f"{workload}-seed{seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    harness.spans.write_jsonl(spans_path)
    if slice_spans:
        with open(spans_path, "a", encoding="utf-8") as out:
            for record in slice_spans:
                out.write(json.dumps({"name": "slice", **record}) + "\n")
    outcome.info["spans_file"] = str(spans_path.relative_to(workdir.parent))
