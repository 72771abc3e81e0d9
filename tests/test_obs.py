"""Telemetry tests: bounded metrics, tracing spans, and run-log sinks.

The contracts under test (docs/observability.md):

* the registry is safe under concurrent publishers and its histograms
  report quantiles within the log-bucket quantization bound of the exact
  (numpy) percentiles while holding O(1) state;
* a crash mid-flush (the ``sink-flush-mid`` point) tears at most the
  trailing JSONL line — :func:`~repro.obs.sinks.read_jsonl` recovers the
  durable prefix and still rejects mid-file corruption;
* the :class:`~repro.obs.sinks.NullSink` default is perfectly silent:
  no records retained, no files created;
* a :class:`~repro.obs.sinks.Recorder` riding the trainer listener hook
  emits event records verbatim and metrics records that reflect only the
  activity since the recorder started (the snapshot/delta contract).
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (Histogram, JsonlSink, MetricsRegistry, NullSink,
                       Recorder, clear_spans, make_sink, read_jsonl,
                       recent_spans, span, traced)
from repro.obs.registry import delta_state, summarize_histogram
from tests.faultinject import CrashPoint, FaultInjector, SimulatedCrash

# Worst-case relative quantization error of the 20-buckets-per-decade
# geometry is 10**(1/40) - 1 ~= 5.9%; test against a slightly looser 10%.
QUANT_TOL = 0.10


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

def test_registry_counter_gauge_histogram_roundtrip():
    reg = MetricsRegistry()
    reg.counter("a.b").inc(3)
    reg.gauge("c").set(7.5)
    reg.histogram("d").observe(1.0)
    snap = reg.snapshot()
    assert snap["a.b"] == 3 and snap["c"] == 7.5
    assert snap["d"]["count"] == 1
    # Labeled children are distinct metrics under the same base name.
    reg.counter("a.b", store="nodes").inc()
    assert reg.counter("a.b").value == 3
    assert reg.counter("a.b", store="nodes").value == 1
    assert "a.b{store=nodes}" in reg.snapshot()


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError, match="is a counter"):
        reg.histogram("x")


def test_registry_thread_safety():
    """Concurrent publishers must never lose an increment or a sample."""
    reg = MetricsRegistry()
    threads, per_thread = 8, 2500

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for v in rng.uniform(0.1, 100.0, per_thread):
            reg.counter("hits").inc()
            reg.histogram("lat").observe(float(v))

    pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert reg.counter("hits").value == threads * per_thread
    state = reg.histogram("lat").state()
    assert state["count"] == threads * per_thread
    assert state["zero"] + sum(state["buckets"].values()) == state["count"]


def test_histogram_percentiles_match_numpy():
    """Bucketed quantiles track np.percentile within the quantization
    bound, across very different shapes, with O(1) state."""
    rng = np.random.default_rng(7)
    for sample in (rng.lognormal(2.0, 1.0, 20_000),       # heavy tail
                   rng.uniform(0.5, 500.0, 20_000),       # flat
                   rng.exponential(30.0, 20_000)):        # latency-like
        h = Histogram("t")
        for v in sample:
            h.observe(float(v))
        for q in (0.50, 0.95, 0.99):
            exact = float(np.percentile(sample, q * 100))
            got = h.quantile(q)
            assert abs(got - exact) / exact < QUANT_TOL, (q, got, exact)
        assert h.max == pytest.approx(sample.max())
        assert h.quantile(1.0) <= h.max
        # Bounded state: sparse buckets never exceed the fixed geometry.
        assert len(h.state()["buckets"]) <= 240


def test_histogram_zero_and_negative_values():
    h = Histogram("t")
    for v in (-1.0, 0.0, 5.0):
        h.observe(v)
    assert h.count == 3 and h.min == -1.0
    assert h.quantile(0.0) <= 0.0


def test_delta_state_isolates_an_interval():
    """count/sum/buckets subtract exactly; re-summarizing the delta gives
    the interval's own percentiles, not the lifetime's."""
    h = Histogram("t")
    for v in (1.0, 1.0, 2.0):
        h.observe(v)
    base = h.state()
    for v in (1000.0, 2000.0, 4000.0):
        h.observe(v)
    d = delta_state(h.state(), base)
    assert d["count"] == 3
    assert d["sum"] == pytest.approx(7000.0)
    s = summarize_histogram(d)
    assert s["p50"] > 100.0            # the early small samples are gone


def test_registry_delta_since_baseline():
    reg = MetricsRegistry()
    reg.counter("n").inc(10)
    base = reg.snapshot()
    reg.counter("n").inc(4)
    reg.histogram("h").observe(3.0)
    out = reg.delta(base)
    assert out["n"] == 4
    assert out["h"]["count"] == 1


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_span_records_duration_and_ring():
    clear_spans()
    reg = MetricsRegistry()
    with span("unit.work", registry=reg):
        pass
    state = reg.histogram("trace.unit.work.ms").state()
    assert state["count"] == 1
    spans = recent_spans()
    assert spans and spans[-1].name == "unit.work"


def test_span_nesting_attributes_self_time():
    clear_spans()
    reg = MetricsRegistry()
    with span("outer", registry=reg):
        with span("inner", registry=reg):
            pass
    outer = [s for s in recent_spans() if s.name == "outer"][-1]
    inner = [s for s in recent_spans() if s.name == "inner"][-1]
    assert inner.parent == "outer"
    assert outer.self_ms <= outer.ms
    assert outer.self_ms == pytest.approx(outer.ms - inner.ms, abs=1e-6)


def test_traced_decorator_forms():
    reg = MetricsRegistry()

    @traced("named.op", registry=reg)
    def f(x):
        return x + 1

    assert f(1) == 2
    assert reg.histogram("trace.named.op.ms").count == 1


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

def test_null_sink_is_silent(tmp_path):
    rec = Recorder(NullSink(), registry=MetricsRegistry(), flush_every=1)
    for i in range(5):
        rec.listener("epoch", {"epoch": i})
    rec.close()
    assert list(tmp_path.iterdir()) == []      # nothing ever touched disk


def test_jsonl_sink_roundtrip(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    sink.emit({"ts": 1.0, "type": "event", "event": "epoch",
               "payload": {"n": np.int64(3)}})     # numpy scalars serialize
    sink.close()
    records = read_jsonl(path)
    assert records == [{"ts": 1.0, "type": "event", "event": "epoch",
                        "payload": {"n": 3}}]


def test_jsonl_crash_mid_flush_tears_only_the_tail(tmp_path):
    """A crash between the two halves of a flush leaves a valid prefix
    plus at most one partial line; the reader drops exactly that."""
    path = tmp_path / "t.jsonl"
    injector = FaultInjector(CrashPoint.SINK_FLUSH_MID)
    sink = JsonlSink(path, fault_hook=injector.fire)
    # An odd count of equal-length records guarantees the half-way split
    # lands mid-line, producing a genuinely torn trailing record.
    for i in range(7):
        sink.emit({"ts": float(i), "type": "event", "event": "e",
                   "payload": {"i": i}})
    with pytest.raises(SimulatedCrash):
        sink.flush()
    assert path.exists()                      # the first half landed
    records = read_jsonl(path)
    # Durable prefix only: every surviving record is complete and in order.
    assert 0 < len(records) < 7
    assert [r["payload"]["i"] for r in records] == list(range(len(records)))
    # Torn-tail tolerance is NOT blanket corruption tolerance: once the
    # partial line is followed by later data it is mid-file corruption
    # and must raise instead of being silently skipped.
    with open(path, "ab") as fh:
        fh.write(b'\n{"ts": 99, "type": "event", "event": "later", '
                 b'"payload": {}}\n')
    with pytest.raises(ValueError, match="corrupt record"):
        read_jsonl(path)


def test_make_sink_dispatch(tmp_path):
    assert isinstance(make_sink("none"), NullSink)
    assert isinstance(make_sink(None), NullSink)
    assert isinstance(make_sink("jsonl", tmp_path / "a.jsonl"), JsonlSink)
    for kind in ("csv", "xml"):
        with pytest.raises(ValueError, match="unknown telemetry sink"):
            make_sink(kind, tmp_path / f"a.{kind}")
    with pytest.raises(ValueError, match="needs a path"):
        make_sink("jsonl")


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------

def test_recorder_events_and_periodic_metrics(tmp_path):
    reg = MetricsRegistry()
    reg.counter("pre.existing").inc(100)       # before the recorder: excluded
    path = tmp_path / "run.jsonl"
    rec = Recorder(JsonlSink(path), registry=reg, flush_every=2)
    reg.counter("pre.existing").inc(5)
    rec.add_source("serve", lambda: {"requests": 42})
    rec.add_source("broken", lambda: 1 / 0)    # a dead source is skipped
    rec.listener("epoch", {"epoch": 0, "loss": 1.5})
    rec.listener("epoch", {"epoch": 1, "loss": 1.2})   # 2nd event: periodic
    rec.close()
    records = read_jsonl(path)
    events = [r for r in records if r["type"] == "event"]
    metrics = [r for r in records if r["type"] == "metrics"]
    assert [e["payload"]["epoch"] for e in events] == [0, 1]
    assert [m["label"] for m in metrics] == ["periodic", "final"]
    final = metrics[-1]["metrics"]
    assert final["pre.existing"] == 5          # delta since construction
    assert final["serve.requests"] == 42
    assert not any(k.startswith("broken") for k in final)


def test_recorder_close_is_idempotent(tmp_path):
    path = tmp_path / "run.jsonl"
    rec = Recorder(JsonlSink(path), registry=MetricsRegistry())
    rec.close()
    rec.close()
    assert sum(1 for r in read_jsonl(path) if r["label"] == "final") == 1


# ---------------------------------------------------------------------------
# Spec / API integration
# ---------------------------------------------------------------------------

def test_telemetry_spec_resolves_and_validates():
    from repro.api import JobError, JobSpec, ObsSpec
    spec = JobSpec(kind="lp-mem", telemetry=ObsSpec(sink="jsonl",
                                                    path="t.jsonl"))
    out = spec.resolve().to_dict()
    assert out["telemetry"]["sink"] == "jsonl"
    assert JobSpec.from_dict(out).telemetry.path == "t.jsonl"
    with pytest.raises(JobError, match="telemetry.sink"):
        JobSpec(kind="lp-mem", telemetry=ObsSpec(sink="xml")).resolve()
    with pytest.raises(JobError, match="flush_every"):
        JobSpec(kind="lp-mem",
                telemetry=ObsSpec(flush_every=0)).resolve()


def test_train_run_writes_parseable_log(tmp_path):
    """End-to-end: a tiny lp-disk run with a JSONL sink produces epoch
    events and a final metrics record carrying the swap histogram and the
    IOStats pull source; with the default (none) sink the same run
    creates no log file."""
    from repro.api import (DataSpec, JobSpec, ModelSpec, ObsSpec,
                           StorageSpec, TrainSpec, run)
    log = tmp_path / "telemetry.jsonl"

    def spec(sink, workdir):
        return JobSpec(
            kind="lp-disk",
            data=DataSpec(dataset="fb15k237", scale=0.02),
            model=ModelSpec(dim=8, encoder="none"),
            train=TrainSpec(epochs=1, batch_size=256, eval_every=0),
            storage=StorageSpec(workdir=str(workdir), partitions=4,
                                logical=4, buffer=2),
            telemetry=ObsSpec(sink=sink, path=str(log)))

    run(spec("none", tmp_path / "w0"))
    assert not log.exists()
    run(spec("jsonl", tmp_path / "w1"))
    records = read_jsonl(log)
    assert any(r["type"] == "event" and r["event"] == "epoch"
               for r in records)
    final = [r for r in records if r["type"] == "metrics"][-1]["metrics"]
    assert final["storage.swaps"] > 0                  # push: swap counter
    assert final["storage.swap.load_ms"]["count"] > 0  # push: histogram
    assert final["storage.reads"] > 0                  # pull: IOStats source
