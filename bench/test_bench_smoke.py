"""Smoke tests of the benchmark harness itself (collected by the tier-1
command; tiny sizes, everything written under pytest's temp dir)."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from bench import common, compare, fleet_http, trace, training

CONTRACT = common.load_contract()


class FakeClock:
    """``perf_counter`` that advances only when told to."""

    def __init__(self) -> None:
        self.now = 100.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(trace, "time", SimpleNamespace(
        perf_counter=fake.perf_counter))
    return fake


def test_self_time_is_duration_minus_children(clock):
    tracer = trace.Tracer()
    tracer.run = 7
    root = tracer.begin("root")
    clock.now += 1.0
    child = tracer.begin("child")
    clock.now += 2.0
    leaf = tracer.begin("leaf")
    clock.now += 4.0
    tracer.end(leaf)
    clock.now += 8.0
    tracer.end(child)
    again = tracer.begin("child")          # same name, second call
    clock.now += 16.0
    tracer.end(again)
    clock.now += 32.0
    tracer.end(root)
    times = tracer.self_times()[7]
    assert times == {"root": 1.0 + 32.0, "child": 2.0 + 8.0 + 16.0,
                     "leaf": 4.0}
    assert sum(times.values()) == 63.0     # rows sum to the root's wall
    assert tracer.durations("child") == {7: [14.0, 16.0]}


def test_spans_nest_per_thread(clock):
    tracer = trace.Tracer()
    outer = tracer.begin("main.outer")
    clock.now += 1.0
    started, release = threading.Event(), threading.Event()

    def other() -> None:
        handle = tracer.begin("other.work")    # no parent: its own stack
        started.set()
        release.wait(timeout=10)
        tracer.end(handle)

    thread = threading.Thread(target=other, name="other-thread")
    thread.start()
    assert started.wait(timeout=10)
    clock.now += 5.0
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now += 1.0
    tracer.end(outer)
    times = tracer.self_times()[None]
    # The other thread's span overlaps main.outer in time but is not its
    # child, so nothing is subtracted from main.outer.
    assert times == {"main.outer": 7.0, "other.work": 5.0}
    by_thread = dict(tracer.threads())
    assert by_thread["other-thread"][0][trace.PARENT] == -1


def test_mute_and_disable(clock):
    tracer = trace.Tracer()
    inner = tracer.wrap(lambda: setattr(clock, "now", clock.now + 1.0),
                        "inner")
    outer = tracer.wrap(inner, "outer", mute_children=True)
    seen = []
    counted = tracer.wrap(lambda: 5, "counted", on_result=seen.append)
    outer()
    inner()
    counted()
    tracer.enabled = False
    inner()
    counted()
    assert tracer.self_times()[None] == {"outer": 1.0, "inner": 1.0,
                                         "counted": 0.0}
    assert seen == [5]                     # counts only while tracing


def test_same_seed_same_inputs(tmp_path):
    one = fleet_http.request_stream(3, 250, 5000, 200)
    two = fleet_http.request_stream(3, 250, 5000, 200)
    other = fleet_http.request_stream(4, 250, 5000, 200)
    assert [r.http for r in one] == [r.http for r in two]
    assert [r.http for r in one] != [r.http for r in other]
    for block in (one[:100], one[100:200]):
        ops = [r.op for r in block]
        assert {op: ops.count(op) for op, _ in fleet_http.MIX} == dict(
            fleet_http.MIX)
    for workload in common.TRAINING:
        specs = [json.dumps(common.training_spec(workload, 3, 4, tmp_path),
                            sort_keys=True) for _ in range(2)]
        assert specs[0] == specs[1]
        assert specs[0] != json.dumps(
            common.training_spec(workload, 4, 4, tmp_path), sort_keys=True)


def test_wrappers_are_restored(tmp_path):
    common.use_repo_source()
    from repro import api
    from repro.nn.tensor import Tensor
    backward = Tensor.backward
    job = api.build_job(api.JobSpec.from_dict(common.training_spec(
        "lp_disk_gnn", 0, 1, tmp_path / "work", smoke=True)))
    trainer = job.trainer
    owners = [trainer, trainer.sampler, trainer.negatives, trainer.model,
              trainer.model.decoder, trainer.step_runner,
              trainer.step_runner.gnn_optimizer, trainer.buffer_manager,
              trainer.edge_store, trainer.buffer, trainer.policy]
    before = [dict(vars(owner)) for owner in owners]
    patches = trace.Patches()
    training.install_wrappers(trace.Tracer(), trainer,
                              {"nodes_per_batch": [], "plan_steps": []},
                              patches)
    assert Tensor.backward is not backward
    assert all(hasattr(fn, "__wrapped__") for fn in (
        trainer.sampler.sample, trainer.buffer.gather, trainer.model.encode,
        trainer.evaluate, trainer.step_runner.run, trainer.policy.plan_epoch))
    patches.restore()
    assert Tensor.backward is backward
    assert [dict(vars(owner)) for owner in owners] == before


def _smoke(workload: str, traced: int, results: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--smoke",
         "--workload", workload, "--trace", str(traced),
         "--results", str(results)],
        stdout=subprocess.PIPE, text=True, timeout=170,
        cwd=str(common.REPO))
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Per-layer metrics that must be non-zero where the layer is on the path.
ON_PATH = {
    "lp_disk_gnn": ["core.sample_s", "nn.encode_s", "nn.backward_s",
                    "nn.optim_s", "storage.swap_s", "storage.apply_s",
                    "graph.index_update_s", "policies.plan_steps",
                    "train.batch_glue_s", "train.eval_s", "api.build_s"],
    "lp_disk_kge": ["nn.decode_s", "nn.backward_s", "storage.swap_s",
                    "storage.gather_s", "storage.io_mb", "train.batches"],
    "lp_mem_gnn": ["core.sample_s", "train.table_gather_s",
                   "train.table_apply_s", "train.final_loss"],
    "serve_fleet_http": ["serve.engine_ms_p50", "fleet.wire_ms_p50",
                         "fleet.http_ms_p50", "fleet.topk_ms_p50",
                         "serve.mean_batch", "bench.sent", "api.build_s"],
}
OFF_PATH = {
    "lp_disk_kge": ["train.table_gather_s", "serve.engine_ms_p50"],
    "lp_mem_gnn": ["storage.swap_s", "storage.apply_s", "storage.io_mb",
                   "graph.index_update_s", "policies.plan_s"],
    "serve_fleet_http": ["nn.backward_s", "core.sample_s", "train.epoch_s"],
    "lp_disk_gnn": ["fleet.http_ms_p50", "train.table_apply_s"],
}


def test_smoke_emits_every_metric(tmp_path):
    jobs = [(w, t) for t in (1, 0) for w in common.WORKLOADS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        finals = list(pool.map(
            lambda job: _smoke(job[0], job[1], tmp_path / "results"), jobs))
    for (workload, traced), final in zip(jobs, finals):
        section = "per_layer" if traced else "end_to_end"
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True and final["failed"] == 0
        assert final["attempted"] >= 1
        assert list(final["metrics"]) == [m["name"]
                                          for m in CONTRACT[section]]
        for spec in CONTRACT[section]:
            assert final["metrics"][spec["name"]]["unit"] == spec["unit"]
        values = {k: v["value"] for k, v in final["metrics"].items()}
        if traced:
            assert all(values[name] > 0 for name in ON_PATH[workload]), (
                workload, {n: values[n] for n in ON_PATH[workload]})
            assert all(values[name] == 0 for name in OFF_PATH[workload]), (
                workload, {n: values[n] for n in OFF_PATH[workload]})
            assert (tmp_path / "results" / f"trace-{workload}.json").is_file()
        else:
            assert all(value > 0 for value in values.values()), values
    assert not (tmp_path / "results" / "tmp").exists() or not any(
        (tmp_path / "results" / "tmp").iterdir())


def test_compare_verdicts(tmp_path, capsys):
    def runs(path, throughput, p99s):
        rows = [{"workload": "lp_disk_gnn", "seed": i, "trace": 0,
                 "metrics": {"throughput": throughput, "tail_ms": p99}}
                for i, p99 in enumerate(p99s)]
        rows.append({"workload": "lp_disk_gnn", "seed": 0, "trace": 1,
                     "metrics": {"throughput": 1.0}})     # traced: ignored
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    steady = [10.0, 10.1, 10.2, 10.3, 10.4]
    noisy = [5.0, 8.0, 10.0, 12.0, 15.0]
    a = runs(tmp_path / "a.jsonl", 1000.0, steady)
    slower = runs(tmp_path / "b.jsonl", 700.0, noisy)
    rows = {r["metric"]: r for r in compare.compare(
        compare.load_runs(a), compare.load_runs(slower), CONTRACT)}
    assert rows["throughput"]["verdict"] == "regressed"     # -30% > 25%
    assert rows["throughput"]["worse"] == pytest.approx(0.3)
    assert rows["tail_ms"]["verdict"] == "unresolved"       # spread > bound
    assert compare.main([str(a), str(slower)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "regressed" in capsys.readouterr().out
