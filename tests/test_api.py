"""The unified job API: spec round-trips, registry, ``--set``, run().

Three contracts under test:

* spec round-trip — ``from_dict(to_dict(spec))`` is the identity for
  every job kind, and unknown sections/fields and mistyped values are
  rejected;
* ``--set`` parity — ``repro run base.json --set section.field=value``
  and the same job written inline as one spec file resolve to the
  *same* ``JobSpec`` (asserted through ``--dump-spec`` on both paths),
  and a later ``--set`` wins over the file and over earlier ones;
* execution — ``repro.api.run`` / ``repro run spec.json`` can express
  and execute the job kinds end to end, including snapshot + resume.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import api, cli
from repro.api import (CheckpointSpec, DataSpec, JobSpec, ModelSpec,
                       ServeSpec, StorageSpec, StreamSpec, TrainSpec,
                       registry)
from repro.serve import loader as serve_loader

# Non-default values exercising every section a kind reads.
SPEC_SAMPLES = {
    "lp-mem": JobSpec(kind="lp-mem",
                      data=DataSpec(dataset="wikikg90m-mini", scale=0.2),
                      model=ModelSpec(dim=48, encoder="gcn", decoder="transe",
                                      fanouts=(7, 3)),
                      train=TrainSpec(batch_size=128, negatives=32, epochs=2,
                                      seed=9),
                      checkpoint=CheckpointSpec(every=1, dir="snaps",
                                                resume_from="snaps")),
    "lp-disk": JobSpec(kind="lp-disk",
                       model=ModelSpec(encoder="none"),
                       storage=StorageSpec(workdir="w", partitions=8,
                                           logical=4, buffer=2,
                                           policy="beta"),
                       checkpoint=CheckpointSpec(every=3, dir="ck")),
    "nc-mem": JobSpec(kind="nc-mem",
                      data=DataSpec(nodes=800, edges=4000, classes=5),
                      model=ModelSpec(dim=16, fanouts=(4,)),
                      train=TrainSpec(epochs=1)),
    "nc-disk": JobSpec(kind="nc-disk",
                       data=DataSpec(nodes=600),
                       storage=StorageSpec(partitions=4, buffer=2)),
    "lp-stream": JobSpec(kind="lp-stream",
                         stream=StreamSpec(events=100, compact_every=50),
                         storage=StorageSpec(buffer=2)),
    "serve": JobSpec(kind="serve",
                     serve=ServeSpec(snapshot="snaps", embed="1,2",
                                     score=("1:2", "3:0:4"), topk=(5, 3),
                                     bench=10, mix="random")),
    "stream": JobSpec(kind="stream",
                      data=DataSpec(dataset="freebase86m-mini", scale=0.02),
                      stream=StreamSpec(events=200, delete_fraction=0.3,
                                        refresh=True, verify=True)),
}


# ---------------------------------------------------------------------------
# Spec round-trip + rejection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(SPEC_SAMPLES))
def test_spec_roundtrip_identity(kind):
    spec = SPEC_SAMPLES[kind]
    assert JobSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("kind", sorted(SPEC_SAMPLES))
def test_resolved_spec_roundtrip_and_idempotence(kind):
    resolved = SPEC_SAMPLES[kind].resolve()
    again = JobSpec.from_dict(resolved.to_dict())
    assert again == resolved
    assert again.resolve() == resolved    # resolution is idempotent


@pytest.mark.parametrize("kind", sorted(SPEC_SAMPLES))
def test_spec_file_roundtrip(kind, tmp_path):
    spec = SPEC_SAMPLES[kind]
    path = api.save_spec(spec, tmp_path / "job.json")
    assert api.load_spec(path) == spec


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown job kind"):
        JobSpec.from_dict({"kind": "lp-quantum"})


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown spec section"):
        JobSpec.from_dict({"kind": "lp-mem", "storage": {"buffer": 2}})


def test_unknown_field_rejected():
    with pytest.raises(ValueError, match="unknown field"):
        JobSpec.from_dict({"kind": "lp-mem", "train": {"epoches": 3}})


def test_removed_stream_field_rejected():
    with pytest.raises(ValueError, match="unknown field"):
        JobSpec.from_dict({"kind": "stream", "stream": {"lock_stripes": 4}})


@pytest.mark.parametrize("kind", ["lp-stream", "stream"])
def test_stream_kinds_reject_eval_every(kind):
    with pytest.raises(api.JobError, match="no evaluation split"):
        JobSpec.from_dict({"kind": kind,
                           "train": {"eval_every": 1}}).resolve()


def test_missing_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        JobSpec.from_dict({"train": {"epochs": 3}})


def test_serve_requires_snapshot():
    with pytest.raises(ValueError, match="serve.snapshot"):
        JobSpec(kind="serve").resolve()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_lists_all_eight_kinds():
    assert set(api.job_kinds()) == {"lp-mem", "lp-disk",
                                    "nc-mem", "nc-disk", "lp-stream",
                                    "serve", "serve-fleet", "stream"}


def test_registry_owns_trainer_kind_strings():
    from repro.stream import ContinualTrainer
    from repro.train import (DiskLinkPredictionTrainer,
                             DiskNodeClassificationTrainer,
                             LinkPredictionTrainer, NodeClassificationTrainer)
    assert LinkPredictionTrainer.KIND == registry.LP_MEM
    assert DiskLinkPredictionTrainer.KIND == registry.LP_DISK
    assert NodeClassificationTrainer.KIND == registry.NC_MEM
    assert DiskNodeClassificationTrainer.KIND == registry.NC_DISK
    assert ContinualTrainer.KIND == registry.LP_STREAM
    assert serve_loader.LP_SNAPSHOT_KINDS is registry.LP_SNAPSHOT_KINDS
    assert serve_loader.NC_SNAPSHOT_KINDS is registry.NC_SNAPSHOT_KINDS


def test_every_kind_has_a_factory():
    for kind in api.job_kinds():
        assert callable(api.get_factory(kind))


def test_info_jobs_schema_generated_from_registry(capsys):
    assert cli.main(["info", "--jobs"]) == 0
    out = capsys.readouterr().out
    for kind in api.job_kinds():
        assert kind in out
    # one-line-per-field, straight from the dataclasses
    assert "model.fanouts" in out
    assert "checkpoint.resume_from" in out


# ---------------------------------------------------------------------------
# --set parity: overrides on a base file vs the job written inline
# ---------------------------------------------------------------------------

def _dump(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _run_argv(path, overrides=(), dump=True):
    argv = ["run", str(path)]
    for assignment in overrides:
        argv += ["--set", assignment]
    return argv + (["--dump-spec"] if dump else [])


def _spec_file(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# (base spec, --set overrides, the same job inline), one case per kind
# the retired flag subcommands covered. Ids name the subcommand
# invocation each case replaces, so the table doubles as a migration
# guide.
PARITY_CASES = {
    "train-lp": (
        {"kind": "lp-mem", "train": {"epochs": 9}}, ["train.epochs=null"],
        {"kind": "lp-mem"}),
    "train-lp --scale 0.2": (
        {"kind": "lp-mem"},
        ["data.scale=0.2", "train.epochs=1", "model.encoder=none",
         "model.dim=12", "train.seed=3"],
        {"kind": "lp-mem", "data": {"scale": 0.2},
         "model": {"dim": 12, "encoder": "none"},
         "train": {"epochs": 1, "seed": 3}}),
    "train-lp --disk --policy": (
        {"kind": "lp-disk"},
        ["storage.policy=beta", "storage.partitions=8", "storage.logical=4",
         "storage.buffer=2", "storage.workdir=W", "checkpoint.every=2",
         "checkpoint.dir=W/ck"],
        {"kind": "lp-disk",
         "storage": {"workdir": "W", "partitions": 8, "logical": 4,
                     "buffer": 2, "policy": "beta"},
         "checkpoint": {"every": 2, "dir": "W/ck"}}),
    "train-nc --nodes 900": (
        {"kind": "nc-mem"},
        ["data.nodes=900", "model.dim=24", "train.epochs=2"],
        {"kind": "nc-mem", "data": {"nodes": 900}, "model": {"dim": 24},
         "train": {"epochs": 2}}),
    "train-nc --disk --partitions": (
        {"kind": "nc-disk"}, ["storage.partitions=4", "storage.buffer=2"],
        {"kind": "nc-disk", "storage": {"partitions": 4, "buffer": 2}}),
    "serve --snapshot S": (
        {"kind": "serve", "serve": {"snapshot": "old"}},
        ["serve.snapshot=S", "serve.embed=1,2", "serve.topk=[3,5]",
         "serve.bench=100", "serve.mix=random", "data.nodes=777"],
        {"kind": "serve", "data": {"nodes": 777},
         "serve": {"snapshot": "S", "embed": "1,2", "topk": [3, 5],
                   "bench": 100, "mix": "random"}}),
    "serve-fleet --snapshot S": (
        {"kind": "serve-fleet", "serve": {"snapshot": "S"}},
        ["fleet.workers=4", "fleet.port=8080", "fleet.timeout_ms=50",
         "serve.rel=1"],
        {"kind": "serve-fleet", "serve": {"snapshot": "S", "rel": 1},
         "fleet": {"workers": 4, "port": 8080, "timeout_ms": 50.0}}),
    "stream --events 500": (
        {"kind": "stream"},
        ["stream.events=500", "stream.compact_every=100",
         "stream.refresh=true", "model.dim=16", "storage.buffer=2",
         "stream.verify=true"],
        {"kind": "stream", "model": {"dim": 16}, "storage": {"buffer": 2},
         "stream": {"events": 500, "compact_every": 100, "refresh": True,
                    "verify": True}}),
}


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_cli_flag_and_spec_file_parity(case, capsys, tmp_path):
    """``--set`` flags over a base spec file and the job written inline
    must resolve to byte-identical JobSpecs."""
    base, overrides, inline = PARITY_CASES[case]
    from_flags = _dump(capsys, _run_argv(
        _spec_file(tmp_path, base, "base.json"), overrides))
    from_spec = _dump(capsys, _run_argv(_spec_file(tmp_path, inline)))
    assert from_flags == from_spec


# ---------------------------------------------------------------------------
# --set precedence, naming, and typing
# ---------------------------------------------------------------------------

def test_explicit_flags_win_over_config_file(capsys, tmp_path):
    """A ``--set`` beats the spec file and any earlier ``--set``; the
    file fills the rest."""
    config = _spec_file(tmp_path, {"kind": "lp-mem", "model": {"dim": 64},
                                   "train": {"epochs": 7, "seed": 5}})
    spec = _dump(capsys, _run_argv(config, ["train.epochs=9",
                                            "train.epochs=2"]))
    assert spec["train"]["epochs"] == 2      # the last --set wins
    assert spec["model"]["dim"] == 64        # the file fills the rest
    assert spec["train"]["seed"] == 5


def test_config_file_unknown_key_rejected(tmp_path):
    """An unknown section or field in ``--set`` fails by name through
    from_dict's unknown-name check, exactly as in a spec file."""
    config = _spec_file(tmp_path, {"kind": "lp-mem"})
    with pytest.raises(SystemExit, match=r"unknown field.*'epoches'"):
        cli.main(_run_argv(config, ["train.epoches=7"]))
    with pytest.raises(SystemExit, match=r"unknown spec section.*'storage'"):
        cli.main(_run_argv(config, ["storage.buffer=2"]))
    with pytest.raises(SystemExit, match="section.field=value"):
        cli.main(_run_argv(config, ["epochs=2"]))


def test_set_str_field_keeps_text_verbatim(capsys, tmp_path):
    config = _spec_file(tmp_path, {"kind": "serve",
                                   "serve": {"snapshot": "S"}})
    spec = _dump(capsys, _run_argv(config, ["serve.embed=1"]))
    assert spec["serve"]["embed"] == "1"
    spec = _dump(capsys, _run_argv(config, ["serve.embed=1,2,3",
                                            "serve.classify=null"]))
    assert spec["serve"]["embed"] == "1,2,3"
    assert spec["serve"]["classify"] is None   # null clears an Optional


@pytest.mark.parametrize("value", ["1.5", '"x"', "x", "true", "[1]"])
def test_set_mistyped_value_is_clean_error(value, tmp_path):
    config = _spec_file(tmp_path, {"kind": "lp-mem"})
    with pytest.raises(SystemExit, match="train.epochs"):
        cli.main(_run_argv(config, [f"train.epochs={value}"], dump=False))


def test_from_dict_checks_value_types():
    """Spec values are checked against their field annotations, so a
    mistyped value fails at parse time instead of deep in a run."""
    bad = [{"kind": "lp-mem", "train": {"epochs": "1"}},
           {"kind": "lp-mem", "train": {"epochs": True}},
           {"kind": "lp-mem", "model": {"fanouts": [5, "5"]}},
           {"kind": "lp-mem", "model": {"fanouts": 5}},
           {"kind": "serve", "serve": {"snapshot": "S", "topk": [1, 2, 3]}},
           {"kind": "serve", "serve": {"snapshot": "S", "embed": 1}},
           {"kind": "stream", "stream": {"verify": 1}}]
    for payload in bad:
        with pytest.raises(api.JobError, match="must be"):
            JobSpec.from_dict(payload)
    spec = JobSpec.from_dict({"kind": "lp-mem", "data": {"scale": 1},
                              "model": {"fanouts": [5, 5]}})
    assert spec.data.scale == 1 and spec.model.fanouts == (5, 5)


EXAMPLE_SPECS = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "specs")
    .glob("*.json"))


@pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda p: p.name)
def test_example_specs_resolve(path, capsys):
    """Every shipped spec file loads and resolves through the CLI."""
    assert _dump(capsys, _run_argv(path))["kind"]


# ---------------------------------------------------------------------------
# Execution: api.run / repro run end to end
# ---------------------------------------------------------------------------

def _tiny_lp_spec(**checkpoint):
    return JobSpec(kind="lp-mem",
                   data=DataSpec(dataset="fb15k237", scale=0.03),
                   model=ModelSpec(dim=8, encoder="none"),
                   train=TrainSpec(batch_size=256, negatives=16, epochs=1,
                                   eval_negatives=32, eval_max_edges=100),
                   checkpoint=CheckpointSpec(**checkpoint))


def test_api_run_returns_train_result():
    events = []
    result = api.run(_tiny_lp_spec(), on_event=lambda e, p: events.append(e))
    assert np.isfinite(result.final_mrr)
    assert len(result.epochs) == 1
    assert "epoch" in events      # listener hook fired


def test_api_run_matches_direct_trainer():
    """The API path is the trainer path — same seed, same final params."""
    from repro.graph import load_fb15k237
    from repro.train import LinkPredictionConfig, LinkPredictionTrainer
    via_api = api.build_job(_tiny_lp_spec())
    api_result = via_api.run()
    direct = LinkPredictionTrainer(
        load_fb15k237(scale=0.03),
        LinkPredictionConfig(embedding_dim=8, encoder="none", batch_size=256,
                             num_negatives=16, num_epochs=1,
                             eval_negatives=32, eval_max_edges=100,
                             eval_every=1, seed=0))
    direct_result = direct.train()
    np.testing.assert_array_equal(via_api.trainer.embeddings.table,
                                  direct.embeddings.table)
    assert api_result.final_mrr == direct_result.final_mrr


def test_repro_run_snapshot_then_resume(tmp_path, capsys):
    """`repro run` trains with a checkpoint cadence, then a second spec
    resumes from the snapshot root and continues."""
    ckpt = tmp_path / "ckpt"
    first = _tiny_lp_spec(every=1, dir=str(ckpt))
    spec_file = api.save_spec(first, tmp_path / "train.json")
    assert cli.main(["run", str(spec_file)]) == 0
    assert capsys.readouterr().out.count("final MRR") == 1
    snaps = list(ckpt.glob("snap-*"))
    assert snaps, "checkpoint cadence wrote no snapshot"

    resume = _tiny_lp_spec(every=0, dir=str(ckpt), resume_from=str(ckpt))
    resume.train.epochs = 2
    spec_file = api.save_spec(resume, tmp_path / "resume.json")
    assert cli.main(["run", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert "resumed from snapshot at epoch 1" in out
    assert "final MRR" in out


def test_job_snapshot_roundtrips_through_serving(tmp_path):
    """job.snapshot() after run() produces a servable snapshot."""
    job = api.build_job(_tiny_lp_spec(every=0, dir=str(tmp_path / "ck")))
    job.run()
    snap = job.snapshot()
    serve_spec = JobSpec(kind="serve",
                         serve=ServeSpec(snapshot=str(snap), embed="0,1"),
                         storage=StorageSpec(workdir=str(tmp_path / "sv")))
    results = api.run(serve_spec)
    ids, rows = results["embed"]
    assert ids.tolist() == [0, 1]
    np.testing.assert_array_equal(rows[0], job.trainer.embeddings.table[0])


def test_lp_stream_kind_runs_continual_refresh(tmp_path):
    """The lp-stream kind ingests, compacts, and refresh-trains by default
    (stream.refresh resolves on)."""
    spec = JobSpec(kind="lp-stream",
                   data=DataSpec(dataset="freebase86m-mini", scale=0.02),
                   model=ModelSpec(dim=8),
                   train=TrainSpec(batch_size=128, negatives=8),
                   storage=StorageSpec(workdir=str(tmp_path / "stream"),
                                       partitions=4, buffer=2),
                   stream=StreamSpec(events=400, event_batch=100,
                                     compact_every=150, add_nodes_every=0,
                                     verify=True))
    assert spec.resolve().stream.refresh is True
    stats = api.run(spec)
    assert stats["compactions"] >= 1
    assert stats["refreshes"] >= 1
    assert stats["events_appended"] > 0


def test_run_unknown_dataset_is_clean_error(tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps(
        {"kind": "lp-mem", "data": {"dataset": "nope"}}))
    with pytest.raises(SystemExit, match="unknown LP dataset"):
        cli.main(["run", str(spec_file)])


def test_lp_dataset_seed_reaches_the_loader():
    """DataSpec.seed is honored for LP kinds, not silently dropped."""
    from repro.api.jobs import _lp_dataset
    spec0 = _tiny_lp_spec().resolve()
    spec7 = _tiny_lp_spec().resolve()
    spec7.data.seed = 7
    a, b = _lp_dataset(spec0), _lp_dataset(spec7)
    assert not np.array_equal(a.split.train, b.split.train)
    assert np.array_equal(_lp_dataset(spec0).split.train, a.split.train)


def test_serve_results_keep_duplicate_queries(tmp_path):
    """Structured serve results are parallel arrays — duplicate ids are
    not collapsed the way a dict keyed by id would."""
    job = api.build_job(_tiny_lp_spec(every=0, dir=str(tmp_path / "ck")))
    job.run()
    snap = job.snapshot()
    results = api.run(JobSpec(
        kind="serve",
        serve=ServeSpec(snapshot=str(snap), embed="5,5,7",
                        score=("1:2", "1:2")),
        storage=StorageSpec(workdir=str(tmp_path / "sv"))))
    ids, rows = results["embed"]
    assert ids.tolist() == [5, 5, 7] and len(rows) == 3
    assert len(results["score"]) == 2
    assert results["score"][0] == results["score"][1]


def test_nc_dataset_name_is_validated():
    spec = JobSpec(kind="nc-mem", data=DataSpec(dataset="fb15k237"))
    with pytest.raises(ValueError, match="unknown NC dataset"):
        api.build_job(spec)


def test_to_dict_rejects_populated_unread_section():
    """Symmetric with from_dict: data in a section the kind doesn't read
    is rejected, never silently dropped by serialization."""
    spec = JobSpec(kind="serve", serve=ServeSpec(snapshot="s"),
                   train=TrainSpec(seed=7))
    with pytest.raises(ValueError, match="does not read"):
        spec.to_dict()


def test_internal_errors_keep_their_traceback(monkeypatch, tmp_path):
    """Only JobError becomes a clean SystemExit; a ValueError from deep
    inside a run is a real defect and must propagate."""
    from repro.api import jobs

    def boom(self, verbose=False):
        raise ValueError("internal defect")
    monkeypatch.setattr(jobs.TrainingJob, "run", boom)
    spec_file = api.save_spec(_tiny_lp_spec(), tmp_path / "job.json")
    with pytest.raises(ValueError, match="internal defect"):
        cli.main(["run", str(spec_file)])
