"""Subprocess coverage of the ``serve`` job through the CLI.

These tests drive the real entry point (``python -m repro run serve.json
--set ...``) end to end over a decoder-only lp-disk snapshot: embedding
lookups, edge scoring, top-k ranking, the throughput probe, and the
missing-snapshot error path.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.datasets import load_freebase86m_mini
from repro.train import DiskConfig, DiskLinkPredictionTrainer, LinkPredictionConfig

REPO = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_serve(tmp_path, snapshot, *overrides, timeout=300):
    """``repro run`` a serve spec over ``snapshot`` (served table in
    ``tmp_path/serve``), each override passed as ``--set``."""
    spec = tmp_path / "serve.json"
    spec.write_text(json.dumps({
        "kind": "serve", "serve": {"snapshot": str(snapshot)},
        "storage": {"workdir": str(tmp_path / "serve")}}))
    argv = [sys.executable, "-m", "repro", "run", str(spec)]
    for assignment in overrides:
        argv += ["--set", assignment]
    return subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout, cwd=REPO, env=_env())


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A small decoder-only lp-disk snapshot (random table; the CLI tests
    exercise the serving path, not model quality)."""
    tmp = tmp_path_factory.mktemp("serve-cli")
    data = load_freebase86m_mini(num_nodes=2_000, num_edges=10_000, seed=0)
    config = LinkPredictionConfig(embedding_dim=16, encoder="none",
                                  num_epochs=0, seed=0)
    disk = DiskConfig(workdir=tmp / "train", num_partitions=4, num_logical=4,
                      buffer_capacity=2)
    trainer = DiskLinkPredictionTrainer(data, config, disk,
                                        checkpoint_dir=tmp / "ckpt")
    trainer.save_snapshot(0, 0, 1)
    return trainer.snapshots.latest()


def test_embed_score_topk(snapshot, tmp_path):
    result = run_serve(tmp_path, snapshot, "storage.buffer=2",
                       "serve.embed=1,2,3", 'serve.score=["1:2", "5:0:7"]',
                       "serve.topk=[4,5]")
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "serving lp-disk snapshot" in out
    assert out.count("node 1:") == 1 and "node 3:" in out
    assert "score(1:2) = " in out and "score(5:0:7) = " in out
    assert "top-5 targets for source 4" in out
    assert out.count("#") >= 5                      # five ranked rows
    assert "engine stats:" in out


def test_topk_excludes_source(snapshot, tmp_path):
    result = run_serve(tmp_path, snapshot, "serve.topk=[4,3]")
    assert result.returncode == 0, result.stderr
    ranked = [line for line in result.stdout.splitlines()
              if line.strip().startswith("#")]
    assert len(ranked) == 3
    assert not any(" node 4 " in f"{line} " for line in ranked)


def test_bench_probe(snapshot, tmp_path):
    result = run_serve(tmp_path, snapshot, "serve.bench=200",
                       "serve.mix=random", "serve.max_batch=64")
    assert result.returncode == 0, result.stderr
    assert "bench: 200 random lookups" in result.stdout
    assert "QPS" in result.stdout


def test_checkpoint_root_resolves_latest(snapshot, tmp_path):
    """Passing the checkpoint root (not a snap dir) serves the latest."""
    result = run_serve(tmp_path, snapshot.parent, "serve.embed=0")
    assert result.returncode == 0, result.stderr
    assert "node 0:" in result.stdout


def test_missing_snapshot_is_a_clean_error(tmp_path):
    result = run_serve(tmp_path, tmp_path / "nowhere", "serve.embed=0")
    assert result.returncode != 0
    assert "no snapshots under" in result.stderr


def test_wrong_snapshot_version_is_a_clean_error(snapshot, tmp_path):
    """A snapshot this build cannot read exits cleanly, naming both format
    versions, instead of dying with a traceback."""
    bad = tmp_path / "ckpt" / snapshot.name
    shutil.copytree(snapshot, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["version"] = 7
    (bad / "manifest.json").write_text(json.dumps(manifest))
    for target in (bad, bad.parent):           # snapshot dir and its root
        result = run_serve(tmp_path, target, "serve.embed=0")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr, result.stderr
        assert "format version 7, expected 2" in result.stderr


def test_embed_values_match_snapshot_table(snapshot, tmp_path):
    """The CLI prints the actual stored rows, not garbage."""
    table = np.concatenate([np.load(part) for part in
                            sorted((snapshot / "node_table").glob("*.npy"))])
    result = run_serve(tmp_path, snapshot, "serve.embed=7")
    assert result.returncode == 0, result.stderr
    line = next(l for l in result.stdout.splitlines() if "node 7:" in l)
    printed = [float(x) for x in
               line.split("[")[1].split(", ...")[0].split(",")]
    assert np.allclose(printed, table[7, :6], atol=5e-5)
