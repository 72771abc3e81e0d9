"""Checkpointing: atomic training snapshots.

:class:`SnapshotManager` is the crash-safe snapshot subsystem. A snapshot
is a directory ``snap-<step_id>`` holding ``arrays.npz`` (every numpy
array of the training state: node table, optimizer slabs, model
parameters, dense-optimizer moments) and ``manifest.json`` (format
version, CRC of the array payload, and the JSON-able metadata: epoch/step
cursors, buffer residency, per-stream RNG states, store fingerprints,
policy state). Writes follow the classic atomicity protocol:
**write-temp + fsync + rename** — the temp directory only becomes visible
under its final name via one atomic ``os.rename``, so a reader never
observes a partial snapshot and a crash mid-save leaves only a ``tmp-*``
directory that the next save or scan sweeps away.

The resume guarantee (enforced by ``tests/test_checkpoint_recovery.py``):
restoring the latest snapshot and continuing produces **bit-identical**
parameters to the uninterrupted run, because a snapshot captures every
source of state the training math reads — parameters, optimizer moments,
the embedding table *and* its Adagrad state, buffer residency, and the
exact RNG stream positions.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Module
from ..obs.trace import traced
from ..storage.atomic import fsync_dir
from ..storage.io_stats import crc_file as _crc_file

SNAPSHOT_VERSION = 1
_SNAP_PREFIX = "snap-"
_TMP_PREFIX = "tmp-"

FaultHook = Callable[[str], None]


# ---------------------------------------------------------------------------
# RNG stream state
# ---------------------------------------------------------------------------

def rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-able state of a numpy Generator (PCG64 ints serialize fine)."""
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a Generator *in place* (every holder of the object sees it)."""
    rng.bit_generator.state = state


# ---------------------------------------------------------------------------
# Array-dict flattening for model / optimizer state
# ---------------------------------------------------------------------------

def flatten_arrays(prefix: str, state: Dict[str, np.ndarray],
                   into: Dict[str, np.ndarray]) -> None:
    """Merge ``state`` under ``prefix/`` keys into the snapshot array dict."""
    for name, value in state.items():
        into[f"{prefix}/{name}"] = np.asarray(value)


def unflatten_arrays(prefix: str, arrays: Dict[str, np.ndarray]
                     ) -> Dict[str, np.ndarray]:
    head = f"{prefix}/"
    return {key[len(head):]: arrays[key] for key in arrays if key.startswith(head)}


# ---------------------------------------------------------------------------
# Atomic snapshot store
# ---------------------------------------------------------------------------

class SnapshotError(RuntimeError):
    """A snapshot is missing, truncated, or fails validation."""


class SnapshotManager:
    """Versioned, atomic on-disk snapshots under one root directory.

    Parameters
    ----------
    root:
        Directory holding the ``snap-*`` snapshot directories.
    keep:
        Retain at most this many complete snapshots (oldest pruned first).
    fault_hook:
        Test-only injection point: called with a crash-point name at the
        I/O boundaries of :meth:`save` (``snapshot-begin``,
        ``snapshot-pre-rename``, ``snapshot-post-rename``). Production code
        leaves it ``None``.
    compress:
        Write ``arrays.npz`` with zlib compression (``savez_compressed``).
        Purely a storage-format choice: the CRC covers the compressed
        payload, :meth:`load` reads both formats transparently, and a
        manager may load snapshots written with either setting — so runs
        can toggle compression between saves without invalidating history.
        Embedding tables compress modestly; Adagrad state and sparse
        policy arrays compress well.
    """

    def __init__(self, root: os.PathLike, keep: int = 2,
                 fault_hook: Optional[FaultHook] = None,
                 compress: bool = False) -> None:
        self.root = Path(root)
        if keep < 1:
            raise ValueError("must keep at least one snapshot")
        self.keep = keep
        self.fault_hook = fault_hook
        self.compress = bool(compress)

    # ------------------------------------------------------------------
    def _fire(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _sweep_tmp(self) -> None:
        if not self.root.is_dir():
            return
        for leftover in self.root.glob(f"{_TMP_PREFIX}*"):
            shutil.rmtree(leftover, ignore_errors=True)

    # ------------------------------------------------------------------
    @traced("snapshot.save")
    def save(self, step_id: int, meta: Dict[str, Any],
             arrays: Dict[str, np.ndarray],
             base: Optional[str] = None) -> Path:
        """Write a snapshot atomically; returns its directory.

        ``meta`` must be JSON-serializable; ``arrays`` maps names to numpy
        arrays. ``step_id`` seeds the directory ordinal (bumped past any
        existing snapshots so this save sorts latest). The snapshot becomes
        visible only after the final rename.

        ``base`` names a sibling snapshot directory this one is an
        *incremental delta* of: array keys of the form
        ``delta/<name>/<row>`` overlay the base's ``<name>`` array at that
        row offset on load (see :func:`compose_arrays`), every other key
        replaces the base's outright. The base must exist under the same
        root; pruning keeps chained bases alive as long as any retained
        snapshot references them.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if base is not None and not (self.root / base / "manifest.json").is_file():
            raise SnapshotError(
                f"incremental snapshot references base {base!r} which does "
                f"not exist under {self.root}")
        self._sweep_tmp()
        # The directory ordinal is the *save* sequence, not the training
        # cursor (the cursor lives in the manifest): normally they coincide,
        # but a run resumed from an older snapshot may re-reach (or fall
        # behind) ids a crashed run left on disk — its fresher save must
        # sort last for latest() without ever touching the old directories,
        # so there is no demote/replace window for a crash to land in.
        ordinal = int(step_id)
        existing = self.list()
        if existing:
            ordinal = max(ordinal, self._step_of(existing[-1]) + 1)
        final = self.root / f"{_SNAP_PREFIX}{ordinal:012d}"
        while final.exists():   # debris of an incomplete snapshot
            ordinal += 1
            final = self.root / f"{_SNAP_PREFIX}{ordinal:012d}"
        tmp = self.root / f"{_TMP_PREFIX}{ordinal:012d}"
        tmp.mkdir()
        self._fire("snapshot-begin")

        writer = np.savez_compressed if self.compress else np.savez
        with open(tmp / "arrays.npz", "wb") as fh:
            writer(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        crc = _crc_file(tmp / "arrays.npz")

        manifest = {"version": SNAPSHOT_VERSION, "step_id": int(step_id),
                    "arrays_crc": crc, "meta": meta}
        if base is not None:
            manifest["base"] = str(base)
        with open(tmp / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        fsync_dir(tmp)

        self._fire("snapshot-pre-rename")
        os.rename(tmp, final)
        fsync_dir(self.root)
        self._fire("snapshot-post-rename")
        self._prune()
        return final

    def _prune(self) -> None:
        """Drop all but the newest ``keep`` snapshots — except snapshots a
        retained incremental snapshot (transitively) chains to as its base,
        which must stay loadable for the chain to compose."""
        snaps = self.list()
        if len(snaps) <= self.keep:
            return
        by_name = {p.name: p for p in snaps}
        keep_names = {p.name for p in snaps[-self.keep:]}
        frontier = list(keep_names)
        while frontier:
            base = self._base_of(by_name[frontier.pop()])
            if base and base in by_name and base not in keep_names:
                keep_names.add(base)
                frontier.append(base)
        for old in snaps:
            if old.name not in keep_names:
                shutil.rmtree(old, ignore_errors=True)

    @staticmethod
    def _base_of(path: Path) -> Optional[str]:
        try:
            return json.loads((path / "manifest.json").read_text()).get("base")
        except (OSError, ValueError):
            return None

    # ------------------------------------------------------------------
    @staticmethod
    def _step_of(path: Path) -> int:
        try:
            return int(path.name[len(_SNAP_PREFIX):])
        except ValueError:
            return -1

    def list(self) -> List[Path]:
        """Complete snapshots under the root, oldest first.

        Ordered by the numeric step id, not the directory name — a step id
        wider than the 12-digit zero padding must still sort after the
        padded ones (lexicographic order would call it oldest and prune it).
        """
        if not self.root.is_dir():
            return []
        out = []
        for cand in self.root.glob(f"{_SNAP_PREFIX}*"):
            if (self._step_of(cand) >= 0 and (cand / "manifest.json").is_file()
                    and (cand / "arrays.npz").is_file()):
                out.append(cand)
        return sorted(out, key=self._step_of)

    def latest(self) -> Optional[Path]:
        snaps = self.list()
        return snaps[-1] if snaps else None

    @traced("snapshot.load")
    def load(self, path: Optional[os.PathLike] = None, compose: bool = True
             ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Read and validate a snapshot; returns ``(meta, arrays)``.

        With ``path=None`` the latest complete snapshot is used. Validation
        covers the format version and the CRC of the array payload, so a
        torn copy is rejected rather than silently restored. An incremental
        snapshot (manifest ``base``) is composed over its CRC-verified base
        chain transparently, so callers always see full arrays; pass
        ``compose=False`` for the raw delta payload.
        """
        if path is None:
            path = self.latest()
            if path is None:
                raise SnapshotError(f"no snapshots under {self.root}")
        path = Path(path)
        try:
            manifest = json.loads((path / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"unreadable manifest in {path}") from exc
        if manifest.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot {path.name} has format version "
                f"{manifest.get('version')}, expected {SNAPSHOT_VERSION}")
        if _crc_file(path / "arrays.npz") != manifest["arrays_crc"]:
            raise SnapshotError(f"snapshot {path.name} failed its CRC check")
        with np.load(path / "arrays.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        base = manifest.get("base")
        if compose and base:
            if not (self.root / base / "manifest.json").is_file():
                raise SnapshotError(
                    f"snapshot {path.name} chains to base {base!r} which is "
                    f"missing under {self.root}")
            _, base_arrays = self.load(self.root / base)
            arrays = compose_arrays(base_arrays, arrays)
        return manifest["meta"], arrays


DELTA_PREFIX = "delta/"


def delta_key(name: str, row: int) -> str:
    """Array key for an incremental row-span overlay of ``name`` at ``row``."""
    return f"{DELTA_PREFIX}{name}/{int(row)}"


def compose_arrays(base: Dict[str, np.ndarray],
                   delta: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Overlay an incremental snapshot's arrays onto its base's.

    Keys of the form ``delta/<name>/<row>`` write their rows into a copy
    of the base's ``<name>`` array at offset ``row`` (the partition spans
    the trainer recorded); every other key replaces the base entry. The
    result is indistinguishable from a full snapshot's array dict.
    """
    out = dict(base)
    copied = set()
    for key, arr in delta.items():
        if not key.startswith(DELTA_PREFIX):
            out[key] = arr
            continue
        _, name, row = key.split("/")
        lo = int(row)
        if name not in out:
            raise SnapshotError(
                f"incremental overlay {key!r} has no base array {name!r}")
        if name not in copied:
            out[name] = out[name].copy()
            copied.add(name)
        if lo + len(arr) > len(out[name]):
            raise SnapshotError(
                f"incremental overlay {key!r} spans past the base array "
                f"({lo}+{len(arr)} > {len(out[name])})")
        out[name][lo : lo + len(arr)] = arr
    return out


def resolve_snapshot_dir(path: os.PathLike) -> Path:
    """Normalize a snapshot argument that may name either one ``snap-*``
    directory or a checkpoint root: the root resolves to its latest
    complete snapshot. The single place the dir-or-root rule lives —
    serving, stream resume, and :func:`open_snapshot` all route here."""
    path = Path(path)
    if (path / "manifest.json").is_file():
        return path
    latest = SnapshotManager(path).latest()
    if latest is None:
        raise SnapshotError(f"no snapshots under {path}")
    return latest


def open_snapshot(path: os.PathLike
                  ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Load a snapshot by path: either one ``snap-*`` directory or a
    checkpoint root (in which case the latest complete snapshot is used)."""
    path = resolve_snapshot_dir(path)
    return SnapshotManager(path.parent).load(path)


@dataclasses.dataclass
class InferenceRestore:
    """A snapshot opened for read-only inference (no trainer round-trip).

    Serving needs the model parameters, the node table (when the snapshot
    carries one), and enough metadata to validate the store layout — and
    nothing else. Optimizer moments, policy state, RNG stream positions and
    training cursors stay untouched in the snapshot: they are replay state,
    meaningful only to a resuming trainer, and an inference restore must
    not require them to round-trip through trainer construction.
    """

    meta: Dict[str, Any]
    model_state: Dict[str, np.ndarray]
    node_table: Optional[np.ndarray]

    @property
    def trainer_kind(self) -> str:
        return str(self.meta.get("trainer", ""))

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self.meta.get("config", {}))

    def store_fingerprint(self, name: str) -> Optional[str]:
        return self.meta.get("stores", {}).get(name)


def restore_for_inference(path: os.PathLike) -> InferenceRestore:
    """Open a snapshot read-only for serving: model params + node table.

    Accepts either one ``snap-*`` directory or a checkpoint root (latest
    snapshot wins). Works for every trainer kind — the LP trainers store
    the table as ``node_table``/``emb_table``; NC snapshots carry no table
    (features are immutable) and return ``node_table=None``.
    """
    meta, arrays = open_snapshot(path)
    table = arrays.get("node_table", arrays.get("emb_table"))
    return InferenceRestore(meta=meta,
                            model_state=unflatten_arrays("model", arrays),
                            node_table=table)


def resolve_snapshot(path: Optional[os.PathLike],
                     manager: Optional[SnapshotManager]
                     ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The trainers' shared resume dispatch: an explicit path wins,
    otherwise the trainer's own manager provides its latest snapshot."""
    if path is not None:
        return open_snapshot(path)
    if manager is not None:
        return manager.load()
    raise RuntimeError("no checkpoint_dir and no explicit snapshot path")


# ---------------------------------------------------------------------------
# Shared trainer capture/restore helpers
# ---------------------------------------------------------------------------

def dataset_fingerprint(dataset) -> str:
    """Identity of a link prediction dataset's training data.

    The disk trainers pin their data via store fingerprints; the in-memory
    trainers record this instead, so a resume against regenerated splits or
    a different dataset of compatible shape is rejected rather than
    silently continuing with unrelated embeddings and cursors.
    """
    edges = np.ascontiguousarray(dataset.split.train)
    crc = zlib.crc32(edges.tobytes())
    return (f"dataset:{dataset.graph.num_nodes}:{len(edges)}:"
            f"{edges.shape[1] if edges.ndim > 1 else 1}:{crc:08x}")


def nc_dataset_fingerprint(dataset) -> str:
    """Identity of a node classification dataset (features + splits).

    The in-memory NC trainer has no disk stores to fingerprint; this pins
    the graph shape, the feature/label contents, and the train split so a
    resume against regenerated data is rejected instead of silently
    continuing with mismatched cursors.
    """
    graph = dataset.graph
    crc = zlib.crc32(np.ascontiguousarray(dataset.train_nodes).tobytes())
    crc = zlib.crc32(np.ascontiguousarray(graph.node_labels).tobytes(), crc)
    crc = zlib.crc32(np.ascontiguousarray(graph.node_features).tobytes(), crc)
    return (f"nc-dataset:{graph.num_nodes}:{graph.num_edges}:"
            f"{graph.node_features.shape[1]}:{crc:08x}")


def pack_model_state(arrays: Dict[str, np.ndarray], model: Module,
                     gnn_optimizer) -> None:
    """Model parameters under ``model/``, the dense optimizer's moments
    (if there is one) under ``gnn_opt/``."""
    flatten_arrays("model", model.state_dict(), arrays)
    if gnn_optimizer is not None:
        flatten_arrays("gnn_opt", gnn_optimizer.state_dict(), arrays)


def unpack_model_state(arrays: Dict[str, np.ndarray], model: Module,
                       gnn_optimizer) -> None:
    model.load_state_dict(unflatten_arrays("model", arrays))
    if gnn_optimizer is not None:
        gnn_optimizer.load_state_dict(unflatten_arrays("gnn_opt", arrays))


def pack_store_table(arrays: Dict[str, np.ndarray], buffer, store,
                     parts: Optional[Sequence[int]] = None) -> None:
    """A buffered node store's table (+ Adagrad state) as snapshot arrays.

    The buffer is flushed first, so the copy holds the in-buffer slab's
    exact values (flushing writes the same bytes an eviction would later —
    training math is unaffected). ``parts=None`` packs the full
    ``node_table``/``node_state``; otherwise only those partitions' rows,
    as ``delta/...`` spans over a base snapshot (see :func:`compose_arrays`).
    """
    buffer.flush()
    store.flush()
    if parts is None:
        arrays["node_table"] = store.read_all()
        state = store.read_all_state()
        if state is not None:
            arrays["node_state"] = state
        return
    for part in sorted(parts):
        data, state = store.read_partition(part)
        lo = int(store.scheme.boundaries[part])
        arrays[delta_key("node_table", lo)] = data
        if state is not None:
            arrays[delta_key("node_state", lo)] = state


def restore_store_table(arrays: Dict[str, np.ndarray], buffer,
                        store) -> None:
    """Rewrite a buffered node store wholesale from snapshot arrays.

    The buffer's resident partitions are dropped without write-back, and
    the workdir memmaps are overwritten: partition writes torn by a crash
    after the snapshot cannot leak into the resumed run.
    """
    buffer.drop_all()
    store.restore(arrays["node_table"], arrays.get("node_state"))


# Config fields a resume may legitimately change: they steer how *long* or
# how training is *reported*, never the replayed math. Everything else
# (batch size, fanouts, lrs, seed, ...) shifts batch boundaries or rng
# consumption and would silently break the bit-identical-resume guarantee.
_RESUMABLE_CONFIG_DIFFS = frozenset(
    {"num_epochs", "eval_every", "eval_negatives", "eval_max_edges"})


def validate_meta(meta: Dict[str, Any], trainer_kind: str,
                  stores: Optional[Dict[str, str]] = None,
                  config: Optional[Any] = None) -> None:
    """Reject snapshots from a different trainer, storage layout, or
    training configuration (cursors and rng states are only meaningful
    under the exact config that produced them)."""
    if meta.get("trainer") != trainer_kind:
        raise SnapshotError(
            f"snapshot was written by trainer {meta.get('trainer')!r}, "
            f"cannot resume a {trainer_kind!r} trainer from it")
    if stores:
        recorded = meta.get("stores", {})
        for name, fingerprint in stores.items():
            if recorded.get(name) != fingerprint:
                raise SnapshotError(
                    f"{name} layout changed since the snapshot "
                    f"({recorded.get(name)} vs {fingerprint}); refusing to "
                    f"resume against different data or partitioning")
    if config is not None and "config" in meta:
        current = _config_to_dict(config)
        mismatched = sorted(
            key for key in set(current) | set(meta["config"])
            if key not in _RESUMABLE_CONFIG_DIFFS
            and current.get(key) != meta["config"].get(key))
        if mismatched:
            raise SnapshotError(
                "snapshot config differs on fields that change the replayed "
                f"training math: {mismatched}; resume with the original "
                "settings (only "
                f"{sorted(_RESUMABLE_CONFIG_DIFFS)} may change)")


# ---------------------------------------------------------------------------
# Trainer config serialization (snapshot ``meta["config"]``)
# ---------------------------------------------------------------------------

def _config_to_dict(config: Any) -> Dict[str, Any]:
    out = dataclasses.asdict(config)
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, Path):
            out[key] = str(value)
    return out
