"""Checkpointing: atomic training snapshots.

:class:`SnapshotManager` is the crash-safe snapshot subsystem. A snapshot
is a directory ``snap-<step_id>`` holding ``manifest.json`` (format
version, a CRC-32 per file, and the JSON-able metadata: cursors, buffer
residency, RNG states, store fingerprints, policy state) and one raw
``.npy`` per array (``model/*``, ``gnn_opt/*``, lp-mem's ``emb_table``).
A disk trainer's node table and Adagrad state are the
:class:`~repro.storage.node_store.NodeStore`'s own partition files
(``node_table/<part>.npy``, ``node_state/<part>.npy``): a save hard-links
them and reads no table bytes, and a resume links them back. The store
never modifies a file a snapshot links (it writes a new file and renames
it over the linked one), so every snapshot directory stays complete and
unchanged on its own.

Writes follow the classic atomicity protocol: **write-temp + fsync +
rename** — the temp directory only becomes visible under its final name
via one atomic ``os.rename``, so a reader never observes a partial
snapshot and a crash mid-save leaves only a ``tmp-*`` directory that the
next save or scan sweeps away.

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
from typing import (Any, Callable, Dict, Iterator, List, Mapping, NamedTuple,
                    Optional, Tuple)

import numpy as np

from ..nn.module import Module
from ..obs.trace import traced
from ..storage.atomic import fsync_dir
from ..storage.io_stats import crc_file as _crc_file
from ..storage.node_store import link_or_copy, table_file as _table_file

SNAPSHOT_VERSION = 2
_SNAP_PREFIX = "snap-"
_TMP_PREFIX = "tmp-"

FaultHook = Callable[[str], None]


def unflatten_arrays(prefix: str, arrays: Mapping[str, np.ndarray]
                     ) -> Dict[str, np.ndarray]:
    """The arrays stored under ``prefix/`` keys, with the prefix stripped."""
    head = f"{prefix}/"
    return {key[len(head):]: arrays[key] for key in arrays if key.startswith(head)}


# ---------------------------------------------------------------------------
# Atomic snapshot store
# ---------------------------------------------------------------------------

class SnapshotError(RuntimeError):
    """A snapshot is missing, truncated, or fails validation."""


def _same_file(path: Path, other: Path) -> bool:
    try:
        return os.path.samefile(path, other)
    except OSError:
        return False


class Snapshot(Mapping):
    """A published snapshot opened for reading: ``meta`` plus a mapping
    of array names whose files are read (and CRC-checked) on access, so a
    reader touches only what it asks for. A partitioned table indexes as
    the whole table; its files sit at :func:`~repro.storage.node_store.
    table_file` paths under :attr:`path`.

    ``path`` is one ``snap-*`` directory or a checkpoint root, which opens
    the root's latest complete snapshot. This is the one way to open a
    snapshot: trainer resume, serving and stream resume all read it."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        if not (self.path / "manifest.json").is_file():
            latest = SnapshotManager(self.path).latest()
            if latest is None:
                raise SnapshotError(f"no snapshots under {self.path}")
            self.path = latest
        try:
            manifest = json.loads((self.path / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"unreadable manifest in {self.path}") from exc
        if manifest.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot {self.path.name} has format version "
                f"{manifest.get('version')}, expected {SNAPSHOT_VERSION}")
        self.meta: Dict[str, Any] = manifest["meta"]
        self.files: Dict[str, int] = manifest["files"]    # file -> CRC-32
        self.tables: Dict[str, List[int]] = manifest["tables"]  # -> row bounds
        self._checked: set = set()

    def __iter__(self) -> Iterator[str]:
        yield from self.tables
        yield from (rel[:-len(".npy")] for rel in self.files
                    if rel.partition("/")[0] not in self.tables)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __contains__(self, name: object) -> bool:   # without reading it
        return name in self.tables or f"{name}.npy" in self.files

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self.tables:
            return np.concatenate(
                [self._read(_table_file(name, part))
                 for part in range(len(self.tables[name]) - 1)])
        if f"{name}.npy" not in self.files:
            raise KeyError(name)
        return self._read(f"{name}.npy")

    def verify(self, prefix: str = "") -> "Snapshot":
        """CRC-check every file (under ``prefix``) up front: the resume
        path restores nothing, and serving opens no table file, before it
        knows they are intact."""
        for rel in self.files:
            if rel.startswith(prefix):
                self._check(rel)
        return self

    def _check(self, rel: str) -> None:
        if rel in self._checked:
            return
        try:
            intact = _crc_file(self.path / rel) == self.files[rel]
        except OSError:
            intact = False
        if not intact:
            raise SnapshotError(
                f"snapshot {self.path.name} failed its CRC check on {rel}")
        self._checked.add(rel)

    def _read(self, rel: str) -> np.ndarray:
        self._check(rel)
        return np.load(self.path / rel)


class _Saved(NamedTuple):     # a manager's last save, to reuse CRCs from
    path: Path
    files: Dict[str, int]


class _Staged(NamedTuple):    # a save's temp directory and the files linked
    tmp: Path
    step_id: int
    tables: Dict[str, List[int]]
    store_files: List[str]


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
        ``snapshot-mid-files``, ``snapshot-pre-rename``,
        ``snapshot-post-rename``). Production code leaves it ``None``.
    """

    def __init__(self, root: os.PathLike, keep: int = 2,
                 fault_hook: Optional[FaultHook] = None) -> None:
        self.root = Path(root)
        if keep < 1:
            raise ValueError("must keep at least one snapshot")
        self.keep = keep
        self.fault_hook = fault_hook
        self.linked = 0          # partition files the last save hard-linked
        self._last: Optional[_Saved] = None

    # ------------------------------------------------------------------
    def _fire(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _sweep_tmp(self) -> None:
        for leftover in self.root.glob(f"{_TMP_PREFIX}*"):
            shutil.rmtree(leftover, ignore_errors=True)

    # ------------------------------------------------------------------
    def save(self, step_id: int, meta: Dict[str, Any],
             arrays: Dict[str, np.ndarray], store=None) -> Path:
        """Write a snapshot atomically; returns its directory.

        ``meta`` must be JSON-serializable; ``arrays`` maps names to numpy
        arrays, one ``<name>.npy`` each; ``store`` (a ``NodeStore``) adds
        its table and optimizer state, partition file by partition file.
        ``step_id`` seeds the directory ordinal (bumped past any existing
        snapshots so this save sorts latest). The snapshot becomes visible
        only after the final rename. A save is :meth:`stage` then
        :meth:`publish`; a caller whose store has concurrent writers calls
        the two itself, holding the writer lock for :meth:`stage` only.
        """
        return self.publish(self.stage(step_id, store), meta, arrays)

    def stage(self, step_id: int, store=None) -> _Staged:
        """Start a save: make its temp directory and hard-link each of
        ``store``'s partition files into it (copied if the link fails).
        No writer may run meanwhile. Once linked, a file is never modified
        (a write to it replaces the store's file instead), so the rest of
        the save needs no lock."""
        self.root.mkdir(parents=True, exist_ok=True)
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
        while (self.root / f"{_SNAP_PREFIX}{ordinal:012d}").exists():
            ordinal += 1        # debris of an incomplete snapshot
        tmp = self.root / f"{_TMP_PREFIX}{ordinal:012d}"
        tmp.mkdir()
        self._fire("snapshot-begin")
        if store is None:
            return _Staged(tmp, int(step_id), {}, [])
        for rel in store.files():
            (tmp / rel).parent.mkdir(parents=True, exist_ok=True)
            link_or_copy(store.path / rel, tmp / rel)
        bounds = [int(b) for b in store.scheme.boundaries]
        return _Staged(tmp, int(step_id),
                       {name: bounds for name in store.tables}, store.files())

    @traced("snapshot.save")
    def publish(self, staged: _Staged, meta: Dict[str, Any],
                arrays: Dict[str, np.ndarray]) -> Path:
        """Finish a save: CRC the staged files, write ``arrays`` and the
        manifest, fsync, rename into place and prune. A staged file that
        is the same file as in this manager's previous save keeps that
        save's CRC; any other is fsynced and CRC-checked."""
        tmp, files, last = staged.tmp, {}, self._last
        self.linked = 0
        for rel in staged.store_files:
            if last is not None and rel in last.files and _same_file(
                    tmp / rel, last.path / rel):
                # Exact: while that snapshot links the file, every write
                # to the partition replaces it instead.
                files[rel] = last.files[rel]
                self.linked += 1
            else:
                with open(tmp / rel, "rb") as fh:
                    os.fsync(fh.fileno())
                files[rel] = _crc_file(tmp / rel)
            self._added(files)
        for name, value in arrays.items():
            self._put(tmp, files, f"{name}.npy", value)

        manifest = {"version": SNAPSHOT_VERSION,
                    "step_id": staged.step_id,
                    "files": files, "tables": staged.tables, "meta": meta}
        with open(tmp / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        for sub in {tmp} | {(tmp / rel).parent for rel in files}:
            fsync_dir(sub)

        self._fire("snapshot-pre-rename")
        final = self.root / f"{_SNAP_PREFIX}{tmp.name[len(_TMP_PREFIX):]}"
        os.rename(tmp, final)
        fsync_dir(self.root)
        self._last = _Saved(final, files)
        self._fire("snapshot-post-rename")
        self._prune()
        return final

    def _put(self, tmp: Path, files: Dict[str, int], rel: str,
             array: np.ndarray) -> None:
        """Write one array to the snapshot being written, fsynced."""
        target = tmp / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "wb") as fh:
            np.lib.format.write_array(fh, np.asarray(array),
                                      allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        files[rel] = _crc_file(target)
        self._added(files)

    def _added(self, files: Dict[str, int]) -> None:
        if len(files) == 1:
            self._fire("snapshot-mid-files")

    def _prune(self) -> None:
        """Drop all but the newest ``keep`` snapshots. A linked file
        outlives the directory it was linked from, so nothing chains."""
        for old in self.list()[:-self.keep]:
            shutil.rmtree(old, ignore_errors=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _step_of(path: Path) -> int:
        try:
            return int(path.name[len(_SNAP_PREFIX):])
        except ValueError:
            return -1

    def list(self) -> List[Path]:
        """Published snapshots under the root (a ``manifest.json`` is the
        last file a save writes before its rename), oldest first.

        Ordered by the numeric step id, not the directory name — a step id
        wider than the 12-digit zero padding must still sort after the
        padded ones (lexicographic order would call it oldest and prune it).
        A root that does not exist holds none.
        """
        out = [cand for cand in self.root.glob(f"{_SNAP_PREFIX}*")
               if self._step_of(cand) >= 0
               and (cand / "manifest.json").is_file()]
        return sorted(out, key=self._step_of)

    def latest(self) -> Optional[Path]:
        snaps = self.list()
        return snaps[-1] if snaps else None

    @traced("snapshot.load")
    def load(self, path: Optional[os.PathLike] = None
             ) -> Tuple[Dict[str, Any], Snapshot]:
        """Open a snapshot — ``path`` (a ``snap-*`` dir or a checkpoint
        root), by default this manager's latest — and check its format
        version and every file's CRC, so a torn copy is rejected before
        anything is restored. Returns ``(meta, arrays)``; ``arrays`` is the
        :class:`Snapshot`, which reads each array on access."""
        snapshot = Snapshot(self.root if path is None else path).verify()
        return snapshot.meta, snapshot


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
    arrays.update((f"model/{k}", v) for k, v in model.state_dict().items())
    if gnn_optimizer is not None:
        arrays.update((f"gnn_opt/{k}", np.asarray(v))
                      for k, v in gnn_optimizer.state_dict().items())


def unpack_model_state(arrays: Mapping[str, np.ndarray], model: Module,
                       gnn_optimizer) -> None:
    model.load_state_dict(unflatten_arrays("model", arrays))
    if gnn_optimizer is not None:
        gnn_optimizer.load_state_dict(unflatten_arrays("gnn_opt", arrays))


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
