"""Live-graph streaming: online ingestion over the partitioned stores.

The write path the out-of-core design was missing: edge/node updates are
appended to a partition-bucketed :class:`GraphDeltaLog` (journaled and
fsync'd through a :class:`WriteAheadLog` when durability is on), served
immediately through the :class:`LiveGraph` overlay (base edge buckets +
delta, composed per bucket without rebuilding), folded into the base
stores by the atomic :class:`Compactor` — synchronously or on a
:class:`BackgroundCompactor` worker thread with retry/backoff — and
learned by the :class:`ContinualTrainer` refresh loop between
compactions. The invariant throughout: any interleaving of ingest and
compaction answers queries and trains bit-identically to an offline
preprocess of the final edge list — and with the WAL on, that holds
across a crash for every acknowledged event. See ``docs/streaming.md``.
"""

from .compactor import BackgroundCompactor, CompactionReport, Compactor
from .delta_log import OP_DELETE, OP_INSERT, GraphDeltaLog
from .events import synth_events
from .live import LiveGraph
from .locks import SharedExclusiveLock
from .refresh import ContinualTrainer, pack_pairs
from .wal import WalCorruption, WalFrame, WalRecovery, WriteAheadLog

__all__ = ["GraphDeltaLog", "LiveGraph", "Compactor", "CompactionReport",
           "BackgroundCompactor", "ContinualTrainer", "pack_pairs",
           "synth_events", "OP_INSERT", "OP_DELETE",
           "WriteAheadLog", "WalRecovery", "WalFrame", "WalCorruption",
           "SharedExclusiveLock"]
