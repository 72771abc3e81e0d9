"""Shared pieces of the benchmark: paths, workload sizes, statistics.

The benchmark lives wholly under ``bench/`` and measures the program in
``src/repro`` from outside; :func:`use_repo_source` is the one place the
two meet.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

TRAINING = ("lp_disk_gnn", "lp_disk_kge", "lp_mem_gnn")
SERVING = ("serve_fleet_http",)
#: Every workload the runner knows. ``BENCHMARK.json`` lists three of
#: them; ``lp_mem_gnn`` (the in-memory control of ``lp_disk_gnn``) runs by
#: name only, because three workloads is what fits the time the driver
#: gives at a run length this box's speed drift can be averaged over.
WORKLOADS = TRAINING + SERVING

#: Seconds one epoch of each training workload takes on the 2-core box the
#: benchmark was sized on. ``--seconds`` is turned into a whole number of
#: epochs with these constants and never with a clock, so the same
#: arguments always train the same number of epochs and ``quality`` (MRR)
#: does not depend on how fast the machine happens to be.
NOMINAL_EPOCH_S = {"lp_disk_gnn": 3.8, "lp_disk_kge": 3.3, "lp_mem_gnn": 5.0}

#: Open-loop arrival rate (requests/s). Fixed here, never derived at run
#: time: seed-code closed-loop throughput on the sizing box is ~420 req/s,
#: and 150 is the largest of {50, 100, 150} under half of that.
OPEN_LOOP_RATE = 150.0

#: How many times a run sets up (in fresh processes, each in a directory
#: that is removed straight after) for the ``setup_s`` median. A training
#: set-up costs under a second, a fleet two with its drain.
SETUP_REPEATS = {"training": 5, "serving": 4}

#: The serving phases alternate closed loop / open loop this many times,
#: so each metric samples the whole run and not one stretch of it: the
#: box's speed drifts by +-10% over tens of seconds.
SERVING_ROUNDS = 3


def use_repo_source() -> None:
    """Put the checkout's ``src/`` on ``sys.path``. The benchmark measures
    that program and no other, so a directory without it is an error."""
    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {src}/repro is "
                         f"missing (run from a checkout of the repository)")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def load_baseline() -> Dict[str, Any]:
    """``bench/baseline.json``: values recorded on the sizing box."""
    return json.loads((BENCH_DIR / "baseline.json").read_text())


def epochs_for(workload: str, seconds: float) -> int:
    """Epochs trained for ``--seconds``, epoch 0 (reported, not counted)
    among them, with at least two counted ones."""
    return max(3, int(round(seconds / NOMINAL_EPOCH_S[workload])))


# ---------------------------------------------------------------------------
# Workload definitions. ``smoke`` shrinks graphs and tables so the smoke
# test finishes in seconds; the measured sizes are never changed to save
# time (cut epochs or phase seconds instead).
# ---------------------------------------------------------------------------

#: The training graphs are generated with this seed whatever ``--seed``
#: is. Graphs of different seeds are different problems — across ten of
#: them final MRR spread 29% and epoch time 10% — and no bound could then
#: tell a change from the luck of the draw. ``--seed`` drives everything
#: the trainer randomises: initial weights, batch order, negatives.
DATASET_SEED = 0


def training_spec(workload: str, seed: int, epochs: int, workdir: Path,
                  smoke: bool = False) -> Dict[str, Any]:
    """The ``repro.api`` job spec of one training workload, as a dict."""
    gnn_model = {"dim": 32, "encoder": "graphsage", "decoder": "distmult",
                 "fanouts": [10]}
    gnn_train = {"batch_size": 512, "negatives": 64, "epochs": epochs,
                 "seed": seed, "eval_every": 1, "eval_negatives": 200,
                 "eval_max_edges": 1000}
    gnn_data = {"dataset": "fb15k237", "scale": 0.05 if smoke else 1.0,
                "seed": DATASET_SEED}
    if workload == "lp_mem_gnn":
        return {"kind": "lp-mem", "data": gnn_data, "model": gnn_model,
                "train": gnn_train}
    if workload == "lp_disk_gnn":
        return {"kind": "lp-disk", "data": gnn_data, "model": gnn_model,
                "train": gnn_train,
                "storage": {"workdir": str(workdir), "partitions": 16,
                            "logical": 8, "buffer": 4, "policy": "comet"}}
    if workload == "lp_disk_kge":
        return {"kind": "lp-disk",
                "data": {"dataset": "freebase86m-mini",
                         "scale": 0.05 if smoke else 2.0,
                         "seed": DATASET_SEED},
                "model": {"dim": 32 if smoke else 128, "encoder": "none",
                          "decoder": "distmult"},
                "train": {"batch_size": 1000, "negatives": 100,
                          "epochs": epochs, "seed": seed, "eval_every": 0,
                          # One evaluation, at the end, over the whole
                          # test split: over 1000 sampled edges the draw
                          # alone spread MRR by 8% from seed to seed.
                          "eval_negatives": 200, "eval_max_edges": 6000},
                "storage": {"workdir": str(workdir), "partitions": 32,
                            "logical": 16, "buffer": 4, "policy": "comet"}}
    raise ValueError(f"not a training workload: {workload!r}")


def snapshot_spec(seed: int, workdir: Path, smoke: bool = False
                  ) -> Dict[str, Any]:
    """The 0-epoch ``lp-disk`` job whose snapshot the fleet serves:
    100k nodes x dim 64 in 16 partitions (random-init table — the serving
    workload measures paging and the wire, not model quality)."""
    return {"kind": "lp-disk",
            "data": {"dataset": "freebase86m-mini",
                     "scale": 0.05 if smoke else 1.0, "seed": seed},
            "model": {"dim": 16 if smoke else 64, "encoder": "none",
                      "decoder": "distmult"},
            "train": {"epochs": 0, "seed": seed},
            "storage": {"workdir": str(workdir / "train"), "partitions": 16,
                        "logical": 16, "buffer": 4},
            "checkpoint": {"dir": str(workdir / "ckpt")}}


def fleet_spec(snapshot: str, workdir: Path) -> Dict[str, Any]:
    """The ``serve-fleet`` spec: 2 workers, range affinity, 25% resident."""
    return {"kind": "serve-fleet", "serve": {"snapshot": str(snapshot)},
            "storage": {"workdir": str(workdir), "buffer": 4},
            "fleet": {"workers": 2, "affinity": "range", "port": 0,
                      "max_batch": 64, "max_wait_ms": 1.0}}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them (the
    driver's definition); a single value is its own quartiles."""
    if len(values) < 2:
        return [float(values[0])] * 3 if len(values) else [0.0, 0.0, 0.0]
    return [float(q) for q in statistics.quantiles(values, n=4)]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), without numpy so
    the load generator and the comparer stay import-light."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def undisturbed_low(values: Sequence[float]) -> float:
    """The lower quartile of per-window timings — what a run reports for a
    time, where lower is better. Disturbances from outside only ever slow
    a window down, and this box flips between a fast and a slow state
    every few seconds: the median over windows lands in whichever state
    held more than half of the run (spread between runs 19-24%), the
    quartile on the fast side stays in the fast one (7-11%). A change that
    slows every window still moves it."""
    return percentile(values, 25.0)


def undisturbed_high(values: Sequence[float]) -> float:
    """The upper quartile of per-window rates: :func:`undisturbed_low` for
    a metric where higher is better."""
    return percentile(values, 75.0)


def finite(values: Iterable[float]) -> bool:
    return all(math.isfinite(v) for v in values)
