"""Compare two sets of benchmark runs.

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds one JSON line per run, as ``bench/run.py --out FILE``
appends them. One row is printed per (workload, end-to-end metric): both
medians, how much worse B is than A (as a share of A's median, in the
metric's own direction), each side's spread (interquartile range over
median), the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — not regressed, but a side's spread is wider than the
  bound, so "no change" cannot be told from noise;
* ``ok``         — otherwise.

Exit code 1 when any row regressed. Comparing a file with itself lists
the spreads of one set, which is how the steadiness of the benchmark
itself is checked (ten seeds per workload, every spread under its bound).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    __package__ = "bench"

from . import common                                     # noqa: E402

Samples = Dict[Tuple[str, str], List[float]]


def load_runs(path: Path) -> Samples:
    """``(workload, metric) -> values`` over the untraced runs of a file."""
    out: Samples = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("trace"):
            continue
        for metric, value in row["metrics"].items():
            out[(row["workload"], metric)].append(float(value))
    return out


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(a: Samples, b: Samples, contract: dict) -> List[dict]:
    rows = []
    for workload in [w["name"] for w in contract["workloads"]]:
        for spec in contract["end_to_end"]:
            key = (workload, spec["name"])
            if key not in a or key not in b:
                continue
            med_a, med_b = common.median(a[key]), common.median(b[key])
            worse = worse_by(med_a, med_b, spec["better"])
            widest = max(common.spread(a[key]), common.spread(b[key]))
            if worse > spec["bound"]:
                verdict = "regressed"
            elif widest > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": spec["name"],
                         "unit": spec["unit"], "a": med_a, "b": med_b,
                         "n_a": len(a[key]), "n_b": len(b[key]),
                         "worse": worse, "spread_a": common.spread(a[key]),
                         "spread_b": common.spread(b[key]),
                         "bound": spec["bound"], "verdict": verdict})
    return rows


def render(rows: List[dict]) -> str:
    head = (f"{'workload':<17} {'metric':<12} {'A median':>12} "
            f"{'B median':>12} {'unit':<6} {'B worse by':>10} "
            f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['workload']:<17} {r['metric']:<12} {r['a']:>12.4f} "
            f"{r['b']:>12.4f} {r['unit']:<6} {r['worse']:>+10.1%} "
            f"{r['spread_a']:>9.1%} {r['spread_b']:>9.1%} "
            f"{r['bound']:>6.0%}  {r['verdict']} "
            f"(n {r['n_a']}/{r['n_b']})")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[0] + "\n\n    "
              "python3 bench/compare.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    rows = compare(load_runs(Path(args[0])), load_runs(Path(args[1])),
                   common.load_contract())
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
