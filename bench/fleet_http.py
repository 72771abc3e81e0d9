"""The ``serve_fleet_http`` workload: an out-of-process load generator
against ``repro.fleet`` through its HTTP front door.

Three processes (plus the fleet's two workers) take part:

* the **host** (:func:`host_main`, a child of the runner) builds a
  0-epoch ``lp-disk`` snapshot through ``repro.api``, starts a
  :class:`repro.fleet.Fleet` over it and reports the gateway URL;
* the **load generator** is the runner's own process: one process, two
  persistent HTTP connections (``TCP_NODELAY``), because the sizing box
  has two cores and the fleet needs them;
* for the output check and the per-layer run, an **in-process engine**
  (``repro.api.jobs.build_serving_engine``) answers the same requests.

The request stream is a pure function of the seed: bounded Zipf(1.1) node
popularity over a shuffled id space, mixed 78% single lookups, 15%
8-id lookups, 5% 8-pair scoring, 2% top-10. The mix is exact in every
block of 100 requests (shuffled within the block), so any window of whole
blocks holds the same number of each operation — the p99 sits inside the
top-k cluster in every window instead of falling out of it by chance.

Timings are read in windows (100 completions of the closed loop, 100
scheduled requests of the open loop) and reported as the quartile of the
windows on the undisturbed side (``common.undisturbed_low``): on a shared
two-core box a single 200 ms stall from outside would otherwise set the
pooled p99 of a whole phase.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from . import common
from .trace import Tracer

#: operation -> requests per block of 100.
MIX = (("embed1", 78), ("embed8", 15), ("score8", 5), ("topk", 2))
BLOCK = sum(count for _, count in MIX)
#: Open-loop latency window, in scheduled requests, and closed-loop
#: throughput window, in completed requests: one block each. Many small
#: windows beat few large ones here — a stall from outside spoils the
#: windows it lands in, and a quartile over dozens of windows ignores them
#: (over ten noisy runs the p99 of 100-request windows spread 8%, of
#: 300-request windows 28%, of the pooled phase 430%).
OPEN_WINDOW = BLOCK
CLOSED_WINDOW = BLOCK
PATHS = {"embed1": "/v1/embeddings", "embed8": "/v1/embeddings",
         "score8": "/v1/score", "topk": "/v1/topk"}
WIRE_OPS = {"embed1": "embed", "embed8": "embed", "score8": "score",
            "topk": "topk"}
TOPK_K = 10


class Request(NamedTuple):
    op: str                 # embed1 | embed8 | score8 | topk
    body: Dict[str, Any]    # the JSON body (also the worker frame's fields)
    http: bytes             # the complete HTTP/1.1 request

    @property
    def lead(self) -> int:
        """The node id the gateway routes on."""
        if self.op == "topk":
            return self.body["source"]
        if self.op == "score8":
            return self.body["pairs"][0][0]
        return self.body["ids"][0]


def http_post(path: str, body: Dict[str, Any]) -> bytes:
    """A complete HTTP/1.1 POST of ``body`` as JSON."""
    payload = json.dumps(body).encode("ascii")
    head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n").encode("ascii")
    return head + payload


def topk_post(source: int) -> bytes:
    return http_post(PATHS["topk"], {"source": source, "k": TOPK_K})


def request_stream(seed: int, count: int, num_nodes: int,
                   num_relations: int) -> List[Request]:
    """``count`` requests; the same arguments give the same bytes."""
    import numpy as np
    rng = np.random.default_rng([seed, 0x5EED])
    weights = 1.0 / np.arange(1, num_nodes + 1, dtype=np.float64) ** 1.1
    cdf = np.cumsum(weights / weights.sum())
    by_rank = rng.permutation(num_nodes)

    def nodes(n: int) -> List[int]:
        ranks = np.minimum(np.searchsorted(cdf, rng.random(n)), num_nodes - 1)
        return [int(v) for v in by_rank[ranks]]

    block = [op for op, share in MIX for _ in range(share)]
    ops = [block[i] for _ in range(-(-count // BLOCK))
           for i in rng.permutation(BLOCK)][:count]
    out = []
    for op in ops:
        if op == "embed1":
            body = {"ids": nodes(1)}
        elif op == "embed8":
            body = {"ids": nodes(8)}
        elif op == "score8":
            rels = rng.integers(0, num_relations, size=8)
            body = {"pairs": [[s, int(r), d] for s, r, d in
                              zip(nodes(8), rels, nodes(8))]}
        else:
            body = {"source": nodes(1)[0], "k": TOPK_K}
        out.append(Request(op, body, http_post(PATHS[op], body)))
    return out


class HttpConnection:
    """One persistent HTTP/1.1 connection; sends prebuilt request bytes
    and reads exactly one response. Lean on purpose: the client shares
    two cores with the system it measures."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.address = (host, port)
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self.connect()

    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(self.address,
                                             timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        """``(status, body)``; raises ``OSError`` on a transport failure."""
        sock = self.sock
        sock.sendall(request)
        buf = b""
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed before headers")
            buf += chunk
        head, body = buf[:end], buf[end + 4:]
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-body")
            body += chunk
        return status, body

    def get(self, path: str) -> Tuple[int, bytes]:
        return self.exchange(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                             .encode("ascii"))


def connect(url: str) -> HttpConnection:
    parts = urlsplit(url)
    return HttpConnection(parts.hostname, parts.port)


class PhaseResult:
    """What one load phase saw; the lists are parallel, one entry per
    request that was answered 200."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent = 0
        self.ok = 0
        self.failed = 0           # non-200 + transport errors
        self.seconds = 0.0
        self.index: List[int] = []         # position in the phase's schedule
        self.latency_ms: List[float] = []
        self.done_at: List[float] = []     # completion time since phase start
        self.late_ms: List[float] = []     # every request sent, ok or not
        self._lock = threading.Lock()

    def note(self, index: int, ok: bool, latency_ms: float, done_at: float,
             late_ms: float = 0.0) -> None:
        with self._lock:
            self.sent += 1
            if ok:
                self.ok += 1
                self.index.append(index)
                self.latency_ms.append(latency_ms)
                self.done_at.append(done_at)
            else:
                self.failed += 1
            self.late_ms.append(late_ms)

    def rates(self) -> List[float]:
        """Requests per second over each run of ``CLOSED_WINDOW``
        consecutive completions."""
        done = sorted(self.done_at)
        marks = done[::CLOSED_WINDOW]
        return [CLOSED_WINDOW / (b - a) for a, b in zip(marks, marks[1:])
                if b > a]

    def latency_windows(self) -> List[List[float]]:
        """Latencies grouped by whole ``OPEN_WINDOW`` runs of the phase's
        requests, in the order they were scheduled (open loop) or taken
        from the stream (closed loop)."""
        windows: Dict[int, List[float]] = {}
        for index, ms in zip(self.index, self.latency_ms):
            windows.setdefault(index // OPEN_WINDOW, []).append(ms)
        return [w for _, w in sorted(windows.items())
                if len(w) >= OPEN_WINDOW // 2]

    def line(self) -> str:
        return (f"phase {self.name}: sent {self.sent} ok {self.ok} "
                f"failed {self.failed} in {self.seconds:.2f} s")


def pooled_rates(phases: Sequence[PhaseResult]) -> List[float]:
    """The closed-loop window rates of several phases, as one list."""
    return [rate for phase in phases for rate in phase.rates()]


def window_percentiles(phases: Sequence[PhaseResult], q: float) -> List[float]:
    """The ``q``-th latency percentile of each window of all ``phases``."""
    return [common.percentile(window, q) for phase in phases
            for window in phase.latency_windows()]


def _send(conn: HttpConnection, request: Request) -> bool:
    """One exchange; a transport error reconnects and counts as a failure."""
    try:
        status, _ = conn.exchange(request.http)
        return status == 200
    except (OSError, ValueError):
        try:
            conn.connect()
        except OSError:
            pass
        return False


def closed_loop(url: str, requests: Sequence[Request], seconds: float,
                connections: int = 2, name: str = "closed",
                start: int = 0) -> PhaseResult:
    """Each connection sends its next request as soon as the previous one
    completes, for ``seconds``; requests are taken in stream order from
    position ``start`` (so a later phase can go on where one stopped)."""
    result = PhaseResult(name)
    cursor = itertools.count()
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def client() -> None:
        conn = connect(url)
        try:
            while True:
                index = next(cursor)
                began = time.perf_counter()
                if began >= deadline:
                    return
                ok = _send(conn, requests[(start + index) % len(requests)])
                done = time.perf_counter()
                result.note(index, ok, 1000.0 * (done - began), done - t0)
        finally:
            conn.close()

    _run_threads(client, connections)
    result.seconds = time.perf_counter() - t0
    return result


def open_loop(url: str, requests: Sequence[Request], seconds: float,
              rate: float, connections: int = 2, name: str = "open",
              start: int = 0) -> PhaseResult:
    """Request ``i`` (the stream's ``start + i``-th; keep ``start`` a
    multiple of ``BLOCK`` so windows hold whole blocks) is due at
    ``i / rate``; whichever connection is free takes the next due request,
    sleeping until it is due. Latency runs from the due time, so a stall
    also charges the requests queued behind it; ``late_ms`` is how long
    after its due time a request was sent."""
    result = PhaseResult(name)
    total = int(seconds * rate)
    cursor = itertools.count()
    t0 = time.perf_counter() + 0.05

    def client() -> None:
        conn = connect(url)
        try:
            while True:
                index = next(cursor)
                if index >= total:
                    return
                request = requests[(start + index) % len(requests)]
                due = t0 + index / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                ok = _send(conn, request)
                done = time.perf_counter()
                result.note(index, ok, 1000.0 * (done - due), done - t0,
                            late_ms=1000.0 * max(0.0, sent - due))
        finally:
            conn.close()

    _run_threads(client, connections)
    result.seconds = time.perf_counter() - t0
    return result


def _run_threads(target, count: int) -> None:
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:     # surfaced after join, not lost
            errors.append(exc)

    threads = [threading.Thread(target=guarded, name=f"bench-client-{i}")
               for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# The host process
# ---------------------------------------------------------------------------

def host_main(config: Dict[str, Any]) -> int:
    """Child-process body: snapshot + fleet, one JSON line when serving,
    then wait for a line on stdin and drain."""
    common.use_repo_source()
    from repro import api
    from repro.fleet import Fleet

    workdir = Path(config["workdir"])
    t0 = time.perf_counter()
    job = api.build_job(api.JobSpec.from_dict(
        common.snapshot_spec(config["seed"], workdir, smoke=config["smoke"])))
    build_s = time.perf_counter() - t0
    snapshot = job.snapshot()
    spec = api.JobSpec.from_dict(
        common.fleet_spec(snapshot, workdir / "fleet")).resolve()
    fleet = Fleet(spec.to_dict(), workdir / "fleet")
    fleet.start()
    try:
        print(json.dumps({
            "url": fleet.url, "pid": os.getpid(), "build_s": build_s,
            "snapshot": str(snapshot), "spec": spec.to_dict(),
            "num_relations": int(job.dataset.graph.num_relations),
            "workers": fleet.worker_info}), flush=True)
        sys.stdin.readline()
    finally:
        exitcodes = fleet.stop()
    print(json.dumps({"exitcodes": exitcodes}), flush=True)
    return 0 if all(code == 0 for code in exitcodes) else 1


class FleetHost:
    """The runner's handle on one host process."""

    def __init__(self, seed: int, workdir: Path, smoke: bool,
                 env: Dict[str, str]) -> None:
        config = {"role": "fleet-host", "seed": seed, "smoke": smoke,
                  "workdir": str(workdir)}
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "run.py"), "--child",
             json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(common.REPO), env=env)
        self.info: Dict[str, Any] = {}
        self.setup_s = 0.0

    def wait_ready(self, timeout: float = 150.0) -> "FleetHost":
        """Block until ``/healthz`` answers ``ok``; sets ``setup_s`` (from
        process launch: interpreter start, snapshot, workers, gateway)."""
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"fleet host exited with code "
                               f"{self.proc.wait()} before serving")
        self.info = json.loads(line)
        deadline = time.perf_counter() + timeout
        while True:
            conn = connect(self.url)
            try:
                status, body = conn.get("/healthz")
            finally:
                conn.close()
            if status == 200 and json.loads(body)["status"] == "ok":
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(f"fleet not healthy: {body[:200]!r}")
            time.sleep(0.05)
        self.setup_s = time.perf_counter() - self.t_launch
        return self

    @property
    def url(self) -> str:
        return self.info["url"]

    def pids(self) -> List[int]:
        return [self.info["pid"]] + [w["pid"] for w in self.info["workers"]]

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over host and workers (read while they live)."""
        total_kb = 0
        for pid in self.pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def statz(self) -> Dict[str, Any]:
        conn = connect(self.url)
        try:
            status, body = conn.get("/statz")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/statz answered {status}")
        return json.loads(body)

    def stop(self, timeout: float = 40.0) -> int:
        """Ask the host to drain; returns its exit code (kills on timeout)."""
        proc = self.proc
        if proc.poll() is None:
            try:
                proc.stdin.write("stop\n")
                proc.stdin.flush()
            except OSError:
                pass
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        return proc.returncode


# ---------------------------------------------------------------------------
# Output checks and the per-layer phases (need the in-process engine)
# ---------------------------------------------------------------------------

def build_engine(host: FleetHost, workdir: Path):
    """The snapshot's engine, built in this process the way a worker
    builds its own."""
    from repro import api
    from repro.api.jobs import build_serving_engine
    spec = api.JobSpec.from_dict(host.info["spec"])
    _, _, engine = build_serving_engine(spec, workdir)
    return engine


def engine_answer(engine, request: Request) -> Dict[str, Any]:
    """The in-process answer, shaped like the gateway's JSON."""
    import numpy as np
    if request.op in ("embed1", "embed8"):
        rows = engine.get_embeddings(np.asarray(request.body["ids"],
                                                dtype=np.int64))
        return {"embeddings": rows}
    if request.op == "score8":
        return {"scores": engine.score_edges(
            np.asarray(request.body["pairs"], dtype=np.int64))}
    ids, scores = engine.topk_targets(request.body["source"],
                                      request.body["k"])
    return {"ids": ids, "scores": scores}


def _same_bits(answer: Dict[str, Any], reply: Dict[str, Any]) -> bool:
    import numpy as np
    for key, value in answer.items():
        if key not in reply:
            return False
        got = np.asarray(reply[key], dtype=value.dtype)
        if got.shape != value.shape or got.tobytes() != value.tobytes():
            return False
    return True


def parity_check(host: FleetHost, engine, requests: Sequence[Request],
                 samples: int = 200) -> Tuple[int, int]:
    """``(checked, mismatched)``: sampled requests answered by the gateway
    and by the in-process engine must agree bit for bit. Sent one at a
    time, so the worker's batcher sees the same batch shapes the engine
    does."""
    conn = connect(host.url)
    stride = max(1, len(requests) // samples)
    picked = list(requests[::stride][:samples])
    # Single lookups dominate the mix; make sure the rare ops are checked.
    for op in ("score8", "topk"):
        picked += [r for r in requests if r.op == op][:3]
    mismatched = 0
    try:
        for request in picked:
            status, body = conn.exchange(request.http)
            if status != 200 or not _same_bits(engine_answer(engine, request),
                                               json.loads(body)):
                mismatched += 1
    finally:
        conn.close()
    return len(picked), mismatched


def topk_recall(host: FleetHost, engine, requests: Sequence[Request],
                queries: int = 20) -> float:
    """Mean recall@k of the fleet's (index-pruned) top-k against the
    in-process exact sweep, over the stream's first distinct sources."""
    conn = connect(host.url)
    sources = list(dict.fromkeys(r.lead for r in requests))[:queries]
    hits = total = 0
    try:
        for src in sources:
            status, reply = conn.exchange(topk_post(src))
            exact_ids, _ = engine.topk_targets(src, TOPK_K, exact=True)
            total += len(exact_ids)
            if status == 200:
                hits += len(set(json.loads(reply)["ids"])
                            & set(int(i) for i in exact_ids))
    finally:
        conn.close()
    return hits / total if total else 0.0


def warm_up(host: FleetHost, requests: Sequence[Request],
            seconds: float) -> PhaseResult:
    """Discarded phase: one top-k per worker (each builds its index on its
    first one), then ``seconds`` of closed-loop traffic."""
    conn = connect(host.url)
    try:
        for first_owned, _, _ in _owner_ranges(host):
            conn.exchange(topk_post(first_owned))
    finally:
        conn.close()
    return closed_loop(host.url, requests, seconds, name="warm-up")


def _owner_ranges(host: FleetHost) -> List[Tuple[int, int, int]]:
    """``(first node, last node + 1, worker)`` per worker, from the
    partition boundaries the workers reported and the gateway's ranges."""
    boundaries = host.info["workers"][0]["boundaries"]
    ranges = host.statz()["router"]["ranges"]
    out = []
    for worker, parts in ranges.items():
        if parts:
            out.append((boundaries[parts[0]], boundaries[parts[-1] + 1],
                        int(worker)))
    return sorted(out)


def layer_phases(host: FleetHost, engine, requests: Sequence[Request],
                 tracer: Tracer) -> Dict[str, float]:
    """The same requests three ways — in-process engine, straight to the
    owning worker's port, through the gateway on one connection — each
    call one client-side span. Overheads are differences of medians, so
    engine + worker overhead + gateway overhead = http by construction."""
    from repro.fleet import WorkerClient
    ranges = _owner_ranges(host)
    ports = {w["worker"]: w["port"] for w in host.info["workers"]}
    tracer.enabled = True

    def timed(name: str, index: int, call) -> float:
        tracer.run = index
        handle = tracer.begin(name)
        t0 = time.perf_counter()
        call()
        elapsed = time.perf_counter() - t0
        tracer.end(handle)
        return 1000.0 * elapsed

    engine_ms = [timed("serve.engine", i,
                       lambda r=r: engine_answer(engine, r))
                 for i, r in enumerate(requests)]

    clients = {worker: WorkerClient("127.0.0.1", port)
               for worker, port in ports.items()}
    try:
        wire_ms = []
        for i, r in enumerate(requests):
            owner = next(w for lo, hi, w in ranges if lo <= r.lead < hi)
            wire_ms.append(timed(
                "fleet.wire", i, lambda r=r, owner=owner: _wire_ok(
                    clients[owner].request(WIRE_OPS[r.op], **r.body))))
    finally:
        for client in clients.values():
            client.close()

    before = host.statz()
    conn = connect(host.url)
    http_ms, plain_ms, non200 = [], [], 0
    try:
        for i, r in enumerate(requests):
            # Every other request is sent without a span: the difference
            # of the two medians is what recording a span costs a request.
            tracer.enabled = i % 2 == 0
            t0 = time.perf_counter()
            tracer.run = i
            handle = tracer.begin("fleet.http")
            status, _ = conn.exchange(r.http)
            tracer.end(handle)
            elapsed = 1000.0 * (time.perf_counter() - t0)
            non200 += status != 200
            http_ms.append(elapsed)
            if i % 2:
                plain_ms.append(elapsed)
    finally:
        conn.close()
        tracer.enabled = False
    after = host.statz()

    p50 = lambda values: common.percentile(values, 50)
    p99 = lambda values: common.percentile(values, 99)
    out = {
        "serve.engine_ms_p50": p50(engine_ms),
        "serve.engine_ms_p99": p99(engine_ms),
        "fleet.wire_ms_p50": p50(wire_ms), "fleet.wire_ms_p99": p99(wire_ms),
        "fleet.http_ms_p50": p50(http_ms), "fleet.http_ms_p99": p99(http_ms),
        "fleet.gateway_overhead_ms": p50(http_ms) - p50(wire_ms),
        "fleet.worker_overhead_ms": p50(wire_ms) - p50(engine_ms),
        "fleet.http_non200": float(non200),
    }
    for op, _ in MIX:
        out[f"fleet.{op}_ms_p50"] = p50(
            [ms for ms, r in zip(http_ms, requests) if r.op == op])
    traced_ms = [ms for i, ms in enumerate(http_ms) if i % 2 == 0]
    out["bench.trace_overhead_share"] = (
        p50(traced_ms) / p50(plain_ms) - 1.0 if plain_ms else 0.0)
    out.update(_statz_delta(before, after, len(requests)))
    return out


def _wire_ok(reply: Dict[str, Any]) -> None:
    if not reply.get("ok"):
        raise RuntimeError(f"worker refused a benchmark request: {reply}")


def _statz_delta(before: Dict[str, Any], after: Dict[str, Any],
                 sent: int) -> Dict[str, float]:
    """Counters the fleet itself keeps, over one phase of ``sent``
    requests: measured where the work happens."""
    def total(statz, section, key):
        return sum(w.get(section, {}).get(key, 0) for w in statz["workers"])

    def delta(section, key):
        return total(after, section, key) - total(before, section, key)

    routed = {k: after["gateway"].get(k, 0) - before["gateway"].get(k, 0)
              for k in after["gateway"] if k.startswith("routed.")}
    batches = delta("batcher", "batches")
    topk = delta("serve", "topk_queries")
    return {
        "serve.swaps_per_1k": 1000.0 * delta("serve", "swaps") / sent,
        "serve.mean_batch": (delta("batcher", "requests") / batches
                             if batches else 0.0),
        "serve.topk_rows_scored_per_query": (
            delta("serve", "ann_rows_scored") / topk if topk else 0.0),
        "storage.read_mb_per_1k": (1000.0 * delta("storage", "bytes_read")
                                   / 2**20 / sent),
        "fleet.routed_worker0_share": (
            routed.get("routed.worker-0", 0) / sum(routed.values())
            if sum(routed.values()) else 0.0),
    }
