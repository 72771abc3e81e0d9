"""Serving-fleet tests: protocol, connection hand-off, HTTP parity,
crash, drain.

The load-bearing guarantees:

* **HTTP parity** — every endpoint's response, parsed back from JSON, is
  bit-identical to the same query against an in-process engine over the
  same snapshot (float32 -> %.9g -> parse -> float32 is lossless).
* **One hop** — the host passes each query connection, unread, to one
  worker, which answers every request on it; the host parses no query.
* **Degradation** — a SIGKILL'd worker costs only its own connections:
  fresh connections are answered by the others for every node id, and
  ``/healthz`` reads degraded.
* **Drain** — stopping the fleet answers every accepted request; nothing
  hangs or dies with a half-written response.

The HTTP-parsing tests (caps, unread bodies, keep-alive) run against a
worker's HTTP loop on threads of the test process, behind a real host
(:class:`_StubFleet`).
"""

import json
import os
import signal
import socket
import struct
import threading
import time
import types
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import api
from repro.api.jobs import build_serving_engine
from repro.fleet import (MAX_FRAME, Fleet, Gateway, ProtocolError,
                         WorkerClient, WorkerUnavailable, recv_frame,
                         send_frame)
from repro.fleet import protocol
from repro.fleet.fleet import range_assignment
from repro.fleet.protocol import _ERROR_STATUS
from repro.fleet.gateway import MAX_HEADERS, MAX_LINE, Counters, Handlers
from repro.fleet.worker import (WorkerConfig, _Dispatcher, _error,
                                _float32_json, _Gate, _serve_connection,
                                _serve_http)
from repro.graph import load_fb15k237
from repro.serve import GracefulDrain
from repro.train import DiskConfig, DiskLinkPredictionTrainer, \
    LinkPredictionConfig

LP_CFG = LinkPredictionConfig(embedding_dim=8, encoder="none",
                              decoder="distmult", batch_size=256,
                              num_negatives=16, num_epochs=1,
                              eval_negatives=16, eval_max_edges=50, seed=0)


@pytest.fixture(scope="module")
def lp_snapshot(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fleet-lp")
    data = load_fb15k237(scale=0.03, seed=0)
    disk = DiskConfig(workdir=tmp / "work", num_partitions=8, num_logical=4,
                      buffer_capacity=4)
    trainer = DiskLinkPredictionTrainer(data, LP_CFG, disk,
                                        checkpoint_dir=tmp / "ckpt")
    trainer.train()
    trainer.save_snapshot(1, 0, 1)
    return trainer.snapshots.latest()


def fleet_spec(snapshot, workdir, **fleet_fields):
    payload = {"kind": "serve-fleet",
               "serve": {"snapshot": str(snapshot)},
               "storage": {"workdir": str(workdir), "buffer": 4},
               "fleet": {"workers": 2, "max_wait_ms": 1.0, **fleet_fields}}
    return api.JobSpec.from_dict(payload).resolve()


@pytest.fixture(scope="module")
def fleet(lp_snapshot, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fleet-run")
    spec = fleet_spec(lp_snapshot, tmp / "fleet")
    f = Fleet(spec.to_dict(), tmp / "fleet")
    f.start()
    yield f
    f.stop()


@pytest.fixture(scope="module")
def oracle(lp_snapshot, tmp_path_factory):
    """An in-process engine over the same snapshot: the parity reference."""
    tmp = tmp_path_factory.mktemp("fleet-oracle")
    spec = fleet_spec(lp_snapshot, tmp / "w")
    _, _, engine = build_serving_engine(spec, tmp / "oracle")
    return engine


def post_raw(url, path, body):
    """``(status, body bytes)`` exactly as the gateway wrote them."""
    req = urllib.request.Request(url + path, data=json.dumps(body).encode(),
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def post(url, path, body):
    status, raw = post_raw(url, path, body)
    return status, json.loads(raw)


def get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------

def test_frame_roundtrip():
    a, b = socket.socketpair()
    try:
        payload = {"op": "embed", "ids": [1, 2, 3],
                   "f": [0.1, -2.5e-8, 1.0 / 3.0]}
        send_frame(a, payload)
        assert recv_frame(b) == payload
        a.close()
        assert recv_frame(b) is None          # clean EOF at a boundary
    finally:
        b.close()


def test_frame_rejects_oversized_and_malformed():
    a, b = socket.socketpair()
    try:
        import struct
        a.sendall(struct.pack("!I", (64 << 20) + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(b)
        a2, b2 = socket.socketpair()
        try:
            data = b"[1, 2, 3]"               # valid JSON, not an object
            a2.sendall(struct.pack("!I", len(data)) + data)
            with pytest.raises(ProtocolError, match="object"):
                recv_frame(b2)
        finally:
            a2.close(), b2.close()
        a3, b3 = socket.socketpair()
        try:
            a3.sendall(struct.pack("!I", 10) + b"12345")
            a3.close()                        # EOF mid-frame
            with pytest.raises(WorkerUnavailable):
                recv_frame(b3)
        finally:
            b3.close()
    finally:
        a.close(), b.close()


def test_frame_float_fidelity():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(256).astype(np.float32)
    a, b = socket.socketpair()
    try:
        send_frame(a, {"rows": values.tolist()})
        back = np.asarray(recv_frame(b)["rows"], dtype=np.float32)
        assert np.array_equal(back, values)
        assert back.tobytes() == values.tobytes()
    finally:
        a.close(), b.close()


def test_float32_json_round_trips_every_bit_pattern():
    """The worker's ``%.9g`` number text parses back, through a double,
    to the same float32 bits: random finite bit patterns, signed zeros,
    subnormals and the extremes. Zeros and non-finite values print as
    ``json.dumps`` prints them."""
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 1 << 32, size=200_000, dtype=np.uint64)
    values = bits.astype(np.uint32).view(np.float32)
    values = values[np.isfinite(values)][:160_000].reshape(-1, 64)
    info = np.finfo(np.float32)
    special = np.array([0.0, -0.0, info.max, -info.max, info.tiny,
                        -info.tiny, info.smallest_subnormal,
                        -info.smallest_subnormal, info.tiny / 3, 1.0, -1.0,
                        info.eps], dtype=np.float32)
    for array in (values, special, special[None, :], special[:0]):
        text = _float32_json(array)
        back = np.asarray(json.loads(text), dtype=np.float32)
        assert back.shape == array.shape
        assert back.tobytes() == array.tobytes()
    assert _float32_json(special[:2]) == json.dumps([0.0, -0.0])
    odd = np.array([[np.nan, np.inf, -np.inf, 0.5]], dtype=np.float32)
    assert _float32_json(odd) == json.dumps(odd.tolist())
    assert _float32_json(odd) == "[[NaN, Infinity, -Infinity, 0.5]]"


def _recv_bytes(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "peer closed early"
        data += chunk
    return data


@pytest.mark.parametrize("code,status", sorted(_ERROR_STATUS.items()))
def test_worker_reply_carries_mapped_status(code, status, tmp_path):
    """Every error code leaves the worker as its HTTP status and the bare
    DTO bytes; ``WorkerClient.request`` still reads it as ``ok: False``."""
    cfg = WorkerConfig(index=0, spec={}, workdir=str(tmp_path))
    dispatcher = _Dispatcher(cfg, None, None,
                             GracefulDrain(exit_after=False))
    message = f"stub {code}"
    dispatcher.handle = lambda request: _error(code, message)
    dto = {"error": {"code": code, "message": message}}
    want = json.dumps(dto).encode()

    a, b = socket.socketpair()
    server = threading.Thread(target=_serve_connection, args=(b, dispatcher))
    server.start()
    try:
        send_frame(a, {"op": "embed", "ids": [1]})
        frame = _recv_bytes(a, 6 + len(want))
        assert frame == struct.pack("!IH", len(want), status) + want
    finally:
        a.close()
        server.join(timeout=10.0)
    assert not server.is_alive()

    with socket.create_server(("127.0.0.1", 0)) as listener:
        server = threading.Thread(
            target=lambda: _serve_connection(listener.accept()[0],
                                             dispatcher))
        server.start()
        with WorkerClient("127.0.0.1", listener.getsockname()[1]) as client:
            assert client.request_raw("embed", ids=[1]) == (status, want)
            assert client.request("embed", ids=[1]) == {"ok": False, **dto}
        server.join(timeout=10.0)
    assert not server.is_alive()


def test_oversized_answer_is_a_bad_request(tmp_path, monkeypatch):
    """An answer over the frame limit leaves as a 400 ``bad_request`` DTO
    instead of killing the connection; the next request is answered on
    the same connection."""
    monkeypatch.setattr(protocol, "MAX_FRAME", 256)
    cfg = WorkerConfig(index=0, spec={}, workdir=str(tmp_path))
    dispatcher = _Dispatcher(cfg, None, None,
                             GracefulDrain(exit_after=False))
    dispatcher.handle = lambda request: {
        "ok": True, "embeddings": [[0.5] * request["n"]]}
    big = json.dumps({"embeddings": [[0.5] * 100], "worker": 0})
    refused = json.dumps({"error": {
        "code": "bad_request",
        "message": f"answer of {len(big)} bytes exceeds the 256 byte "
                   "frame limit; ask for fewer rows"}}).encode()
    small = b'{"embeddings": [[0.5, 0.5]], "worker": 0}'

    a, b = socket.socketpair()
    server = threading.Thread(target=_serve_connection, args=(b, dispatcher))
    server.start()
    try:
        send_frame(a, {"op": "embed", "n": 100})
        assert (_recv_bytes(a, 6 + len(refused))
                == struct.pack("!IH", len(refused), 400) + refused)
        send_frame(a, {"op": "embed", "n": 2})
        assert (_recv_bytes(a, 6 + len(small))
                == struct.pack("!IH", len(small), 200) + small)
    finally:
        a.close()
        server.join(timeout=10.0)
    assert not server.is_alive()


# ---------------------------------------------------------------------------
# A real host in front of a worker's HTTP loop on threads of this process
# ---------------------------------------------------------------------------

STUB_REPLY = b'{"embeddings": [[0.1]], "worker": 0}'


class _StubFleet:
    """One worker's HTTP loop on threads of this process: its dispatcher
    answers every query with one canned row once ``release`` is set, and
    a connection it passes back goes straight to the gateway."""

    affinity = "range"
    ranges = {"0": [0]}

    def __init__(self, tmp_path):
        self.gateway = None
        self.entered, self.release = threading.Event(), threading.Event()
        self.release.set()
        self.dispatcher = _Dispatcher(
            WorkerConfig(index=0, spec={}, workdir=str(tmp_path)), None, None,
            GracefulDrain(exit_after=False))
        self.dispatcher.handle = self._handle
        self.worker = Handlers(lambda conn: _serve_http(
            conn, self.dispatcher, self.gateway.serve), "stub-worker")

    def _handle(self, request):
        self.entered.set()
        assert self.release.wait(30.0)
        return {"ok": True, "embeddings": [[0.1]]}

    def hand_off(self, conn):
        self.worker.start(conn)
        return True

    def health(self):
        return [{"worker": 0, "alive": True}]

    def worker_stats(self):
        return [{"worker": 0, "http": dict(self.dispatcher.http)}]

    def stop(self):
        """The fleet's drain order: the host first, then the worker."""
        self.gateway.stop()
        self.worker.stop()


@pytest.fixture
def stub_fleet(tmp_path):
    fleet = _StubFleet(tmp_path)
    fleet.gateway = Gateway(fleet).start()
    yield fleet
    fleet.stop()


@pytest.fixture
def stub_gateway(stub_fleet):
    return stub_fleet.gateway


def test_gateway_forwards_reply_bytes(stub_gateway):
    assert post_raw(stub_gateway.url, "/v1/embeddings",
                    {"ids": [1]}) == (200, STUB_REPLY)


@pytest.mark.parametrize("path,length,status,code", [
    ("/v1/embeddings", "abc", 400, "bad_request"),
    ("/v1/embeddings", str(MAX_FRAME + 1), 400, "bad_request"),
    ("/v1/embeddings", None, 400, "bad_request"),
    ("/v1/nope", "12", 404, "not_found"),
    pytest.param("/v1/embeddings?" + "x" * MAX_LINE, "12", 400,
                 "bad_request", id="request-line-over-limit"),
    pytest.param("/v1/embeddings",
                 b"X-Pad: 1\r\n" * MAX_HEADERS + b"Content-Length: 12\r\n",
                 400, "bad_request", id="more-than-max-headers"),
    pytest.param("/v1/embeddings", b"content-length: abc\r\n", 400,
                 "bad_request", id="lowercase-content-length"),
])
def test_gateway_hangs_up_on_an_unread_body(stub_gateway, path, length,
                                            status, code):
    """A body the gateway did not read must not be parsed as the next
    request: one JSON error, then the connection closes. ``length`` is
    the ``Content-Length`` value, or (as bytes) the raw header lines."""
    head = f"POST {path} HTTP/1.1\r\nHost: gateway\r\n".encode()
    if isinstance(length, bytes):
        head += length
    elif length is not None:
        head += b"Content-Length: " + length.encode() + b"\r\n"
    raw = (head + b"\r\n" + b'{"ids": [1]}'
           + b"GET /healthz HTTP/1.1\r\nHost: gateway\r\n\r\n")
    with socket.create_connection((stub_gateway.host, stub_gateway.port),
                                  timeout=10) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    assert reply.count(b"HTTP/1.1 ") == 1, reply
    headers, _, body = reply.partition(b"\r\n\r\n")
    assert headers.startswith(f"HTTP/1.1 {status} ".encode())
    assert b"Connection: close" in headers
    error = json.loads(body)["error"]
    assert error["code"] == code and error["message"]
    # A sent length, whatever the case of its header name, was read.
    assert (error["message"] == "request body required") == (length is None)


def _read_reply(sock, buf=b""):
    """``(status line, headers, body, unread bytes)`` of one reply."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, "peer closed early"
        buf += chunk
    head, _, buf = buf.partition(b"\r\n\r\n")
    status, *lines = head.split(b"\r\n")
    headers = dict(line.split(b": ", 1) for line in lines)
    length = int(headers[b"Content-Length"])
    while len(buf) < length:
        chunk = sock.recv(65536)
        assert chunk, "peer closed early"
        buf += chunk
    return status, headers, buf[:length], buf[length:]


def test_gateway_keeps_the_connection_alive(stub_gateway):
    """Three requests on one socket: each answered in turn on the same
    connection, a body sent only after ``100 Continue``, and the third,
    with ``Connection: close``, answered and then hung up on."""
    body = b'{"ids": [1]}'
    post = (b"POST /v1/embeddings HTTP/1.1\r\nHost: gateway\r\n"
            b"Content-Length: %d\r\n" % len(body))
    with socket.create_connection((stub_gateway.host, stub_gateway.port),
                                  timeout=10) as sock:
        sock.sendall(post + b"\r\n" + body)
        status, headers, reply, rest = _read_reply(sock)
        assert (status, reply, rest) == (b"HTTP/1.1 200 OK", STUB_REPLY, b"")
        assert headers[b"Content-Type"] == b"application/json"
        assert b"Connection" not in headers and b"Date" in headers

        sock.sendall(post + b"Expect: 100-continue\r\n\r\n")
        interim = b"HTTP/1.1 100 Continue\r\n\r\n"
        got = b""
        while len(got) < len(interim):
            chunk = sock.recv(len(interim) - len(got))
            assert chunk, "peer closed early"
            got += chunk
        assert got == interim
        sock.sendall(body)
        assert _read_reply(sock)[2:] == (STUB_REPLY, b"")

        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: gateway\r\n"
                     b"Connection: close\r\n\r\n")
        status, headers, reply, rest = _read_reply(sock)
        assert status == b"HTTP/1.1 200 OK"
        assert headers[b"Connection"] == b"close"
        assert json.loads(reply)["status"] == "ok"
        assert rest == b"" and sock.recv(65536) == b""


def _post(sock, ids, buf=b""):
    """One keep-alive POST to ``/v1/embeddings``: ``(status line, body,
    unread bytes)``."""
    body = json.dumps({"ids": ids}).encode()
    sock.sendall(b"POST /v1/embeddings HTTP/1.1\r\nHost: gateway\r\n"
                 b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
    status, _, reply, rest = _read_reply(sock, buf)
    return status, reply, rest


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_gateway_stop_ends_idle_keep_alive_connections(stub_fleet):
    """The drain returns while clients hold idle keep-alive connections,
    one on the host and one on the worker, and both see them close."""
    gateway = stub_fleet.gateway
    on_host = socket.create_connection((gateway.host, gateway.port), 10)
    on_worker = socket.create_connection((gateway.host, gateway.port), 10)
    stopper = threading.Thread(target=stub_fleet.stop)
    try:
        on_host.sendall(b"GET /healthz HTTP/1.1\r\nHost: gateway\r\n\r\n")
        assert _read_reply(on_host)[0] == b"HTTP/1.1 200 OK"
        assert _post(on_worker, [1])[:2] == (b"HTTP/1.1 200 OK", STUB_REPLY)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() hangs on an idle connection"
        assert on_host.recv(65536) == b""
        assert on_worker.recv(65536) == b""
    finally:
        on_host.close(), on_worker.close()
        stopper.join(timeout=10.0)


def test_gateway_stop_answers_the_request_in_flight(stub_fleet):
    """A query waiting on the engine when the drain starts is still
    answered; the drain returns once it is."""
    stub_fleet.release.clear()
    gateway = stub_fleet.gateway
    with socket.create_connection((gateway.host, gateway.port),
                                  timeout=10) as sock:
        replies = []
        client = threading.Thread(target=lambda: replies.append(
            _post(sock, [0])))
        client.start()
        assert stub_fleet.entered.wait(10.0)
        stopper = threading.Thread(target=stub_fleet.stop)
        stopper.start()
        stopper.join(timeout=0.3)
        assert stopper.is_alive()           # waits for the reply
        stub_fleet.release.set()
        stopper.join(timeout=10.0)
        client.join(timeout=10.0)
        assert not stopper.is_alive() and not client.is_alive()
        assert replies[0][:2] == (b"HTTP/1.1 200 OK", STUB_REPLY)
        assert sock.recv(65536) == b""


def _statz(sock):
    sock.sendall(b"GET /statz HTTP/1.1\r\nHost: gateway\r\n\r\n")
    status, _, body, rest = _read_reply(sock)
    assert status == b"HTTP/1.1 200 OK" and rest == b""
    return json.loads(body)


def test_statz_counts_unknown_paths_under_one_key(stub_gateway):
    """Distinct unknown paths leave one ``/statz`` counter, not one each;
    a worker's replies are merged in, its queries under ``routed``."""
    for i in range(300):
        with socket.create_connection(
                (stub_gateway.host, stub_gateway.port), timeout=10) as sock:
            sock.sendall(f"GET /nope/{i} HTTP/1.1\r\nHost: gateway\r\n"
                         f"\r\n".encode())
            assert _read_reply(sock)[0] == b"HTTP/1.1 404 Not Found"
    with socket.create_connection((stub_gateway.host, stub_gateway.port),
                                  timeout=10) as sock:
        assert _statz(sock)["gateway"] == {"http.other.404": 300,
                                           "routed.worker-0": 0}
        assert _post(sock, [1])[0] == b"HTTP/1.1 200 OK"
        assert _statz(sock)["gateway"] == {"http.other.404": 300,
                                           "http./statz.200": 1,
                                           "http./v1/embeddings.200": 1,
                                           "routed.worker-0": 1}


def test_statz_after_a_post_on_the_same_connection(stub_fleet):
    """A control request on a worker's connection goes back to the host,
    which answers it; a query after it goes to a worker again. Pipelined
    requests go across with the bytes already received."""
    gateway = stub_fleet.gateway
    with socket.create_connection((gateway.host, gateway.port),
                                  timeout=10) as sock:
        assert _post(sock, [1])[:2] == (b"HTTP/1.1 200 OK", STUB_REPLY)
        assert _statz(sock)["router"] == {"policy": "range",
                                          "ranges": {"0": [0]}}
        assert _post(sock, [2])[:2] == (b"HTTP/1.1 200 OK", STUB_REPLY)
        body = b'{"ids": [3]}'
        sock.sendall(b"POST /v1/embeddings HTTP/1.1\r\nContent-Length: "
                     b"%d\r\n\r\n%sGET /statz HTTP/1.1\r\n\r\n"
                     b"POST /v1/embeddings HTTP/1.1\r\nContent-Length: "
                     b"%d\r\n\r\n%s" % (len(body), body, len(body), body))
        status, _, reply, rest = _read_reply(sock)
        assert (status, reply) == (b"HTTP/1.1 200 OK", STUB_REPLY)
        status, _, reply, rest = _read_reply(sock, rest)
        assert status == b"HTTP/1.1 200 OK" and "router" in json.loads(reply)
        status, _, reply, rest = _read_reply(sock, rest)
        assert (status, reply, rest) == (b"HTTP/1.1 200 OK", STUB_REPLY, b"")
    assert dict(stub_fleet.dispatcher.http) == {
        "http./v1/embeddings.200": 4}


def test_reply_counters_lose_no_count_across_threads():
    """Every handler thread of a host or worker notes its replies in one
    ``Counters``: concurrent notes lose no count."""
    import sys
    counters = Counters()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [
            counters.note("/v1/embeddings", 200) for _ in range(2000)])
            for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert dict(counters) == {"http./v1/embeddings.200": 12000}


# ---------------------------------------------------------------------------
# The reported partition split
# ---------------------------------------------------------------------------

def test_range_assignment_contiguous_and_covering():
    for parts, workers in [(8, 2), (7, 3), (16, 5), (3, 8)]:
        assignment = range_assignment(parts, workers)
        assert len(assignment) == parts
        assert assignment == sorted(assignment)          # contiguous
        assert set(assignment) <= set(range(workers))
    assert range_assignment(8, 1) == [0] * 8


# ---------------------------------------------------------------------------
# GracefulDrain
# ---------------------------------------------------------------------------

def test_graceful_drain_signal_sets_flag_and_runs_callbacks():
    with GracefulDrain(exit_after=False) as drain:
        assert not drain.triggered
        os.kill(os.getpid(), signal.SIGTERM)
        assert drain.wait(5.0)
        assert drain.signum == signal.SIGTERM
        drain.request_drain()                            # idempotent
        assert drain.triggered and drain.signum == signal.SIGTERM
    # handlers restored: a later SIGTERM must not re-trigger this drain
    assert signal.getsignal(signal.SIGTERM) != drain._handle


# ---------------------------------------------------------------------------
# Fleet end-to-end over HTTP
# ---------------------------------------------------------------------------

def test_embeddings_bit_identical(fleet, oracle):
    n = int(oracle.store.num_nodes)
    ids = [0, 1, n // 2, n - 1, 0]                       # duplicates kept
    status, body = post(fleet.url, "/v1/embeddings", {"ids": ids})
    assert status == 200
    served = np.asarray(body["embeddings"], dtype=np.float32)
    expected = oracle.get_embeddings(np.asarray(ids))
    assert served.tobytes() == expected.tobytes()


def test_score_bit_identical(fleet, oracle):
    n = int(oracle.store.num_nodes)
    pairs = [[0, 5], [1, n - 1], [n - 1, 3]]
    status, body = post(fleet.url, "/v1/score", {"pairs": pairs})
    assert status == 200
    served = np.asarray(body["scores"], dtype=np.float32)
    expected = oracle.score_edges(
        np.asarray([[s, 0, d] for s, d in pairs], dtype=np.int64))
    assert served.tobytes() == expected.tobytes()


def test_topk_bit_identical(fleet, oracle):
    status, body = post(fleet.url, "/v1/topk",
                        {"source": 3, "k": 5, "exclude": [3]})
    assert status == 200
    ids, scores = oracle.topk_targets(3, 5, rel=0, exclude=[3])
    assert body["ids"] == ids.tolist()
    served = np.asarray(body["scores"], dtype=np.float32)
    assert served.tobytes() == scores.tobytes()


def test_encode_bit_identical(fleet, oracle):
    status, body = post(fleet.url, "/v1/encode", {"ids": [2, 9]})
    assert status == 200
    served = np.asarray(body["embeddings"], dtype=np.float32)
    expected = oracle.encode_nodes(np.asarray([2, 9]))
    assert served.tobytes() == expected.tobytes()


def test_malformed_requests_get_error_dtos(fleet):
    cases = [
        ("/v1/embeddings", {"ids": "nope"}, 400, "bad_request"),
        ("/v1/embeddings", {"ids": []}, 400, "bad_request"),
        ("/v1/embeddings", {"ids": [10 ** 9]}, 400, "bad_request"),
        ("/v1/score", {"pairs": [[1]]}, 400, "bad_request"),
        ("/v1/score", {"pairs": []}, 400, "bad_request"),
        ("/v1/topk", {"source": "zero", "k": 5}, 400, "bad_request"),
        ("/v1/topk", {"source": 0, "k": 0}, 400, "bad_request"),
        ("/v1/topk", {"source": 0, "k": 5, "rel": -1}, 400, "bad_request"),
        ("/v1/score", {"pairs": [[1, 10 ** 6, 2]]}, 400, "bad_request"),
        ("/v1/encode", {"ids": [1], "seed": "x"}, 400, "bad_request"),
        ("/v1/nope", {"ids": [1]}, 404, "not_found"),
    ]
    for path, body, want_status, want_code in cases:
        status, payload = post(fleet.url, path, body)
        assert status == want_status, (path, body, payload)
        assert payload["error"]["code"] == want_code
        assert payload["error"]["message"]
    # non-JSON body
    req = urllib.request.Request(fleet.url + "/v1/embeddings",
                                 data=b"not json")
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(req, timeout=30)
    assert exc_info.value.code == 400
    # GET on a POST endpoint
    status, payload = get(fleet.url, "/v1/embeddings")
    assert status == 405 and payload["error"]["code"] == "bad_request"


def test_key_error_messages_are_not_quoted(fleet, oracle):
    """An engine ``KeyError`` (bad node or relation id) answers its
    message as written, not ``str(KeyError)``'s quoted form."""
    num = oracle.decoder.num_relations
    cases = [
        ("/v1/embeddings", {"ids": [10 ** 9]},
         "query node ids out of range: [1000000000]"),
        ("/v1/score", {"pairs": [[1, 10 ** 6, 2]]},
         f"relation ids out of range [0, {num}): [1000000]"),
    ]
    for path, body, message in cases:
        assert post(fleet.url, path, body) == (400, {"error": {
            "code": "bad_request", "message": message}})


def test_healthz_and_statz(fleet):
    status, body = get(fleet.url, "/healthz")
    assert status == 200 and body["status"] == "ok"
    assert [w["worker"] for w in body["workers"]] == [0, 1]
    status, body = get(fleet.url, "/statz")
    assert status == 200
    assert body["router"]["policy"] == "range"
    assert len(body["workers"]) == 2
    assert any(key.startswith("http./v1/") for key in body["gateway"])
    for worker in body["workers"]:
        assert {"requests", "batches"} <= set(worker["batcher"])


def test_worker_protocol_direct(fleet):
    """The frame protocol works without the gateway in the middle."""
    info = fleet.worker_info[0]
    with WorkerClient(fleet.host, info["port"]) as client:
        reply = client.request("health")
        assert reply["ok"] and reply["worker"] == 0
        reply = client.request("embed", ids=[0])
        assert reply["ok"] and len(reply["embeddings"]) == 1
        reply = client.request("bogus")
        assert not reply["ok"] and reply["error"]["code"] == "bad_request"


def test_dispatcher_maps_stopped_batcher_to_draining(tmp_path):
    """A query after the gate closes is answered with the ``draining``
    DTO and never reaches the engine."""
    cfg = WorkerConfig(index=0, spec={}, workdir=str(tmp_path))
    calls = []
    engine = types.SimpleNamespace(
        get_embeddings=lambda ids: calls.append(ids) or np.zeros((1, 4)))
    gate = _Gate()
    dispatcher = _Dispatcher(cfg, engine, gate,
                             GracefulDrain(exit_after=False))
    assert dispatcher.handle({"op": "embed", "ids": [1]})["ok"]
    gate.close()
    reply = dispatcher.handle({"op": "embed", "ids": [1]})
    assert not reply["ok"] and reply["error"]["code"] == "draining"
    assert len(calls) == 1


def test_gateway_renders_no_answer(fleet, oracle, monkeypatch):
    """A 200 body is the answering worker's rendering: the host neither
    parses a query nor renders its answer."""
    import repro.fleet.gateway as gateway_module
    calls = {"loads": 0, "dumps": 0}

    def counted(name):
        real = getattr(json, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(gateway_module, "json", types.SimpleNamespace(
        loads=counted("loads"), dumps=counted("dumps"),
        JSONDecodeError=json.JSONDecodeError))
    n = int(oracle.store.num_nodes)
    ids = [n - 1, 0, 1, n // 2, 7, 7, 3, n - 2]
    status, raw = post_raw(fleet.url, "/v1/embeddings", {"ids": ids})
    assert status == 200
    rows = oracle.get_embeddings(np.asarray(ids))
    assert raw == ('{"embeddings": %s, "worker": %d}' % (
        _float32_json(rows), json.loads(raw)["worker"])).encode()
    got = np.asarray(json.loads(raw)["embeddings"], dtype=np.float32)
    assert got.tobytes() == rows.tobytes()
    status, raw = post_raw(fleet.url, "/v1/topk",
                           {"source": 3, "k": 5, "exclude": [3]})
    assert status == 200
    top_ids, scores = oracle.topk_targets(3, 5, rel=0, exclude=[3])
    assert raw == ('{"ids": %s, "scores": %s, "worker": %d}' % (
        json.dumps(top_ids.tolist()), _float32_json(scores),
        json.loads(raw)["worker"])).encode()
    got = np.asarray(json.loads(raw)["scores"], dtype=np.float32)
    assert got.tobytes() == scores.tobytes()
    assert calls == {"loads": 0, "dumps": 0}


def _connect(fleet):
    return socket.create_connection((fleet.gateway.host, fleet.gateway.port),
                                    timeout=30)


def _worker_of(sock, ids):
    status, body, rest = _post(sock, ids)
    assert status == b"HTTP/1.1 200 OK" and rest == b"", body
    return json.loads(body)["worker"]


def test_keep_alive_connection_stays_on_one_worker(fleet, oracle):
    """Every reply on one keep-alive connection comes from the same
    worker, whatever the node id; two connections land on different
    workers."""
    n = int(oracle.store.num_nodes)
    with _connect(fleet) as a, _connect(fleet) as b:
        first = {_worker_of(a, [node]) for node in (0, n - 1, n // 2, 1)}
        second = {_worker_of(b, [node]) for node in (n - 1, 0, 2, n // 2)}
    assert len(first) == 1 and len(second) == 1
    assert first != second


def test_statz_after_a_post_on_a_worker_connection(fleet):
    """``GET /statz`` after a POST on the same connection is answered (the
    worker passes the connection back), and so is a POST after it."""
    with _connect(fleet) as sock:
        worker = _worker_of(sock, [0])
        statz = _statz(sock)
        assert statz["gateway"][f"routed.worker-{worker}"] >= 1
        assert [w["worker"] for w in statz["workers"]] == [0, 1]
        _worker_of(sock, [1])


def test_connection_outlives_the_host_handler(fleet):
    """A passed connection belongs to its worker: once the host's handler
    has returned, 50 more queries on it are still answered."""
    with _connect(fleet) as sock:
        worker = _worker_of(sock, [0])
        _wait_for(lambda: not fleet.gateway.handlers._live)
        for node in range(50):
            assert _worker_of(sock, [node]) == worker


# Keep last among the module-fleet tests: it kills worker 1 for good.
def test_killed_worker_costs_only_its_own_connections(fleet, oracle):
    """SIGKILL one worker: the connection it held is gone, but fresh
    connections are answered 200 for node ids in both halves of the id
    space, and ``/healthz`` reads degraded."""
    n = int(oracle.store.num_nodes)
    held = {}
    for _ in range(2):
        sock = _connect(fleet)
        held[_worker_of(sock, [0])] = sock
    assert sorted(held) == [0, 1]
    victim = 1
    os.kill(fleet.worker_info[victim]["pid"], signal.SIGKILL)
    fleet._procs[victim].join(timeout=10.0)
    assert not fleet._procs[victim].is_alive()
    try:
        assert _worker_of(held[0], [n - 1]) == 0    # the survivor's stays
        for _ in range(4):
            for node in (0, n // 2 - 1, n // 2, n - 1):
                status, body = post(fleet.url, "/v1/embeddings",
                                    {"ids": [node]})
                assert status == 200 and body["worker"] == 0, body
    finally:
        for sock in held.values():
            sock.close()
    status, body = get(fleet.url, "/healthz")
    assert status == 503 and body["status"] == "degraded"
    assert [w["worker"] for w in body["workers"] if not w["alive"]] == [victim]


# ---------------------------------------------------------------------------
# Drain: every accepted request is answered
# ---------------------------------------------------------------------------

def test_drain_answers_every_accepted_request(lp_snapshot, tmp_path):
    spec = fleet_spec(lp_snapshot, tmp_path / "fleet")
    fleet = Fleet(spec.to_dict(), tmp_path / "fleet")
    fleet.start()
    outcomes = []
    lock = threading.Lock()

    def client(seed):
        for i in range(10):
            try:
                status, body = post(fleet.url, "/v1/embeddings",
                                    {"ids": [(seed * 17 + i) % 100]})
                with lock:
                    outcomes.append(("http", status))
            except (urllib.error.URLError, ConnectionError, OSError):
                # refused after the listener closed: rejected, not lost
                with lock:
                    outcomes.append(("refused", None))

    threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
    try:
        for t in threads:
            t.start()
        while True:
            with lock:
                if len(outcomes) >= 8:
                    break
            time.sleep(0.01)
        codes = fleet.stop()
    finally:
        for t in threads:
            t.join(timeout=30.0)
        fleet.stop()
    assert all(not t.is_alive() for t in threads)
    assert len(outcomes) == 40                 # nothing hung or vanished
    answered = [s for kind, s in outcomes if kind == "http"]
    assert answered and all(s in (200, 503) for s in answered)
    assert any(s == 200 for s in answered)
    assert all(code == 0 for code in codes)    # workers drained cleanly


def test_fleet_job_runs_with_duration(lp_snapshot, tmp_path):
    """serve-fleet through the unified job API: build, serve, drain."""
    spec = fleet_spec(lp_snapshot, tmp_path / "fleet", duration=1.0)
    result = api.run(spec)
    assert result["workers"] == 2
    assert result["exitcodes"] == [0, 0]
    logs = sorted((tmp_path / "fleet").glob("worker-*/telemetry.jsonl"))
    assert logs == []                          # telemetry off by default


def test_spec_validation():
    with pytest.raises(api.JobError, match="snapshot"):
        api.JobSpec.from_dict({"kind": "serve-fleet"}).resolve()
    with pytest.raises(api.JobError, match="workers"):
        fleet_spec("x", "y", workers=0)
    with pytest.raises(api.JobError, match="affinity"):
        fleet_spec("x", "y", affinity="hash")
    with pytest.raises(api.JobError, match="port"):
        fleet_spec("x", "y", port=70000)


# ---------------------------------------------------------------------------
# `repro top` multi-log merge
# ---------------------------------------------------------------------------

def _hist(count, total, lo, hi, buckets):
    return {"count": count, "sum": total, "mean": total / count,
            "min": lo, "max": hi, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            "zero": 0, "buckets": buckets}


def test_top_merges_worker_logs(tmp_path, capsys):
    from repro.cli import main
    for i, (count, reqs) in enumerate([(3, 10), (5, 32)]):
        d = tmp_path / f"worker-{i}"
        d.mkdir(parents=True)
        records = [
            {"ts": 100.0 + i, "type": "event", "event": "request",
             "payload": {}},
            {"ts": 110.0 + i, "type": "metrics", "label": "final",
             "metrics": {"serve.requests": reqs,
                         "serve.embed.latency_ms": _hist(
                             count, count * 2.0, 1.0, 3.0, {"3": count})}},
        ]
        (d / "telemetry.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records))
    assert main(["top", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "merged (2 logs)" in out
    assert "request x2" in out                 # events summed
    merged = out.split("merged (2 logs)")[1]
    row = next(line for line in merged.splitlines()
               if "serve.embed.latency_ms" in line)
    assert row.split()[1] == "8"               # histogram counts merged
    counter = next(line for line in merged.splitlines()
                   if "serve.requests" in line)
    assert counter.split()[1] == "42"          # counters summed


def test_top_shows_settings_and_gauges_at_their_last_value(tmp_path,
                                                           capsys):
    """Settings and gauges are neither summed across logs nor rated:
    the merged view shows the latest log's value, counters still sum."""
    from repro.cli import main
    for i, (in_flight, smallest) in enumerate([(3, 512), (1, 4096)]):
        d = tmp_path / f"worker-{i}"
        d.mkdir(parents=True)
        record = {"ts": 110.0 + i, "type": "metrics", "label": "final",
                  "metrics": {"batcher.requests": 10 * (i + 1),
                              "batcher.max_queue": 2048,
                              "batcher.timeout_ms": 250.0,
                              "batcher.in_flight": in_flight,
                              "storage.smallest_read": smallest}}
        (d / "telemetry.jsonl").write_text(
            json.dumps({"ts": 100.0, "type": "event", "event": "request",
                        "payload": {}}) + "\n" + json.dumps(record) + "\n")
    assert main(["top", str(tmp_path)]) == 0
    merged = capsys.readouterr().out.split("merged (2 logs)")[1]
    rows = {line.split()[0]: line.split()[1:]
            for line in merged.splitlines()[1:] if line.strip()}
    assert rows["batcher.requests"][0] == "30"          # counter: summed
    assert rows["batcher.max_queue"] == ["2,048"]       # no per-sec rate
    assert rows["batcher.timeout_ms"] == ["250.0"]
    assert rows["batcher.in_flight"] == ["1"]           # worker-1's, later
    assert rows["storage.smallest_read"] == ["4,096"]


def test_top_rates_a_rerun_over_its_own_span(tmp_path, capsys):
    """A log holding two runs (a rerun over the same workdir) shows the
    last run only: its records, and counters rated over its own span."""
    from repro.cli import main
    log = tmp_path / "worker-0" / "telemetry.jsonl"
    log.parent.mkdir()
    records = []
    for start, requests in ((100.0, 90), (120.0, 40)):
        records += [
            {"ts": start, "type": "event", "event": "request",
             "payload": {}},
            {"ts": start + 2.0, "type": "metrics", "label": "periodic",
             "metrics": {"serve.requests": requests // 2}},
            {"ts": start + 4.0, "type": "metrics", "label": "final",
             "metrics": {"serve.requests": requests}}]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["top", str(log)]) == 0
    out = capsys.readouterr().out
    assert "(last of 2 runs) — 3 records over 4.0s" in out
    assert "request x1" in out
    row = next(line for line in out.splitlines()
               if "serve.requests" in line)
    assert row.split()[1:] == ["40", "10.0"]
