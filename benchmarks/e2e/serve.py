"""The child server and the HTTP load generator.

The server runs as ``python -m repro serve DB --port 0`` in its **own
process**: client threads that share the server's interpreter contend
for its GIL and measure that, not the program.  The generator is this
process with CONNECTIONS keep-alive connections, one thread each; the
threads spend their time blocked on sockets, so the generator needs no
more than the one core a 2-core box has left beside the server.
"""

from __future__ import annotations

import math
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.errors import ServerError
from repro.server.client import ReproClient

from dataset import MODEL, MODELS, Dataset, row_hash
from trace import OP, Tracer

SRC = str(Path(__file__).resolve().parents[2] / "src")
#: One connection per server worker (``repro serve`` defaults to 4).
#: With fewer, an arrival that is due while every connection is busy
#: queues *in the generator*, and latency from the due time measures the
#: instrument's queue rather than the server's.
CONNECTIONS = 4
_BANNER_PORT = re.compile(r"http://[^:]+:(\d+)")
START_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0


class ChildServer:
    """``repro serve`` in a child process, always reaped.

    Started on an ephemeral port read back from its stdout banner and
    stopped with SIGINT (the graceful drain) plus ``wait()``.
    """

    def __init__(self, db_path: str, log_path: str) -> None:
        self._db_path = db_path
        self._log_path = log_path
        self._process: subprocess.Popen | None = None
        self.port = 0
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "ChildServer":
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(self._log_path, "w", encoding="utf-8") as log:
            self._process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", self._db_path,
                 "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, env=env, text=True)
        try:
            ready, _, _ = select.select([self._process.stdout], [], [],
                                        START_TIMEOUT)
            banner = self._process.stdout.readline() if ready else ""
            found = _BANNER_PORT.search(banner)
            if found is None:
                raise RuntimeError(
                    f"repro serve printed no banner ({banner!r}): "
                    + Path(self._log_path).read_text(encoding="utf-8"))
            self.port = int(found.group(1))
            with self.client() as client:
                client.health("ready")
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()

    def client(self) -> ReproClient:
        return ReproClient("127.0.0.1", self.port)

    def stop(self) -> None:
        """SIGINT, wait, and record the child's peak RSS on the way."""
        process = self._process
        if process is None:
            return
        self._process = None
        self.peak_rss_mb = _peak_rss_mb(process.pid)
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


def _peak_rss_mb(pid: int | str) -> float:
    """``VmHWM`` of a process in MB (0.0 when it is already gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    except OSError:
        return 0.0
    found = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(found.group(1)) / 1024.0 if found else 0.0


def own_peak_rss_mb() -> float:
    return _peak_rss_mb("self")


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------

class Samples:
    """What the generator threads recorded, merged."""

    def __init__(self) -> None:
        #: kind -> seconds (from the due time in the open loop, from
        #: the send in the closed one) of every successful operation
        self.latency: dict[str, list[float]] = {}
        #: kind -> seconds from the send, whichever loop
        self.service: dict[str, list[float]] = {}
        self.late: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rejected_429 = 0
        self.backlog = 0
        self.wall = 0.0
        self.acked: list[int] = []

    def merge(self, other: "Samples") -> None:
        for kind, values in other.latency.items():
            self.latency.setdefault(kind, []).extend(values)
        for kind, values in other.service.items():
            self.service.setdefault(kind, []).extend(values)
        self.late.extend(other.late)
        self.attempted += other.attempted
        self.failed += other.failed
        self.rejected_429 += other.rejected_429
        self.backlog += other.backlog
        self.acked.extend(other.acked)


class Connection:
    """One generator thread's keep-alive client and its checks."""

    def __init__(self, server: ChildServer, dataset: Dataset) -> None:
        self.client = server.client()
        self.dataset = dataset
        #: Set for the traced slice only.
        self.tracer: Tracer | None = None
        self.samples = Samples()
        self._version = -1

    def _match(self, op_id: int, expected, names, **arguments) -> bool:
        tracer = self.tracer
        span = tracer.begin("client_request", op_id) if tracer else -1
        try:
            reply = self.client.match(models=MODELS, **arguments)
        finally:
            if tracer:
                tracer.end(span)
        version = reply["data_version"]
        # A connection must never see the store go back in time.
        monotonic = version >= self._version
        self._version = version
        return monotonic and reply["count"] == expected[0] \
            and row_hash(reply["rows"], names) == expected

    def execute(self, op_id: int, kind: str, arg) -> bool:
        """Send one operation and check its answer against the oracle."""
        dataset = self.dataset
        if kind == "lookup":
            return self._match(op_id, tuple(dataset.rows[arg]), ("p", "o"),
                               query=dataset.lookup_query(arg))
        # The op id, not the schedule slot, names the new subject: a
        # closed loop that wraps the schedule must not insert twice.
        reply = self.client.insert(MODEL, [inserted_triple(dataset, op_id)])
        if reply["created"] == 1:
            self.samples.acked.append(op_id)
            return True
        return False

    def run(self, op_id: int, kind: str, arg, origin: float) -> None:
        """One operation, its latency counted from ``origin``."""
        samples = self.samples
        samples.attempted += 1
        sent = time.perf_counter()
        span = self.tracer.begin(OP, op_id) if self.tracer else -1
        try:
            ok = self.execute(op_id, kind, arg)
        except ServerError as exc:
            ok = False
            if exc.status == 429:
                samples.rejected_429 += 1
        finished = time.perf_counter()
        if self.tracer:
            self.tracer.end(span)
        if ok:
            samples.latency.setdefault(kind, []).append(finished - origin)
            samples.service.setdefault(kind, []).append(finished - sent)
        else:
            samples.failed += 1


def inserted_triple(dataset: Dataset, index: int) -> list[str]:
    """The one new triple insert ``index`` adds: a fresh subject, so the
    oracle for every read is unchanged."""
    return [f"<urn:bench:new:{dataset.seed}:{index}>",
            "<urn:bench:insertedBy>", "<urn:bench:generator>"]


def _run_threads(connections: list[Connection], work) -> Samples:
    errors: list[BaseException] = []

    def guarded(connection: Connection) -> None:
        try:
            work(connection)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(connection,))
               for connection in connections]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = Samples()
    merged.wall = time.perf_counter() - began
    for connection in connections:
        merged.merge(connection.samples)
        connection.samples = Samples()
    return merged


def open_loop(connections: list[Connection], ops: list, seconds: float,
              skip: float = 0.0) -> Samples:
    """Send every arrival due in ``[skip, skip + seconds)`` at
    its due time, whether or not earlier ones have been answered, and
    time each from the instant it was *due*."""
    first = sum(1 for op in ops if op[0] < skip)
    ops = [op for op in ops if skip <= op[0] < skip + seconds]
    lock = threading.Lock()
    cursor = [0]
    # A short lead so no thread is late for the first arrival.
    start = time.perf_counter() + 0.05

    def work(connection: Connection) -> None:
        samples = connection.samples
        while True:
            with lock:
                index = cursor[0]
                cursor[0] = index + 1
            if index >= len(ops):
                return
            due, kind, arg = ops[index]
            target = start + due - skip
            claimed = time.perf_counter()
            if target > claimed:
                time.sleep(target - claimed)
            sent = time.perf_counter()
            # The generator's own lateness: past the due time *and*
            # past the moment a connection was free to send.
            samples.late.append(sent - max(target, claimed))
            if sent > start + seconds:
                samples.backlog += 1
            connection.run(first + index, kind, arg, target)

    return _run_threads(connections, work)


def closed_loop(connections: list[Connection], ops: list, offset: int,
                seconds: float | None = None, count: int | None = None
                ) -> Samples:
    """Every connection sends its next operation as soon as the
    previous one is answered — for ``seconds``, or ``count``
    operations in all.  Operation ids run on from ``offset``."""
    deadline = time.perf_counter() + (seconds or math.inf)
    stride = len(connections)
    stop = offset + (count if count is not None else math.inf)

    def work(connection: Connection) -> None:
        index = offset + connections.index(connection)
        while index < stop:
            began = time.perf_counter()
            if began >= deadline:
                return
            _, kind, arg = ops[index % len(ops)]
            connection.run(index, kind, arg, began)
            index += stride

    return _run_threads(connections, work)
