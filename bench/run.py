"""Broker benchmark: one generator process against ``pubsub serve``.

    python3 bench/run.py --workload pingpong --seed 1 --seconds 20 --trace 0

The broker runs as its own process, started from the checkout's
``src/``. One single-threaded generator drives it over loopback with at
most two connections open at any moment, and checks every reply and
delivery against the model in ``checker.py``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run measures half its time untraced and half
through ``traced_broker.py`` and reports the per-layer metrics, the
tracing overhead (traced minus untraced) among them. The full result is
also written to ``BENCH_<workload>[-trace].json`` in the current
directory. README.md in this directory describes the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import selectors
import signal
import socket
import statistics
import string
import subprocess
import sys
import time
from pathlib import Path

from checker import Checker, Model
from layers import METRICS as LAYER_METRICS
from layers import per_layer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MAX_CONNECTIONS = 2
SETUPS = 5  # broker start-ups per untraced run; setup_s is their median
REPLY_TIMEOUT_S = 10.0
START_TIMEOUT_S = 30.0

WIDE_TABLE_ENTRIES = 2000
STREAM_RATE = 500  # publishes per second
STREAM_MESSAGE_BYTES = (200, 300)
SMALL_MESSAGE_BYTES = (8, 40)
CHURN_LEVEL = 400  # table entries the churn workload keeps around
# One churn round: these closed-loop ops on one connection in a seeded
# order, then one session turnover. A publisher that holds the channel
# itself gets three writes (delivery, reply, prompt) instead of two; both
# kinds of publish are fixed shares of the round.
CHURN_ROUND = {
    "toggle": 32,
    "publish_held": 8,
    "publish_other": 12,
    "resubscribe": 2,
    "stray_unsubscribe": 2,
}

# op_p90_us and delivery_p90_us are measured too but only written to
# BENCH_*.json: the tail of a sub-millisecond path moves with the host's
# load, and spread 10-37 % between runs of the same code.
E2E_METRICS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "ack_p50_us": "us",
    "delivery_p50_us": "us",
    "cpu_us_per_op": "us",
    "rss_mb": "MiB",
}

now = time.monotonic_ns


class Stalled(Exception):
    """The broker stopped answering; the run cannot go on."""


def percentile(values: list[int], q: float) -> float | None:
    """Nearest-rank percentile of nanosecond samples, in microseconds.

    None when every sample's op failed its check, so that the run still
    reports its failures instead of crashing.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1] / 1e3


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _die_with_parent() -> None:
    # PR_SET_PDEATHSIG: the broker gets SIGKILL if the generator dies
    # without running its cleanup.
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


class BrokerProcess:
    """One broker process: ``pubsub serve``, or the traced launcher."""

    def __init__(self, spans_path: Path | None) -> None:
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.spawned_ns = 0

    def spawn(self) -> None:
        self.port = _free_port()
        serve = ["serve", "--port", str(self.port), "--log-level", "quiet", "--grace-period", "1"]
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "pubsub", *serve]
        else:
            cmd = [sys.executable, str(BENCH / "traced_broker.py"), str(self.spans_path), *serve]
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.spawned_ns = now()
        self.proc = subprocess.Popen(
            cmd,
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            preexec_fn=_die_with_parent,
        )

    def connect(self) -> socket.socket:
        """Connect, polling until the broker listens; respawn if the port was taken."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                return socket.create_connection(("127.0.0.1", self.port), timeout=REPLY_TIMEOUT_S)
            except ConnectionRefusedError:
                code = self.proc.poll()
                if code == 2:  # cannot bind: someone else took the port
                    self.spawn()
                elif code is not None:
                    raise Stalled(f"broker exited with code {code} before listening")
                time.sleep(0.001)
        raise Stalled("broker did not start listening")

    def cpu_ns(self) -> int:
        """CPU time of the whole broker process, all threads, in ns."""
        # The kernel's per-process CPU clock id: MAKE_PROCESS_CPUCLOCK(pid, SCHED).
        return time.clock_gettime_ns(((~self.proc.pid) << 3) | 2)

    def status(self, field: str) -> int:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise KeyError(field)

    def stop(self) -> int:
        """SIGTERM, wait for the exit; SIGKILL if it does not come."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.kill()
            return -signal.SIGKILL

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Conn:
    def __init__(self, name: str, sock: socket.socket) -> None:
        self.name = name
        self.sock = sock
        self.buf = b""
        self.out: list[str] = []
        self.out_ops: list[int] = []
        self.eof = False


class Session:
    """One broker lifetime: its connections, model, checker and samples."""

    def __init__(self, tally: "Tally", spans_path: Path | None = None) -> None:
        self.tally = tally
        self.broker = BrokerProcess(spans_path)
        self.model = Model()
        self.checker = Checker()
        # select(2) takes its timeout in microseconds; epoll rounds up to
        # milliseconds, which would make the stream schedule run late.
        self.selector = selectors.SelectSelector()
        self.conns: dict[str, Conn] = {}
        self.connects = 0
        self.ready_ns = 0  # first banner received
        # op id -> [kind, due_ns, sent_ns, timed]
        self.meta: dict[int, list] = {}
        self.window = (math.inf, math.inf)  # op ids sampled: [first, last)
        self.op_ns: list[int] = []
        self.ack_ns: list[int] = []
        self.delivery_ns: list[int] = []
        self.done = 0
        self.last_reply_ns = 0

    # -- connections --------------------------------------------------

    def connect(self, name: str) -> Conn:
        if len(self.conns) >= MAX_CONNECTIONS:
            raise RuntimeError("the generator may hold at most two connections")
        if self.broker.proc is None:
            self.broker.spawn()
        sock = self.broker.connect()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = Conn(name, sock)
        self.conns[name] = conn
        self.selector.register(sock, selectors.EVENT_READ, conn)
        # A greeting is checked like a reply but is not an op: its negative
        # id keeps it out of the counts and the samples.
        self.connects += 1
        self.checker.open(name, -self.connects)
        self.wait_replies(conn)
        if not self.ready_ns:
            self.ready_ns = self.last_reply_ns
        return conn

    def reconnect(self, slot: str) -> Conn:
        """Connect under a fresh name: ``slot`` plus a serial number."""
        return self.connect(f"{slot}{self.connects + 1}")

    def quit(self, conn: Conn) -> None:
        """``quit``, then read to end of input and check nothing is owed."""
        self.issue(conn, "quit")
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while not conn.eof:
            if time.monotonic() > deadline:
                raise Stalled(f"{conn.name}: no end of input after quit")
            self.pump(REPLY_TIMEOUT_S)
        self.checker.close(conn.name)
        conn.sock.close()
        del self.conns[conn.name]

    # -- commands -----------------------------------------------------

    def issue(
        self,
        conn: Conn,
        kind: str,
        channel: str = "",
        message: str = "",
        due: int = 0,
        timed: bool = True,
        flush: bool = True,
    ) -> int:
        """Queue one command, tell the checker what the model predicts for it."""
        op = self.tally.next_op()
        name = conn.name
        if kind == "subscribe":
            reply, line = self.model.subscribe(channel, name), f"subscribe {channel}"
        elif kind == "unsubscribe":
            reply, line = self.model.unsubscribe(channel, name), f"unsubscribe {channel}"
        elif kind == "publish":
            reply, recipients = self.model.publish(channel)
            line = f"publish {channel} {message}"
            delivery = f"[{channel}] {message}"
            for recipient in recipients:
                self.checker.delivery(recipient, op, delivery)
        elif kind == "quit":
            reply, line = self.model.release(name), "quit"
        else:
            raise ValueError(kind)
        self.checker.command(name, op, reply, quit=kind == "quit")
        self.meta[op] = [kind, due, 0, timed]
        conn.out.append(line)
        conn.out_ops.append(op)
        if flush:
            self.flush(conn)
        return op

    def flush(self, conn: Conn) -> int:
        data = ("\n".join(conn.out) + "\n").encode()
        sent = now()
        for op in conn.out_ops:
            self.meta[op][2] = sent
        conn.out.clear()
        conn.out_ops.clear()
        conn.sock.sendall(data)
        return sent

    def call(self, conn: Conn, kind: str, channel: str = "", message: str = "") -> None:
        """One closed-loop op: send, then wait for its reply and prompt.

        Waiting for the prompt, as an interactive client does, keeps every
        op on the same path through the broker's two writes per reply.
        """
        self.issue(conn, kind, channel, message)
        self.wait_replies(conn)

    # -- input --------------------------------------------------------

    def wait_replies(self, conn: Conn) -> None:
        """Wait until every command sent on ``conn`` has its reply and its prompt."""
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while self.checker.owed(conn.name) > 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or conn.eof:
                raise Stalled(f"{conn.name}: no reply within {REPLY_TIMEOUT_S} s")
            self.pump(remaining)

    def wait_deliveries(self) -> None:
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while any(self.checker.pending_deliveries(name) for name in self.conns):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise Stalled(f"deliveries missing after {REPLY_TIMEOUT_S} s")
            self.pump(remaining)

    def pump(self, timeout: float) -> None:
        for key, _events in self.selector.select(max(0.0, timeout)):
            conn: Conn = key.data
            try:
                chunk = conn.sock.recv(1 << 18)
            except ConnectionError:
                chunk = b""
            received = now()
            if not chunk:
                conn.eof = True
                self.selector.unregister(conn.sock)
                continue
            self._lines(conn, conn.buf + chunk, received)

    def _lines(self, conn: Conn, buf: bytes, received: int) -> None:
        # The prompt "> " has no terminator and may arrive anywhere
        # between lines, in its own segment or glued to the next line.
        pos, size, name = 0, len(buf), conn.name
        while pos < size:
            if buf.startswith(b"> ", pos):
                self.checker.on_prompt(name)
                pos += 2
                continue
            end = buf.find(b"\n", pos)
            if end < 0:
                break
            line = buf[pos:end].decode("utf-8", "replace")
            pos = end + 1
            if line.startswith("["):
                want = self.checker.on_delivery(name, line)
                if want is not None and self._sampled(want.op):
                    kind, due, sent, _timed = self.meta[want.op]
                    self.delivery_ns.append(received - (due or sent))
            else:
                want = self.checker.on_reply(name, line)
                self.last_reply_ns = received
                if want is not None and self._sampled(want.op):
                    kind, due, sent, timed = self.meta[want.op]
                    self.done += 1
                    if timed:
                        self.op_ns.append(received - sent)
                    if kind == "publish":
                        self.ack_ns.append(received - (due or sent))
        conn.buf = buf[pos:]

    def _sampled(self, op: int) -> bool:
        return self.window[0] <= op < self.window[1]

    # -- life cycle ---------------------------------------------------

    def teardown(self, probe_channels: list[str]) -> None:
        """Quit every connection, then check from a fresh one that the
        broker forgot them: publishes reach nobody, unsubscribes fail."""
        for conn in list(self.conns.values()):
            self.quit(conn)
        probe = self.reconnect("probe")
        for channel in probe_channels:
            self.call(probe, "publish", channel, "probe")
        self.call(probe, "unsubscribe", probe_channels[0])
        self.quit(probe)
        code = self.broker.stop()
        if code != 0:
            self.checker.fail_unexplained(f"broker exited with code {code}")

    def close(self) -> None:
        """Every exit path: no socket and no broker process outlive this."""
        for conn in self.conns.values():
            conn.sock.close()
        self.selector.close()
        self.broker.kill()


class Tally:
    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []

    def next_op(self) -> int:
        self.ops += 1
        return self.ops

    def absorb(self, session: Session) -> None:
        self.failed += session.checker.failed
        self.problems += session.checker.problems


# -- workloads ---------------------------------------------------------


def _token(rng: random.Random, size: int = 6) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=size))


def _message(rng: random.Random, seq: int, sizes: tuple[int, int]) -> str:
    """``<seq> <padding>``: the sequence number makes every message unique."""
    head = f"{seq} "
    return head + _token(rng, max(1, rng.randint(*sizes) - len(head)))


class Workload:
    name = ""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.seq = 0

    def setup(self, session: Session) -> None:
        raise NotImplementedError

    def measure(self, session: Session, seconds: float) -> None:
        raise NotImplementedError

    def probe_channels(self) -> list[str]:
        raise NotImplementedError


class PingPong(Workload):
    """Closed loop: publish a small message, one subscriber, tiny table."""

    name = "pingpong"

    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.channel = "hot-" + _token(rng)

    def setup(self, session: Session) -> None:
        session.connect("pub")
        sub = session.connect("sub")
        session.call(sub, "subscribe", self.channel)

    def measure(self, session: Session, seconds: float) -> None:
        pub = session.conns["pub"]
        deadline = now() + int(seconds * 1e9)
        while now() < deadline:
            self.seq += 1
            session.call(pub, "publish", self.channel, _message(self.rng, self.seq, SMALL_MESSAGE_BYTES))
        session.wait_deliveries()

    def probe_channels(self) -> list[str]:
        return [self.channel]


class WideTable(PingPong):
    """pingpong's traffic beside thousands of subscriptions nobody publishes to."""

    name = "wide_table"

    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        tag = _token(rng, 4)
        self.cold = [f"cold-{tag}-{i}" for i in range(WIDE_TABLE_ENTRIES)]
        rng.shuffle(self.cold)

    def setup(self, session: Session) -> None:
        # Build order: pub's half, then sub's half, each pipelined over
        # its own connection, then sub's one hot subscription.
        pub = session.connect("pub")
        sub = session.connect("sub")
        half = len(self.cold) // 2
        for conn, channels in ((pub, self.cold[:half]), (sub, self.cold[half:])):
            for channel in channels:
                session.issue(conn, "subscribe", channel, timed=False, flush=False)
            session.flush(conn)
            session.wait_replies(conn)
        session.call(sub, "subscribe", self.channel)

    def probe_channels(self) -> list[str]:
        return [self.channel, self.cold[0], self.cold[-1]]


class Stream(PingPong):
    """Open loop: pipelined publishes on a fixed schedule, one subscriber."""

    name = "stream"

    def measure(self, session: Session, seconds: float) -> None:
        pub = session.conns["pub"]
        interval = 1e9 / STREAM_RATE
        count = int(seconds * STREAM_RATE)
        start = now()
        self.late_ns: list[int] = []
        k = 0
        while k < count:
            current = now()
            first = k
            while k < count and start + int(k * interval) <= current:
                self.seq += 1
                message = _message(self.rng, self.seq, STREAM_MESSAGE_BYTES)
                session.issue(pub, "publish", self.channel, message, due=start + int(k * interval), flush=False)
                k += 1
            if k > first:
                sent = session.flush(pub)
                self.late_ns.append(sent - (start + int(first * interval)))
            if k < count:
                # Sleep until shortly before the next publish is due, then
                # poll without sleeping, so that waking up late from the
                # sleep does not make the publish late.
                wait = (start + k * interval - now()) / 1e9
                session.pump(wait - 300e-6 if wait > 300e-6 else 0.0)
        session.wait_replies(pub)
        session.wait_deliveries()


class Churn(Workload):
    """Closed loop of subscription writes, some publishes, and session turnover.

    The two connections take turns. In each round the active one sends
    the fixed mix in ``CHURN_ROUND`` in a seeded order, starting with a
    toggle, while the other only receives deliveries. Then the passive
    one quits, the active one publishes to a channel that only the
    departed connection held, and the passive one reconnects and
    re-subscribes to a seeded half of the channel pool, pipelined. The
    reconnected connection is the next round's active one.
    """

    name = "churn"

    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        tag = _token(rng, 4)
        self.pool = [f"ch-{tag}-{i}" for i in range(CHURN_LEVEL)]
        self.active = self.passive = ""

    def _resubscribe(self, session: Session, conn: Conn) -> None:
        for channel in self.rng.sample(self.pool, CHURN_LEVEL // 2):
            session.issue(conn, "subscribe", channel, timed=False, flush=False)
        session.flush(conn)
        session.wait_replies(conn)

    def setup(self, session: Session) -> None:
        for slot in "ab":
            self._resubscribe(session, session.reconnect(slot))
        self.passive, self.active = sorted(session.conns)

    def measure(self, session: Session, seconds: float) -> None:
        deadline = now() + int(seconds * 1e9)
        while now() < deadline:
            self.round(session)
        session.wait_deliveries()

    def round(self, session: Session) -> None:
        rng, model = self.rng, session.model
        conn = session.conns[self.active]
        mix = [kind for kind, count in CHURN_ROUND.items() for _ in range(count)]
        rng.shuffle(mix)
        mix.remove("toggle")
        for kind in ["toggle"] + mix:
            held = model.channels_of(conn.name)
            free = sorted(set(self.pool) - set(held))
            if kind == "toggle":
                channel = rng.choice(self.pool)
                session.call(conn, "unsubscribe" if model.holds(channel, conn.name) else "subscribe", channel)
            elif kind.startswith("publish"):
                self.seq += 1
                message = _message(rng, self.seq, SMALL_MESSAGE_BYTES)
                targets = held if kind == "publish_held" else free
                session.call(conn, "publish", rng.choice(targets or self.pool), message)
            elif kind == "resubscribe":  # ERR already subscribed, unless it holds nothing
                session.call(conn, "subscribe", rng.choice(held or self.pool))
            else:  # ERR not subscribed, unless it holds every channel
                session.call(conn, "unsubscribe", rng.choice(free or self.pool))
        leaving = session.conns[self.passive]
        departed = sorted(set(model.channels_of(leaving.name)) - set(model.channels_of(conn.name)))
        session.quit(leaving)
        # The broker must no longer count the departed connection.
        self.seq += 1
        message = _message(rng, self.seq, SMALL_MESSAGE_BYTES)
        session.call(conn, "publish", rng.choice(departed or self.pool), message)
        joined = session.reconnect(leaving.name[0])
        self._resubscribe(session, joined)
        self.passive, self.active = conn.name, joined.name

    def probe_channels(self) -> list[str]:
        return self.pool[:3]


WORKLOADS = {cls.name: cls for cls in (PingPong, WideTable, Stream, Churn)}


# -- runs --------------------------------------------------------------


def run_phase(
    workload: Workload,
    tally: Tally,
    seconds: float,
    setups: int,
    spans_path: Path | None = None,
) -> dict:
    """``setups`` broker start-ups; the last one is measured for ``seconds``."""
    setup_s, ready_s = [], []
    for index in range(setups):
        session = Session(tally, spans_path)
        try:
            workload.setup(session)
            setup_s.append((now() - session.broker.spawned_ns) / 1e9)
            ready_s.append((session.ready_ns - session.broker.spawned_ns) / 1e9)
            if index < setups - 1:
                session.teardown(workload.probe_channels())
                continue
            figures = measure(workload, session, seconds)
            session.teardown(workload.probe_channels())
        except (Stalled, OSError) as error:
            # The broker hung up or went quiet: whatever it still owes fails.
            session.checker.fail_unexplained(f"{type(error).__name__}: {error}")
            for name in list(session.conns):
                session.checker.close(name)
            raise Stalled(str(error)) from error
        finally:
            session.close()
            tally.absorb(session)
    figures["setup_s"] = statistics.median(setup_s)
    figures["cli.ready_s"] = statistics.median(ready_s)
    return figures


def measure(workload: Workload, session: Session, seconds: float) -> dict:
    broker = session.broker
    session.window = (session.tally.ops + 1, math.inf)
    # The generator's own collector pauses would show up as broker latency.
    gc.collect()
    gc.disable()
    try:
        cpu0, start = broker.cpu_ns(), now()
        workload.measure(session, seconds)
        end = session.last_reply_ns
        cpu = broker.cpu_ns() - cpu0
    finally:
        gc.enable()
    session.window = (session.window[0], session.tally.ops + 1)
    ops = session.window[1] - session.window[0]
    figures = {
        "ops_per_s": session.done / ((end - start) / 1e9),
        "op_p50_us": percentile(session.op_ns, 0.5),
        "op_p90_us": percentile(session.op_ns, 0.9),
        "ack_p50_us": percentile(session.ack_ns, 0.5),
        "delivery_p50_us": percentile(session.delivery_ns, 0.5),
        "delivery_p90_us": percentile(session.delivery_ns, 0.9),
        "cpu_us_per_op": cpu / 1e3 / ops,
        "rss_mb": broker.status("VmHWM") / 1024,
        "broker.threads": broker.status("Threads"),
        # Not metrics: what the figures rest on.
        "ops": ops,
        "samples": {
            "op": len(session.op_ns),
            "ack": len(session.ack_ns),
            "delivery": len(session.delivery_ns),
        },
        "window_ns": (start, end),
    }
    late = getattr(workload, "late_ns", None)
    if late:
        figures["generator_late_p50_us"] = percentile(late, 0.5)
        figures["generator_late_max_us"] = max(late) / 1e3
    return figures


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name](random.Random(f"{workload_name}:{seed}"))
    tally = Tally()
    label = workload_name + ("-trace" if trace else "")
    report: dict = {"workload": workload_name, "seed": seed, "seconds": seconds}
    metrics: dict[str, tuple[float | None, str]] = {}
    try:
        if not trace:
            figures = run_phase(workload, tally, seconds, SETUPS)
            metrics = {name: (figures[name], unit) for name, unit in E2E_METRICS.items()}
            report["figures"] = figures
        else:
            spans_path = Path.cwd() / f"BENCH_{workload_name}-spans.json"
            plain = run_phase(workload, tally, seconds / 2, 1)
            traced = run_phase(workload, tally, seconds / 2, 1, spans_path)
            start, end = traced["window_ns"]
            layer = per_layer(json.loads(spans_path.read_text()), start, end, traced["ops"])
            layer["cli.ready_s"] = plain["cli.ready_s"]
            layer["broker.threads"] = traced["broker.threads"]
            metrics = {name: (layer[name], unit) for name, unit in LAYER_METRICS.items()}
            for name, unit in E2E_METRICS.items():
                both = traced[name] is not None and plain[name] is not None
                metrics[f"overhead.{name}"] = (traced[name] - plain[name] if both else None, unit)
            report["figures"] = {"untraced": plain, "traced": traced}
    except Stalled as stall:
        tally.problems.append(str(stall))
        tally.failed = max(tally.failed, 1)
    failed = min(tally.failed, tally.ops)
    result = {
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": tally.ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report.update(result, problems=tally.problems)
    Path(f"BENCH_{label}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    for problem in tally.problems:
        print(f"bench: {problem}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pubsub" / "__init__.py").is_file():
        print(f"bench: no broker source at {SRC / 'pubsub'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so every broker is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
