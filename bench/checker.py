"""The benchmark's own model of the broker, and the checker built on it.

Written from docs/protocol.md alone: nothing here imports ``pubsub``, so
a fault in ``pubsub.core`` or ``pubsub.protocol`` cannot hide itself by
also being in the reference.

``Model`` is the subscription table as a dict of sets and predicts every
reply. ``Checker`` holds, per connection, the replies and deliveries the
model predicts and matches what the broker sends against them: replies
in command order, deliveries byte-exact, FIFO and exactly once, and one
prompt per command except ``quit``. Every mismatch fails the op that
caused it; a line that no op explains counts as one failure on its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

BANNER = "Write 'publish <ch> <msg>' to publish, 'subscribe <ch>' to subscribe."


class Model:
    """Subscription table as ``channel -> set of connection names``."""

    def __init__(self) -> None:
        self.table: dict[str, set[str]] = {}

    def holds(self, channel: str, conn: str) -> bool:
        return conn in self.table.get(channel, ())

    def channels_of(self, conn: str) -> list[str]:
        return sorted(ch for ch, conns in self.table.items() if conn in conns)

    def subscribe(self, channel: str, conn: str) -> str:
        conns = self.table.setdefault(channel, set())
        if conn in conns:
            return "ERR already subscribed"
        conns.add(conn)
        return f"OK subscribed {channel}"

    def unsubscribe(self, channel: str, conn: str) -> str:
        conns = self.table.get(channel)
        if not conns or conn not in conns:
            return "ERR not subscribed"
        conns.discard(conn)
        if not conns:
            del self.table[channel]
        return f"OK unsubscribed {channel}"

    def publish(self, channel: str) -> tuple[str, list[str]]:
        """The reply and the connections that must receive the message."""
        recipients = sorted(self.table.get(channel, ()))
        return f"OK delivered {len(recipients)}", recipients

    def release(self, conn: str) -> str:
        """``quit`` or disconnect: the connection holds nothing afterwards."""
        for channel in [ch for ch, conns in self.table.items() if conn in conns]:
            self.unsubscribe(channel, conn)
        return "OK bye"


@dataclass
class Expected:
    op: int
    text: str


@dataclass
class _Stream:
    replies: deque = field(default_factory=deque)
    deliveries: deque = field(default_factory=deque)
    commands: int = 0  # commands sent that earn a prompt
    prompts: int = 0


class Checker:
    """Matches each connection's output against what the model predicts."""

    def __init__(self) -> None:
        self._streams: dict[str, _Stream] = {}
        self.failed_ops: set[int] = set()
        self.unexplained = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_ops) + self.unexplained

    def open(self, conn: str, op: int) -> None:
        """A new connection: the banner is its first expected line."""
        stream = self._streams[conn] = _Stream()
        stream.replies.append(Expected(op, BANNER))
        stream.commands = 1  # the greeting ends with a prompt too

    def command(self, conn: str, op: int, reply: str, quit: bool = False) -> None:
        stream = self._streams[conn]
        stream.replies.append(Expected(op, reply))
        if not quit:
            stream.commands += 1

    def delivery(self, conn: str, op: int, line: str) -> None:
        self._streams[conn].deliveries.append(Expected(op, line))

    def owed(self, conn: str) -> int:
        """Replies and prompts the connection is still owed."""
        stream = self._streams[conn]
        return len(stream.replies) + stream.commands - stream.prompts

    def pending_deliveries(self, conn: str) -> int:
        return len(self._streams[conn].deliveries)

    def on_prompt(self, conn: str) -> None:
        self._streams[conn].prompts += 1

    def on_reply(self, conn: str, line: str) -> Expected | None:
        """Match a banner/OK/ERR line; the matched expectation, or None."""
        stream = self._streams[conn]
        if not stream.replies:
            self.fail_unexplained(f"{conn}: unexpected reply {line!r}")
            return None
        want = stream.replies.popleft()
        if line != want.text:
            self._fail(want.op, f"{conn}: op {want.op} replied {line!r}, expected {want.text!r}")
            return None
        return want

    def on_delivery(self, conn: str, line: str) -> Expected | None:
        """Match a ``[ch] msg`` line; the matched expectation, or None."""
        queue = self._streams[conn].deliveries
        if queue and queue[0].text == line:
            return queue.popleft()
        for index, want in enumerate(queue):
            if want.text == line:
                del queue[index]
                self._fail(want.op, f"{conn}: delivery of op {want.op} arrived out of order")
                return None
        self.fail_unexplained(f"{conn}: unexpected or duplicate delivery {line[:60]!r}")
        return None

    def close(self, conn: str) -> None:
        """The connection reached end of input: nothing may be left owed."""
        stream = self._streams[conn]
        for want in stream.replies:
            self._fail(want.op, f"{conn}: no reply to op {want.op} before close")
        for want in stream.deliveries:
            self._fail(want.op, f"{conn}: delivery of op {want.op} missing at close")
        stream.replies.clear()
        stream.deliveries.clear()
        if stream.prompts != stream.commands:
            self.fail_unexplained(f"{conn}: {stream.prompts} prompts for {stream.commands} commands")

    def _fail(self, op: int, why: str) -> None:
        self.failed_ops.add(op)
        self._note(why)

    def fail_unexplained(self, why: str) -> None:
        self.unexplained += 1
        self._note(why)

    def _note(self, why: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(why)
