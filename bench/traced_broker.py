"""``pubsub serve`` with spans recorded around each layer's public calls.

Usage: ``python bench/traced_broker.py <spans.json> serve --port N ...``

The wrappers go in before ``pubsub.cli`` builds and starts the broker,
so every call the broker makes through a module or class attribute is
seen. Spans stay in memory and are written to ``<spans.json>`` once the
broker has shut down (SIGTERM or SIGINT, as for ``pubsub serve``).

A span is ``[id, name, start_ns, end_ns, parent_id, command_id, arg]``.
Times are CLOCK_MONOTONIC, which the benchmark's generator reads too.
``arg`` carries the one number each layer is counted by: the table
length handed to a ``pubsub.core`` call, the bytes given to ``sendall``,
the outbox depth after a ``send``, or the send-to-take wait of a payload.
A function that does not exist in the traced code is listed under
``missing`` and its metrics are reported absent.
"""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORE_FUNCTIONS = (
    "subscribe",
    "unsubscribe",
    "contains_subscription",
    "handles_by_channel",
    "remove_by_connection",
    "remove_subscription",
    "add_subscription",
    "publish_with",
)


def _table_len(args, _result) -> int:
    # Every pubsub.core function takes the table as its last argument.
    try:
        return len(args[-1])
    except TypeError:
        return -1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._commands = itertools.count(1)
        self._local = threading.local()
        # Outboxes are FIFO, so the k-th take of an outbox pairs with its
        # k-th accepted send; this keeps each outbox's pending send times.
        self._sent: dict[int, deque] = {}
        self._send_lock = threading.Lock()

    def wrap(self, owner, attr: str, name, arg=None, new_command: bool = False) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``name`` is a string or a function of the call's arguments;
        ``arg(args, result)`` gives the span's number.
        """
        original = getattr(owner, attr, None)
        label = name if isinstance(name, str) else f"{owner.__name__}.{attr}"
        if original is None:
            self.missing.append(label)
            return
        spans, ids, local = self.spans, self._ids, self._local
        commands = self._commands
        now = time.monotonic_ns

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if new_command:
                local.command = next(commands)
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = now()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                spans.append((
                    span_id,
                    name if isinstance(name, str) else name(args),
                    start,
                    end,
                    parent,
                    getattr(local, "command", 0),
                    0 if arg is None else arg(args, result),
                ))

        setattr(owner, attr, traced)

    def install(self) -> None:
        from pubsub import broker, core, protocol

        for fn in CORE_FUNCTIONS:
            self.wrap(core, fn, f"core.{fn}", arg=_table_len)
        self.wrap(protocol, "parse_command", "protocol.parse_command", new_command=True)
        self.wrap(protocol, "format_response", "protocol.format_response")
        self.wrap(protocol, "format_delivery", "protocol.format_delivery")
        self.wrap(
            broker.BrokerState,
            "handle_command",
            lambda args: f"broker.handle_command.{type(args[1]).__name__.lower()}",
        )
        self.wrap(broker.BrokerState, "register", "broker.register")
        self.wrap(broker.BrokerState, "release", "broker.release")
        # Not a public name, but wrapping it keeps the deliver callback's
        # own cost out of core.publish_with's self time.
        self.wrap(broker.BrokerState, "_deliver_locked", "broker.deliver")
        self.wrap(socket.socket, "sendall", "broker.sendall", arg=lambda args, _r: len(args[1]))
        outbox = getattr(broker, "Outbox", None)
        if outbox is None:
            self.missing += ["broker.outbox.send", "broker.outbox.take"]
        else:
            self._wrap_outbox(outbox)

    def _wrap_outbox(self, outbox) -> None:
        sent, lock, local = self._sent, self._send_lock, self._local
        original_send = getattr(outbox, "send", None)
        if original_send is not None:
            # The send time is queued before the payload so that the
            # writer thread can never take a payload whose time is not
            # there yet; the lock keeps that pairing per outbox in order.
            def send(box, payload):
                with lock:
                    times = sent.setdefault(id(box), deque())
                    times.append(time.monotonic_ns())
                    accepted = original_send(box, payload)
                    if not accepted:
                        times.pop()
                    local.depth = len(times)
                return accepted

            outbox.send = send
            self.wrap(outbox, "send", "broker.outbox.send", arg=lambda _a, _r: local.depth)
        else:
            self.missing.append("broker.outbox.send")

        def waited(args, payload) -> int:
            times = sent.get(id(args[0]))
            if payload is None or not times:
                return -1
            return time.monotonic_ns() - times.popleft()

        self.wrap(outbox, "take", "broker.outbox.take", arg=waited)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"missing": self.missing, "spans": self.spans}))


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    tracer.install()
    from pubsub import cli

    code = cli.main(argv[1:])
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
