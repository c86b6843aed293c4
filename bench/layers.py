"""Per-layer metrics from the spans that ``traced_broker.py`` writes.

A span's self time is its duration minus the durations of its child
spans (children run on the same thread, inside the parent, so they never
overlap). ``.us`` figures are mean self times over every call in the
traced broker's life, set-up and teardown included, so a layer that a
workload only touches outside its measured phase still has a figure.
Counts (``.per_op``, ``entries_scanned``, bytes, depths, waits) cover
only spans that start inside the measured phase and are divided by the
ops the generator sent in it. A layer whose function is missing from
the traced code, or was never called, is reported as ``None``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

CORE = (
    "subscribe",
    "unsubscribe",
    "contains_subscription",
    "handles_by_channel",
    "remove_by_connection",
    "publish_with",
)
# subscribe and unsubscribe only delegate to the other core functions,
# so counting their table too would count each scan twice.
SCANNING = tuple(
    f"core.{fn}"
    for fn in (
        "contains_subscription",
        "handles_by_channel",
        "remove_by_connection",
        "remove_subscription",
        "add_subscription",
        "publish_with",
    )
)
COMMAND_KINDS = ("subscribe", "unsubscribe", "publish", "quit")

# name -> unit, in report order.
METRICS: dict[str, str] = {"cli.ready_s": "s"}
METRICS.update({"protocol.parse_command.us": "us", "protocol.parse_command.per_op": "count"})
METRICS["protocol.format.us"] = "us"
for _fn in CORE:
    METRICS[f"core.{_fn}.us"] = "us"
    METRICS[f"core.{_fn}.per_op"] = "count"
METRICS["core.entries_scanned.per_op"] = "count"
METRICS["core.table_len"] = "count"
for _kind in COMMAND_KINDS:
    METRICS[f"broker.handle_command.{_kind}.self_us"] = "us"
METRICS.update(
    {
        "broker.register.us": "us",
        "broker.release.us": "us",
        "broker.outbox.send.us": "us",
        "broker.outbox.send.per_op": "count",
        "broker.outbox.wait_us": "us",
        "broker.outbox.depth_max": "count",
        "broker.sendall.us": "us",
        "broker.sendall.per_op": "count",
        "broker.sendall.bytes_per_call": "bytes",
        "broker.threads": "count",
    }
)

# Which traced span names feed each ``.us`` / ``.self_us`` figure.
_SELF_TIME = {
    "protocol.parse_command.us": ("protocol.parse_command",),
    "protocol.format.us": ("protocol.format_response", "protocol.format_delivery"),
    "broker.register.us": ("broker.register",),
    "broker.release.us": ("broker.release",),
    "broker.outbox.send.us": ("broker.outbox.send",),
    "broker.sendall.us": ("broker.sendall",),
}
_SELF_TIME.update({f"core.{fn}.us": (f"core.{fn}",) for fn in CORE})
_SELF_TIME.update(
    {
        f"broker.handle_command.{kind}.self_us": (f"broker.handle_command.{kind}",)
        for kind in COMMAND_KINDS
    }
)
_PER_OP = {
    "protocol.parse_command.per_op": "protocol.parse_command",
    "broker.outbox.send.per_op": "broker.outbox.send",
    "broker.sendall.per_op": "broker.sendall",
}
_PER_OP.update({f"core.{fn}.per_op": f"core.{fn}" for fn in CORE})


def per_layer(trace: dict, start_ns: int, end_ns: int, ops: int) -> dict[str, float | None]:
    """Every metric in ``METRICS`` except the two the generator measures
    itself (``cli.ready_s`` and ``broker.threads``)."""
    spans = trace["spans"]
    child_ns: dict[int, int] = defaultdict(int)
    for span_id, _name, start, end, parent, _cmd, _arg in spans:
        if parent:
            child_ns[parent] += end - start
    self_ns: dict[str, list[int]] = defaultdict(list)
    calls: dict[str, int] = defaultdict(int)
    args: dict[str, list[int]] = defaultdict(list)
    for span_id, name, start, end, _parent, _cmd, arg in spans:
        self_ns[name].append(end - start - child_ns[span_id])
        if start_ns <= start <= end_ns:
            calls[name] += 1
            args[name].append(arg)

    out: dict[str, float | None] = {}
    for metric, names in _SELF_TIME.items():
        samples = [ns for name in names for ns in self_ns.get(name, ())]
        out[metric] = statistics.fmean(samples) / 1e3 if samples else None
    for metric, name in _PER_OP.items():
        out[metric] = calls[name] / ops if name in self_ns else None

    scanned = [n for name in SCANNING for n in args.get(name, ()) if n >= 0]
    table = [n for name, ns in args.items() if name.startswith("core.") for n in ns if n >= 0]
    out["core.entries_scanned.per_op"] = sum(scanned) / ops if table else None
    out["core.table_len"] = statistics.fmean(table) if table else None
    waits = [n for n in args.get("broker.outbox.take", ()) if n >= 0]
    out["broker.outbox.wait_us"] = statistics.median(waits) / 1e3 if waits else None
    depths = args.get("broker.outbox.send", [])
    out["broker.outbox.depth_max"] = max(depths) if depths else None
    sizes = args.get("broker.sendall", [])
    out["broker.sendall.bytes_per_call"] = statistics.fmean(sizes) if sizes else None
    return out
