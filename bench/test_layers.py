"""Per-layer figures from spans, and what happens when a layer is gone.

    python3 -m pytest bench/test_layers.py
"""

from __future__ import annotations

import types

from layers import per_layer
from traced_broker import Tracer


def _span(span_id, name, start, end, parent=0, arg=0):
    return [span_id, name, start, end, parent, 1, arg]


def test_self_time_excludes_children_and_counts_use_the_window():
    trace = {
        "missing": [],
        "spans": [
            # set-up: outside the window, counted only in the .us means
            _span(1, "core.contains_subscription", 0, 4_000, parent=2, arg=5),
            _span(2, "core.subscribe", 0, 10_000, arg=5),
            # measured: one publish
            _span(3, "core.handles_by_channel", 100_000, 103_000, parent=5, arg=7),
            _span(4, "core.publish_with", 103_000, 104_000, parent=5, arg=1),
            _span(5, "broker.handle_command.publish", 99_000, 110_000),
        ],
    }
    out = per_layer(trace, start_ns=50_000, end_ns=200_000, ops=1)
    assert out["core.subscribe.us"] == 6.0
    assert out["core.contains_subscription.us"] == 4.0
    assert out["broker.handle_command.publish.self_us"] == 7.0
    assert out["core.subscribe.per_op"] == 0.0
    assert out["core.handles_by_channel.per_op"] == 1.0
    assert out["core.entries_scanned.per_op"] == 8
    assert out["core.table_len"] == 4.0


def test_missing_layer_is_absent_not_an_error():
    tracer = Tracer()
    module = types.SimpleNamespace(__name__="fake", present=lambda x: x)
    tracer.wrap(module, "present", "fake.present")
    tracer.wrap(module, "gone", "fake.gone")
    assert module.present(3) == 3
    assert tracer.missing == ["fake.gone"]
    assert [span[1] for span in tracer.spans] == ["fake.present"]

    out = per_layer({"missing": ["broker.outbox.send"], "spans": []}, 0, 1, ops=1)
    assert out["broker.outbox.send.us"] is None
    assert out["broker.outbox.send.per_op"] is None
    assert out["broker.outbox.depth_max"] is None
