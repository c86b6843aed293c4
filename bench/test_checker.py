"""The benchmark's checker must flag wrong output, not only pass right output.

    python3 -m pytest bench/test_checker.py
"""

from __future__ import annotations

from checker import BANNER, Checker, Model
from run import Conn, Session, Tally


def _opened(*conns: str) -> Checker:
    checker = Checker()
    for op, conn in enumerate(conns):
        checker.open(conn, op)
        assert checker.on_reply(conn, BANNER) is not None
        checker.on_prompt(conn)
    return checker


def test_model_predicts_every_reply():
    model = Model()
    assert model.subscribe("x", "a") == "OK subscribed x"
    assert model.subscribe("x", "a") == "ERR already subscribed"
    assert model.subscribe("x", "b") == "OK subscribed x"
    assert model.publish("x") == ("OK delivered 2", ["a", "b"])
    assert model.unsubscribe("x", "a") == "OK unsubscribed x"
    assert model.unsubscribe("x", "a") == "ERR not subscribed"
    assert model.publish("y") == ("OK delivered 0", [])


def test_departed_connection_no_longer_counts():
    model = Model()
    model.subscribe("x", "a")
    model.subscribe("x", "b")
    assert model.release("a") == "OK bye"
    assert model.publish("x") == ("OK delivered 1", ["b"])
    assert model.channels_of("a") == []


def test_correct_exchange_passes():
    checker = _opened("pub", "sub")
    checker.command("pub", 10, "OK delivered 1")
    checker.delivery("sub", 10, "[x] 1 hello")
    assert checker.on_delivery("sub", "[x] 1 hello").op == 10
    assert checker.on_reply("pub", "OK delivered 1").op == 10
    checker.on_prompt("pub")
    checker.command("pub", 11, "OK bye", quit=True)
    assert checker.on_reply("pub", "OK bye").op == 11
    checker.close("pub")
    checker.close("sub")
    assert checker.failed == 0, checker.problems


def test_wrong_reply_fails_its_op():
    checker = _opened("pub")
    checker.command("pub", 10, "OK delivered 1")
    assert checker.on_reply("pub", "OK delivered 2") is None
    assert checker.failed_ops == {10}


def test_out_of_order_delivery_fails():
    checker = _opened("sub")
    checker.delivery("sub", 10, "[x] 1 a")
    checker.delivery("sub", 11, "[x] 2 b")
    assert checker.on_delivery("sub", "[x] 2 b") is None
    assert checker.on_delivery("sub", "[x] 1 a").op == 10
    assert checker.failed_ops == {11}


def test_duplicate_altered_and_missing_deliveries_fail():
    checker = _opened("sub")
    checker.delivery("sub", 10, "[x] 1 a")
    checker.delivery("sub", 11, "[x] 2 b")
    assert checker.on_delivery("sub", "[x] 1 a").op == 10
    assert checker.on_delivery("sub", "[x] 1 a") is None  # twice
    assert checker.on_delivery("sub", "[x] 1 A") is None  # not byte-exact
    checker.close("sub")  # op 11 never arrived
    assert checker.failed_ops == {11}
    assert checker.failed == 3


def test_missing_prompt_fails():
    checker = _opened("pub")
    checker.command("pub", 10, "OK subscribed x")
    checker.on_reply("pub", "OK subscribed x")
    checker.command("pub", 11, "OK bye", quit=True)
    checker.on_reply("pub", "OK bye")
    checker.close("pub")
    assert checker.failed == 1


def test_session_strips_prompts_wherever_they_fall():
    session = Session(Tally())
    try:
        session.checker.open("sub", 1)
        session.checker.command("sub", 2, "OK subscribed x")
        session.checker.delivery("sub", 3, "[x] 1 > not a prompt")
        conn = Conn("sub", None)
        # Split inside a line and inside a prompt, glued to a delivery.
        for chunk in (BANNER.encode()[:9], BANNER.encode()[9:] + b"\n>", b" OK subscr", b"ibed x\n> [x] 1 > not a prompt\n"):
            session._lines(conn, conn.buf + chunk, 0)
        assert session.checker.owed("sub") == 0
        assert session.checker.pending_deliveries("sub") == 0
        assert session.checker.failed == 0, session.checker.problems
    finally:
        session.selector.close()


def test_session_flags_a_wrong_reply_on_the_wire():
    session = Session(Tally())
    try:
        session.checker.open("pub", 1)
        session.checker.command("pub", 2, "OK delivered 1")
        conn = Conn("pub", None)
        session._lines(conn, (BANNER + "\n> OK delivered 0\n> ").encode(), 0)
        assert session.checker.failed_ops == {2}
    finally:
        session.selector.close()
