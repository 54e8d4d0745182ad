"""Unit tests for the RPC helper."""

from dataclasses import dataclass

import pytest

from repro.net import FixedLatency
from repro.proc import Environment, Process, Rpc, RpcError, RpcRequest
from repro.proc.rpc import redirect


@dataclass
class Add:
    a: int = 0
    b: int = 0


@dataclass
class Boom:
    pass


@dataclass
class Unserved:
    pass


class Server(Process):
    def __init__(self, env, address):
        super().__init__(env, address)
        self.rpc = Rpc(self)
        self.rpc.serve(Add, lambda body, sender: body.a + body.b)
        self.rpc.serve(Boom, self._boom)

    def _boom(self, body, sender):
        raise RpcError("kaboom")


class Client(Process):
    def __init__(self, env, address):
        super().__init__(env, address)
        self.rpc = Rpc(self)
        self.replies = []
        self.timeouts = 0

    def ask(self, dst, body, timeout=None):
        self.rpc.call(
            dst,
            body,
            on_reply=lambda value, sender: self.replies.append(value),
            timeout=timeout,
            on_timeout=self._on_timeout,
        )

    def _on_timeout(self):
        self.timeouts += 1


def setup():
    env = Environment(seed=1, latency=FixedLatency(0.01))
    return env, Server(env, "server"), Client(env, "client")


def test_basic_request_reply():
    env, server, client = setup()
    client.ask("server", Add(2, 3))
    env.run()
    assert client.replies == [5]


def test_concurrent_calls_correlate_correctly():
    env, server, client = setup()
    for i in range(10):
        client.ask("server", Add(i, i))
    env.run()
    assert sorted(client.replies) == [2 * i for i in range(10)]


def test_timeout_fires_when_server_dead():
    env, server, client = setup()
    server.crash()
    client.ask("server", Add(1, 1), timeout=0.5)
    env.run()
    assert client.replies == []
    assert client.timeouts == 1


def test_a_call_a_crash_stranded_is_dropped_on_recovery():
    """The crash cancels the call's timer and no reply reaches a crashed
    process; the recovered client starts with no calls, and the stranded
    call's callbacks, which belong to the old incarnation, never run."""
    env, server, client = setup()
    client.ask("server", Add(1, 1), timeout=1.0)
    client.crash()
    env.run_for(0.5)
    old, client = client, client.recover()
    assert not client.rpc._pending
    env.run_for(6.0)
    assert old.replies == [] and client.replies == []
    assert old.timeouts == 0 and client.timeouts == 0
    client.ask("server", Add(2, 2), timeout=1.0)
    env.run_for(1.0)
    assert client.replies == [4]
    assert not client.rpc._pending


def test_no_timeout_after_reply():
    env, server, client = setup()
    client.ask("server", Add(1, 1), timeout=5.0)
    env.run()
    assert client.replies == [2]
    assert client.timeouts == 0


def test_unserved_body_times_out():
    env, server, client = setup()
    client.ask("server", Unserved(), timeout=0.5)
    env.run()
    assert client.timeouts == 1


def test_server_error_returns_error_reply():
    env, server, client = setup()
    errors = []
    client.rpc.call(
        "server",
        Boom(),
        on_reply=lambda value, sender: errors.append(value),
    )
    env.run()
    assert errors == [None]


def test_duplicate_serve_rejected():
    env, server, client = setup()
    with pytest.raises(ValueError):
        server.rpc.serve(Add, lambda b, s: 0)


def test_unserve_then_reserve():
    env, server, client = setup()
    server.rpc.unserve(Add)
    server.rpc.serve(Add, lambda body, sender: 99)
    client.ask("server", Add(1, 1))
    env.run()
    assert client.replies == [99]


def test_two_clients_do_not_cross_replies():
    env = Environment(seed=2, latency=FixedLatency(0.01))
    server = Server(env, "server")
    c1 = Client(env, "c1")
    c2 = Client(env, "c2")
    c1.ask("server", Add(1, 0))
    c2.ask("server", Add(2, 0))
    env.run()
    assert c1.replies == [1]
    assert c2.replies == [2]


@dataclass
class Ask:
    pass


class Replier(Process):
    def __init__(self, env, address, reply):
        super().__init__(env, address)
        self.rpc = Rpc(self)
        self.rpc.serve(Ask, lambda body, sender: reply)


# (replies by address: a contact with none is not there and times out;
#  contacts; "stale" / "dead" or None; who is asked, in order; who
#  answered; how often ``exhausted`` ran)
WALKS = [
    pytest.param({"a": "no", "b": "no", "c": "no"}, "abc", None, "abc", "", 1,
                 id="contacts-asked-in-order"),
    pytest.param({"a": "no", "b": "yes", "c": "yes"}, "abc", None, "ab", "b", 0,
                 id="a-refusal-moves-on"),
    pytest.param({"b": "yes"}, "ab", None, "ab", "b", 0,
                 id="a-timeout-moves-on"),
    pytest.param({"a": redirect("c"), "b": "yes", "c": "no"}, "ab", None,
                 "acb", "b", 0, id="a-redirect-asks-the-named-contact-next"),
    pytest.param({"a": redirect(None), "b": "yes"}, "ab", None, "ab", "b", 0,
                 id="a-redirect-naming-none-is-a-refusal"),
    pytest.param({"a": redirect("a"), "b": "yes"}, "ab", None, "ab", "b", 0,
                 id="a-redirect-naming-the-replier-is-a-refusal"),
    pytest.param({"a": "yes"}, "a", "stale", "", "", 0,
                 id="stale-ends-the-walk-before-an-attempt"),
    pytest.param({"a": "no", "b": redirect("a")}, "ab", None, "aba", "", 1,
                 id="exhausted-runs-once"),
    pytest.param({"a": "yes"}, "a", "dead", "", "", 0,
                 id="a-dead-process-walk-sends-nothing"),
]


@pytest.mark.parametrize("replies, contacts, mode, asked, taken, exhausted", WALKS)
def test_walk(replies, contacts, mode, asked, taken, exhausted):
    env = Environment(seed=1, latency=FixedLatency(0.01))
    for address, reply in replies.items():
        Replier(env, address, reply)
    client = Client(env, "client")
    sent, took, ran = [], [], []

    def tap(_event, envelope):
        if isinstance(envelope.payload, RpcRequest) and envelope.src == "client":
            sent.append(envelope.dst)

    def answered(value, sender):
        if value == "yes":
            took.append(sender)
        return value == "yes"

    env.network.add_tap(tap, events=("send",))
    if mode == "dead":
        client.crash()
    client.rpc.walk(
        tuple(contacts), Ask(), answered, 0.5,
        stale=lambda: mode == "stale", exhausted=lambda: ran.append(env.now),
    )
    env.run_for(5.0)
    assert "".join(sent) == asked
    assert "".join(took) == taken
    assert len(ran) == exhausted
    assert not client.rpc._pending
