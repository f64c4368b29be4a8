"""The typed event bus: schema, ordering, JSONL sink, ambient install.

The bus is the spine of live telemetry, so its contracts are locked
hard: the kind vocabulary is closed, sequence numbers are gapless and
monotonic per run (even under concurrent publishers), the JSONL log
round-trips losslessly, and with no ambient bus installed the
module-level ``publish`` is a no-op that never raises.
"""

import io
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as ev


def _recording_bus(**kwargs):
    """A bus streaming into an in-memory log, and a reader of that log."""
    sink = io.StringIO()
    bus = ev.EventBus(**kwargs)
    bus.attach_jsonl(sink)
    return bus, lambda: [ev.Event.from_json(line)
                         for line in sink.getvalue().splitlines()]


# -- schema -------------------------------------------------------------------


def test_kind_vocabulary_is_closed():
    bus, logged = _recording_bus()
    with pytest.raises(ev.UnknownEventKind):
        bus.publish("task_imploded", "x")
    assert logged() == []


def test_every_declared_kind_publishes():
    bus, logged = _recording_bus(run_id="r")
    for kind in sorted(ev.KINDS):
        bus.publish(kind, "k")
    assert [e.kind for e in logged()] == sorted(ev.KINDS)


# -- round-trips (hypothesis) -------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)

_data = st.dictionaries(
    st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=12,
    ),
    _json_scalars,
    max_size=5,
)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(sorted(ev.KINDS)),
    key=st.text(max_size=40),
    data=_data,
)
def test_event_json_round_trip(kind, key, data):
    bus = ev.EventBus(run_id="prop")
    event = bus.publish(kind, key, **data)
    line = event.to_json()
    back = ev.Event.from_json(line)
    assert back == event
    # the wire form is deterministic: stable key order, no whitespace
    assert line == back.to_json()
    assert json.loads(line)["kind"] == kind


@settings(max_examples=25, deadline=None)
@given(
    batch=st.lists(
        st.tuples(st.sampled_from(sorted(ev.KINDS)), st.text(max_size=20), _data),
        min_size=1,
        max_size=20,
    )
)
def test_jsonl_log_round_trips(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    bus = ev.EventBus(run_id="log")
    bus.attach_jsonl(str(path))
    published = [bus.publish(kind, key, **data) for kind, key, data in batch]
    bus.close()
    lines = path.read_text().splitlines()
    assert [ev.Event.from_json(line) for line in lines] == published
    seqs = [json.loads(line)["seq"] for line in lines]
    assert seqs == list(range(len(seqs)))


# -- sequence numbers ---------------------------------------------------------


def test_seq_is_gapless_and_monotonic():
    bus, logged = _recording_bus()
    for i in range(50):
        bus.publish(ev.CACHE_HIT, str(i))
    assert [e.seq for e in logged()] == list(range(50))


def test_seq_gapless_under_concurrent_publishers():
    bus, logged = _recording_bus()
    n_threads, per_thread = 8, 200

    def hammer(tid):
        for i in range(per_thread):
            bus.publish(ev.WORKER_HEARTBEAT, "%d-%d" % (tid, i))

    threads = [
        threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seqs = [e.seq for e in logged()]
    assert seqs == list(range(n_threads * per_thread))


# -- the sink -----------------------------------------------------------------


def test_sink_write_failure_drops_sink_not_sweep(tmp_path):
    path = tmp_path / "sink.jsonl"
    bus = ev.EventBus()
    bus.attach_jsonl(str(path))
    bus.publish(ev.CACHE_HIT, "a")
    bus._sink.close()  # simulate the file dying under the bus
    assert bus.publish(ev.CACHE_HIT, "b").seq == 1  # must not raise
    assert bus.publish(ev.CACHE_HIT, "c").seq == 2  # and keeps counting
    (line,) = path.read_text().splitlines()
    assert ev.Event.from_json(line).key == "a"


# -- ambient install ----------------------------------------------------------


def test_module_publish_is_noop_without_a_bus():
    assert ev.active() is None
    assert ev.publish(ev.CACHE_HIT, "nothing") is None


def test_install_uninstall_nesting():
    (outer, outer_logged), (inner, inner_logged) = (
        _recording_bus(), _recording_bus())
    prev = ev.install(outer)
    assert prev is None
    try:
        previous = ev.install(inner)
        assert previous is outer
        ev.publish(ev.CACHE_HIT, "inner")
        ev.uninstall(previous)
        assert ev.active() is outer
        ev.publish(ev.CACHE_MISS, "outer")
    finally:
        ev.uninstall(None)
    assert ev.active() is None
    assert [e.key for e in inner_logged()] == ["inner"]
    assert [e.key for e in outer_logged()] == ["outer"]
