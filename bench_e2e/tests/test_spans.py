"""Self time, closure, and parenting across a thread boundary."""

import threading
import pytest

import spans


def span(id, parent, start, end, name="x"):
    return spans.Span(id, parent, 1, "layer", name, start, end, 0)


def test_self_time_is_duration_minus_child_cover():
    tree = [
        span(1, 0, 0.0, 10.0, spans.ROOT),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 2.0, 5.0),    # overlaps span 2: [1, 5] is covered once
        span(4, 1, 8.0, 12.0),   # sticks out: clipped to [8, 10]
        span(5, 3, 2.5, 4.5),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0 - 2.0)
    assert selfs[5] == pytest.approx(2.0)


def test_closure_is_zero_for_a_nested_tree_and_shows_an_orphan():
    nested = [
        span(1, 0, 0.0, 4.0, spans.ROOT),
        span(2, 1, 1.0, 3.0),
        span(3, 2, 1.5, 2.0),
    ]
    assert spans.closure_error(nested) == pytest.approx(0.0)
    orphaned = nested + [span(4, 0, 1.0, 2.0)]  # no session above it
    assert spans.closure_error(orphaned) == pytest.approx(1.0 / 4.0)


def test_wrapped_calls_nest_and_record_sizes():
    rec = spans.Recorder()
    inner = spans._wrap(rec, lambda: b"abc", "core.inp", "inp.encode",
                        after=lambda _args, out, _start: len(out))
    outer = spans._wrap(rec, inner, "simnet", "simnet.request")
    assert outer() == b"abc"
    child, parent = rec.finished()  # a span is recorded when it ends
    assert (child.name, child.parent, child.n) == ("inp.encode", parent.id, 3)
    assert parent.parent == 0 and child.trace == parent.trace == parent.id
    assert parent.start <= child.start <= child.end <= parent.end


def test_handler_on_another_thread_is_parented_by_inp_header():
    rec = spans.Recorder()
    payload = b'{"inp":1,"type":"APP_REQ","session":"c-7","seq":0,"body":{}}'

    def handle(request):
        return b"ok"

    def caller(args):
        return spans._ACTIVE.get() or rec.in_flight.get(spans._header(args[0]))

    handler = spans._wrap(rec, handle, "core.appserver", "appserver.handle", parent=caller)

    def request(src, dst, data):
        out = []
        worker = threading.Thread(target=lambda: out.append(handler(data)))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        return out[0]

    def sent(me, args):
        rec.in_flight[spans._header(args[2])] = me

    wrapped = spans._wrap(rec, request, "simnet", "simnet.request", before=sent)
    root = rec.begin("core.client", spans.ROOT)
    assert wrapped("client", "appserver", payload) == b"ok"
    rec.end(root)
    by_name = {s.name: s for s in rec.finished()}
    assert by_name["appserver.handle"].parent == by_name["simnet.request"].id
    assert by_name["appserver.handle"].trace == by_name[spans.ROOT].id
    assert spans.closure_error(rec.finished()) == pytest.approx(0.0, abs=1e-9)


def test_undo_restores_class_module_and_instance_attributes():
    from repro.core import inp
    from repro.mobilecode import SignedModule

    class Thing:
        def f(self):
            return 1

    thing = Thing()
    before = (inp.encode, vars(SignedModule)["from_wire"])
    done = []
    spans._patch(done, inp, "encode", lambda fn: lambda *a: fn(*a))
    spans._patch(done, SignedModule, "from_wire", lambda fn: lambda b: fn(b), static=True)
    spans._patch(done, thing, "f", lambda fn: lambda: fn() + 1)
    assert thing.f() == 2 and inp.encode is not before[0]
    spans.undo(done)
    assert (inp.encode, vars(SignedModule)["from_wire"]) == before
    assert thing.f() == 1 and "f" not in vars(thing)
