import types

import pytest

from spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = Tracer(clock)
    root = tr.begin("root")  # 0 .. 10
    clock.now = 1.0
    a = tr.begin("child")  # 1 .. 4
    clock.now = 2.0
    g = tr.begin("grandchild")  # 2 .. 3
    clock.now = 3.0
    tr.end(g)
    clock.now = 4.0
    tr.end(a)
    clock.now = 6.0
    b = tr.begin("child")  # 6 .. 9
    clock.now = 9.0
    tr.end(b)
    clock.now = 10.0
    tr.end(root)

    assert tr.self_times() == [4.0, 2.0, 1.0, 3.0]
    assert sum(tr.self_times()) == 10.0
    agg = tr.aggregate()
    assert agg["child"] == {"calls": 2, "busy_s": 6.0, "self_s": 5.0}
    assert agg["root"]["self_s"] == 4.0
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]


def test_out_of_order_close_raises():
    tr = Tracer(FakeClock())
    outer = tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def test_wrap_records_span_counters_and_request_then_restores():
    clock = FakeClock()
    mod = types.SimpleNamespace()

    def work(xs):
        clock.now += 2.0
        return [x for x in xs if x]

    mod.work = work
    tr = Tracer(clock)
    with tr:
        tr.wrap(mod, "work", "layer.work", lambda a, k, out: {"kept": len(out), "seen": len(a[0])})
        tr.request = "req-7"
        assert mod.work([1, 0, 2]) == [1, 2]
        assert mod.work([0]) == []
    assert mod.work is work
    agg = tr.aggregate()["layer.work"]
    assert agg == {"calls": 2, "busy_s": 4.0, "self_s": 4.0, "kept": 2, "seen": 4}
    assert {s.request for s in tr.spans} == {"req-7"}


def test_wrapped_method_sees_self():
    class Thing:
        def __init__(self):
            self.n = 3

        def size(self):
            return self.n

    tr = Tracer(FakeClock())
    with tr:
        tr.wrap(Thing, "size", "thing.size")
        assert Thing().size() == 3
    assert len(tr.spans) == 1
    assert Thing.size.__name__ == "size"


def test_span_closes_when_wrapped_function_raises():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tr = Tracer(FakeClock())
    with tr:
        tr.wrap(mod, "boom", "boom")
        with pytest.raises(ZeroDivisionError):
            mod.boom()
        assert tr._open == []


def _spans(tr, clock, layout):
    """Open and close spans as `layout` says: (time, "begin", name) or
    (time, "end", None) events in order."""
    stack = []
    for t, what, name in layout:
        clock.now = t
        if what == "begin":
            stack.append(tr.begin(name))
        else:
            tr.end(stack.pop())


def test_accounting_holds_when_spans_nest_and_cover_the_wall():
    clock = FakeClock()
    tr = Tracer(clock)
    # op 0..10 holds a 1..4 (with b 2..3) and a 6..9; op 10..12 holds nothing.
    _spans(tr, clock, [
        (0, "begin", "op"), (1, "begin", "a"), (2, "begin", "b"), (3, "end", None),
        (4, "end", None), (6, "begin", "a"), (9, "end", None), (10, "end", None),
        (10, "begin", "op"), (12, "end", None),
    ])
    assert tr.accounting_problems(12.0, "op") == []
    assert tr.aggregate()["op"]["self_s"] == 6.0  # the untraced remainder


def test_accounting_fails_when_the_wall_exceeds_the_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    _spans(tr, clock, [(0, "begin", "op"), (1, "begin", "a"), (2, "end", None), (5, "end", None)])
    [problem] = tr.accounting_problems(6.0, "op")
    assert "!= traced wall 6.000000" in problem


def test_accounting_fails_on_a_span_outside_its_parent():
    clock = FakeClock()
    tr = Tracer(clock)
    _spans(tr, clock, [(0, "begin", "op"), (1, "begin", "a"), (2, "end", None), (5, "end", None)])
    tr.spans[1].end = 7.0  # the child now ends after its parent
    problems = tr.accounting_problems(5.0, "op")
    assert any("not inside its parent 'op'" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def test_accounting_fails_on_overlapping_siblings():
    clock = FakeClock()
    tr = Tracer(clock)
    _spans(tr, clock, [
        (0, "begin", "op"), (1, "begin", "a"), (3, "end", None),
        (4, "begin", "a"), (5, "end", None), (6, "end", None),
    ])
    tr.spans[2].start = 2.0  # the second child now starts inside the first
    assert any("overlaps an earlier sibling" in p for p in tr.accounting_problems(6.0, "op"))


def test_accounting_fails_on_unclosed_and_stray_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    _spans(tr, clock, [(0, "begin", "stray"), (1, "end", None), (1, "begin", "op")])
    problems = tr.accounting_problems(1.0, "op")
    assert any("'stray' lies outside every 'op' span" in p for p in problems)
    assert any("'op' was never closed" in p for p in problems)
