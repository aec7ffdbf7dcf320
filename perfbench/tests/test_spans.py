import types

from perfbench import spans


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    rec = spans.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    rec.begin_program("p")
    a = rec.open(rec.intern("a"))
    b = rec.open(rec.intern("b"))
    c = rec.open(rec.intern("c"))
    rec.close(c)
    rec.close(b)
    d = rec.open(rec.intern("d"))
    rec.close(d)
    rec.close(a)
    assert rec.self_times() == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0}
    assert sum(rec.self_times().values()) == rec.root_time() == 10.0
    assert list(rec.parent) == [-1, 0, 1, 0]
    assert rec.root_durations("a") == {"p": [10.0]}


def test_self_times_of_one_name_add_up():
    rec = spans.Recorder(clock=FakeClock([0, 1, 2, 5, 6, 8]))
    rec.begin_program("p")
    outer = rec.open(rec.intern("f"))
    inner = rec.open(rec.intern("g"))
    rec.close(inner)
    rec.close(outer)
    again = rec.open(rec.intern("f"))
    rec.close(again)
    assert rec.self_times() == {"f": 4.0 + 2.0, "g": 1.0}
    assert rec.calls() == {"f": 2, "g": 1}


def _toy_modules():
    """A home module whose function recurses through its global, and an
    importer holding a from-import binding of it."""
    home = types.ModuleType("home")

    def depth(n):
        return 0 if n == 0 else 1 + home.depth(n - 1)

    home.depth = depth
    user = types.ModuleType("user")
    user.depth = depth
    return {"home": home, "user": user}, depth


def test_wrapping_reaches_from_imports_and_recursion_stays_in_one_span():
    modules, original = _toy_modules()
    rec = spans.Recorder()
    patch = spans.Patch()
    wrapper = spans.span_wrapper(rec, "home.depth", original, LookupError)
    spans._rebind(patch, modules, "home", "depth", wrapper)
    rec.begin_program("p")
    assert modules["user"].depth(5) == 5
    assert modules["home"].depth(2) == 2
    assert rec.calls() == {"home.depth": 2}
    patch.undo()
    assert modules["home"].depth is original and modules["user"].depth is original


def test_counted_exceptions_are_tallied_and_reraised():
    rec = spans.Recorder()

    def boom():
        raise KeyError("x")

    wrapped = spans.span_wrapper(rec, "boom", boom, LookupError)
    rec.begin_program("p")
    for _ in range(2):
        try:
            wrapped()
        except KeyError:
            pass
    assert rec.raised == {"boom": 2}
    assert rec.stack == []


def test_counter_counts_outermost_non_none_results():
    rec = spans.Recorder()
    mod = types.ModuleType("m")

    def step(n):
        if n == 0:
            return None
        mod.step(n - 1)  # a nested call, like stepping a subterm
        return n

    mod.step = spans.counter_wrapper(rec, "steps", step)
    assert mod.step(3) == 3 and mod.step(0) is None
    assert rec.counts == {"steps": 1}
