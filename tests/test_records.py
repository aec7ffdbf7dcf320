"""Every run-time record behaves as a dataclass(frozen=True) of the same
fields would: each record class is compared with such a twin, made by
dataclass from the record's own field list."""

from dataclasses import FrozenInstanceError, field, fields, make_dataclass, replace
from pathlib import Path

import pytest
from records import RECORDS

from dtalloc.heap import Config, Heap, HeapCell
from dtalloc.syntax import _SCHEMA, Binding, Context, Sigma, Universe, Var


def _check_flags(self):
    if self.flag1 not in (0, 1) or self.flag2 not in (0, 1):
        raise ValueError(f"initialization flags must be 0 or 1, got ({self.flag1}, {self.flag2})")


def _twin(cls):
    """A dataclass(frozen=True) with cls's name and fields, and Sigma's flag
    check in __post_init__: the reference a record is compared with."""
    twin = make_dataclass(
        cls.__name__,
        [(f.name, f.type, field(default=f.default, compare=f.compare, repr=f.repr))
         for f in fields(cls)],
        frozen=True,
        namespace={"__post_init__": _check_flags} if cls is Sigma else None,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


def _other(v):
    """A value of v's kind that is not equal to v."""
    if isinstance(v, Universe):
        return Universe.BOX if v is Universe.STAR else Universe.STAR
    if isinstance(v, str):
        return v + "1"
    if isinstance(v, int):
        return 1 - v
    if isinstance(v, tuple):
        return v + v
    return Var("other")


def _variants(cls):
    """The sample arguments of cls, then each with one argument changed."""
    args = RECORDS[cls]
    yield args
    for i, v in enumerate(args):
        yield args[:i] + (_other(v),) + args[i + 1 :]


def _state(r):
    return [(f.name, getattr(r, f.name)) for f in fields(r)]


def test_the_records_are_the_node_types_and_the_run_time_records():
    assert set(RECORDS) == set(_SCHEMA) | {Binding, Context, HeapCell, Heap, Config}
    assert len(RECORDS) == 24


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_hashing_and_repr_match_the_frozen_dataclass(cls):
    twin, base = _twin(cls), RECORDS[cls]
    for args in _variants(cls):
        r, t = cls(*args), twin(*args)
        assert (r == cls(*base)) is (t == twin(*base))
        assert (r != cls(*base)) is (t != twin(*base))
        assert r.__eq__(object()) is t.__eq__(object()) is NotImplemented
        assert hash(r) == hash(t)
        assert repr(r) == repr(t)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_match_args_and_replace_match_the_frozen_dataclass(cls):
    twin, args = _twin(cls), RECORDS[cls]
    r, t = cls(*args), twin(*args)
    assert [f.name for f in fields(r)] == [f.name for f in fields(t)]
    assert cls.__match_args__ == twin.__match_args__

    def first(x, c):
        match x:
            case c(v):
                return v
        return None

    assert first(r, cls) is first(t, twin) is getattr(r, cls.__match_args__[0])
    for f, v in zip(cls.__match_args__, args):
        r2, t2 = replace(r, **{f: _other(v)}), replace(t, **{f: _other(v)})
        assert type(r2) is cls and _state(r2) == _state(t2)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assignment_and_deletion_fail_as_on_the_frozen_dataclass(cls):
    twin, args = _twin(cls), RECORDS[cls]
    r, t = cls(*args), twin(*args)
    for name in (fields(cls)[0].name, "_memo"):
        for act in (lambda o: setattr(o, name, None), lambda o: delattr(o, name)):
            messages = []
            for obj in (r, t):
                with pytest.raises(FrozenInstanceError) as caught:
                    act(obj)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]
    assert _state(r) == _state(t)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positions_and_memo_keys_are_ignored_by_equality_hashing_and_repr(cls):
    twin, args = _twin(cls), RECORDS[cls]
    where = {"pos": (3, 4)} if "pos" in cls.__match_args__ else {}
    plain, placed = cls(*args), cls(*args, **where)
    placed.__dict__["_memo"] = frozenset({"x"})
    assert plain == placed and hash(plain) == hash(placed)
    assert repr(placed) == repr(plain) == repr(twin(*args, **where))
    if where:
        assert placed.pos == (3, 4) and replace(placed, pos=None).pos is None


@pytest.mark.parametrize("flags", [(2, 0), (0, 2), (-1, 5), ("1", 1)])
def test_sigma_rejects_flags_with_the_frozen_dataclass_message(flags):
    messages = []
    for cls in (Sigma, _twin(Sigma)):
        with pytest.raises(ValueError) as caught:
            cls("x", Var("A"), flags[0], Var("B"), flags[1])
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == f"initialization flags must be 0 or 1, got ({flags[0]}, {flags[1]})"


def test_memo_keys_are_written_to_the_node_dict_only():
    # a memo key written past the frozen record would be a second way in
    src = Path(__file__).resolve().parent.parent / "src" / "dtalloc"
    assert [p.name for p in src.glob("*.py") if "object.__setattr__" in p.read_text()] == []
