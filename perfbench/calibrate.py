"""Fixed reference jobs that measure how fast the machine runs Python right
now, so that times taken on a shared machine can be scaled to one speed.

On a shared machine a CPU switches between a fast and a slow state, about
2x apart, within milliseconds. Not all code slows alike, so each kind of
measured work has a reference job of a similar kind:

- PROGRAMS, for dtalloc's passes, evaluates lambda terms built from frozen
  dataclasses: recursive calls, isinstance dispatch, dictionary
  environments and small allocations, the kind of work dtalloc's checkers
  do;
- SETUP, for the set-ups, which mostly import dtalloc and so mostly define
  dataclasses, defines a dataclass (which compiles and executes its
  generated methods).

Measured between the fast and the slow state, corpus and scaling programs
slowed 1.74-1.96x and the evaluation 2.0x; a set-up slowed 1.63x, and
defining dataclasses 1.6-1.7x, but the evaluation 1.9x.

The jobs import nothing from dtalloc, so a change to dtalloc cannot change
the yardstick.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    param: str
    body: object


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True)
class Closure:
    lam: Lam
    env: dict


def _eval(e, env: dict):
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Lam):
        return Closure(e, env)
    fn, arg = _eval(e.fn, env), _eval(e.arg, env)
    if not isinstance(fn, Closure):
        return fn(arg)  # a host function, used to read numerals back
    inner = dict(fn.env)
    inner[fn.lam.param] = arg
    return _eval(fn.lam.body, inner)


def _church(n: int) -> Lam:
    body: object = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return Lam("f", Lam("x", body))


# (mul 5 6) applied to a host successor and zero: 30 applications to count
_MUL = Lam("m", Lam("n", Lam("f", App(Var("m"), App(Var("n"), Var("f"))))))
_TERM = App(App(App(App(_MUL, _church(5)), _church(6)), Var("succ")), Var("zero"))
_ENV = {"succ": lambda k: k + 1, "zero": 0}

def _evaluate() -> None:
    for _ in range(30):
        if _eval(_TERM, _ENV) != 30:
            raise AssertionError("reference job computed a wrong answer")


def _define() -> None:
    cls = dataclasses.make_dataclass("Node", [("tag", str), ("left", object, None)])
    if cls("pair").left is not None:
        raise AssertionError("reference job computed a wrong answer")


class Reference:
    """A reference job and its nominal CPU time, about what it takes in the
    fast state (Intel Xeon, 2 vCPUs, Python 3.11.7); scaled times read as
    times on a machine where the job takes exactly that."""

    def __init__(self, job, nominal_ms: float):
        self.job, self.nominal_ms = job, nominal_ms

    def ms(self, jobs: int) -> float:
        """Mean CPU milliseconds of one job over `jobs` jobs run now."""
        t0 = time.thread_time()
        for _ in range(jobs):
            self.job()
        return (time.thread_time() - t0) * 1e3 / jobs

    def scale(self, before_ms: float, after_ms: float) -> float:
        """The factor that takes a CPU time measured between two timings
        of the job to the nominal machine. The speed changes within
        milliseconds, so the timings just before and just after the work
        estimate the speed it ran at."""
        return self.nominal_ms * 2 / (before_ms + after_ms)


PROGRAMS = Reference(_evaluate, 0.50)
SETUP = Reference(_define, 0.25)
