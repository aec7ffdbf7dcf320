"""Type-preserving compilation of dependent pairs and closures to a
target language with explicit allocation, plus the checking harness
around it."""

from .alloc import translate, translate_ctx
from .conversion import DEFAULT_FUEL, equiv, normalize, subtype
from .errors import ErrKind, FuelExhausted, StuckError, TypeCheckError
from .heap import Config, Heap, HeapCell, UNINIT
from .sexpr import Lang, ParseError, parse, print_expr
from .source import (
    src_eval,
    src_infer,
    src_step,
    src_trace,
    src_wf,
)
from .syntax import (
    BOX,
    Context,
    Expr,
    STAR,
    UNIT,
    UNIT_TY,
    alpha_eq,
    free_vars,
    subst,
)
from .target import (
    check,
    heap_wf,
    infer,
    tgt_eval,
    tgt_infer,
    tgt_step,
    tgt_subtype,
    tgt_trace,
    wf,
)

__all__ = [
    "BOX",
    "Config",
    "Context",
    "DEFAULT_FUEL",
    "ErrKind",
    "Expr",
    "FuelExhausted",
    "Heap",
    "HeapCell",
    "Lang",
    "ParseError",
    "STAR",
    "StuckError",
    "TypeCheckError",
    "UNINIT",
    "UNIT",
    "UNIT_TY",
    "alpha_eq",
    "check",
    "equiv",
    "free_vars",
    "heap_wf",
    "infer",
    "normalize",
    "parse",
    "print_expr",
    "src_eval",
    "src_infer",
    "src_step",
    "src_trace",
    "src_wf",
    "subst",
    "subtype",
    "tgt_eval",
    "tgt_infer",
    "tgt_step",
    "tgt_subtype",
    "tgt_trace",
    "translate",
    "translate_ctx",
    "wf",
]
