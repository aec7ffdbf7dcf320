"""Error and control-flow exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ErrKind(Enum):
    UNBOUND_VAR = "UnboundVar"
    NOT_A_FUNCTION = "NotAFunction"
    NOT_A_PAIR = "NotAPair"
    ANNOT_MISMATCH = "AnnotMismatch"
    UNIVERSE_ERROR = "UniverseError"
    SUBTYPE_FAIL = "SubtypeFail"
    OPEN_CODE = "OpenCode"
    LANG_VIOLATION = "LangViolation"
    FLAG_ERROR = "FlagError"
    UNKNOWN_LOC = "UnknownLoc"


@dataclass
class TypeCheckError(Exception):
    """A failed typing judgment, tagged with its kind and source position."""

    kind: ErrKind
    message: str
    pos: tuple[int, int] | None = None

    def render(self) -> str:
        line, col = self.pos if self.pos else ("?", "?")
        return f"error[{self.kind.value}] {line}:{col} {self.message}"

    def __str__(self) -> str:
        return self.render()


class FuelExhausted(Exception):
    """Raised when reduction exceeds its step budget."""

    def __init__(self, limit: int):
        super().__init__(f"exceeded {limit} reduction steps")
        self.limit = limit


class StuckError(Exception):
    """Raised when a machine reaches a non-value it cannot step."""
