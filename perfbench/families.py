"""Text generators for the three ``scaling`` program families.

Each generator returns a source program of the given size together with
the observation (``harness.readback`` of the final value) that the
program must produce. The observation is built here from the family's
shape, not by running dtalloc, so it is an independent known answer.
"""

from __future__ import annotations

from dataclasses import dataclass

SIGMA_UU = "(Sigma (a Unit) Unit)"


@dataclass(frozen=True)
class FamilyProgram:
    family: str
    size: int
    text: str
    observation: str

    @property
    def name(self) -> str:
        return f"{self.family}/{self.size}"


def nested_pairs(n: int) -> FamilyProgram:
    """A pair whose first component is a pair, n levels deep (left-nested)."""
    term, ty, obs = "unit", "Unit", "unit"
    for _ in range(n):
        term = f"(pair {term} unit (Sigma (a {ty}) Unit))"
        ty = f"(Sigma (a {ty}) Unit)"
        obs = f"(pair {obs} unit)"
    return FamilyProgram("nested_pairs", n, term, obs)


def let_chain(n: int) -> FamilyProgram:
    """n lets after the first, each pairing the previous pair's projections
    in swapped order; the chain returns its last pair."""
    body = f"p{n}"
    for k in range(n, 0, -1):
        bound = f"(pair (snd p{k - 1}) (fst p{k - 1}) {SIGMA_UU})"
        body = f"(let (p{k} {bound} {SIGMA_UU}) {body})"
    text = f"(let (p0 (pair unit unit {SIGMA_UU}) {SIGMA_UU}) {body})"
    return FamilyProgram("let_chain", n, text, "(pair unit unit)")


def _right_nested(n: int) -> tuple[str, str, str]:
    """A pair whose second component is a pair, n levels deep: term, type
    and observation."""
    term, ty, obs = "unit", "Unit", "unit"
    for _ in range(n):
        term = f"(pair unit {term} (Sigma (a Unit) {ty}))"
        ty = f"(Sigma (a Unit) {ty})"
        obs = f"(pair unit {obs})"
    return term, ty, obs


def closure_env(n: int) -> FamilyProgram:
    """A closure whose environment is a right-nested pair of n >= 1 levels,
    applied to unit; the body pairs the argument with the environment's
    second component."""
    env, env_ty, _ = _right_nested(n)
    _, inner_ty, inner_obs = _right_nested(n - 1)
    body = f"(pair x (snd n) (Sigma (a Unit) {inner_ty}))"
    code = f"(code ((n {env_ty}) (x Unit)) {body})"
    text = f"(app (clo {code} {env} (Pi (x Unit) {env_ty})) unit)"
    return FamilyProgram("closure_env", n, text, f"(pair unit {inner_obs})")


FAMILIES = {f.__name__: f for f in (nested_pairs, let_chain, closure_env)}
