"""Source texts of three program families that grow with a size n: nested
pairs, let chains, and closures over nested pair environments."""

SIGMA_UU = "(Sigma (a Unit) Unit)"


def nested_pairs(n: int) -> str:
    """A pair whose first component is a pair, n levels deep."""
    term, ty = "unit", "Unit"
    for _ in range(n):
        term = f"(pair {term} unit (Sigma (a {ty}) Unit))"
        ty = f"(Sigma (a {ty}) Unit)"
    return term


def let_chain(n: int) -> str:
    """n lets after the first, each pairing the previous pair's projections
    in swapped order; the chain returns its last pair."""
    body = f"p{n}"
    for k in range(n, 0, -1):
        bound = f"(pair (snd p{k - 1}) (fst p{k - 1}) {SIGMA_UU})"
        body = f"(let (p{k} {bound} {SIGMA_UU}) {body})"
    return f"(let (p0 (pair unit unit {SIGMA_UU}) {SIGMA_UU}) {body})"


def _right_nested(n: int) -> tuple[str, str]:
    """A pair whose second component is a pair, n levels deep, and its type."""
    term, ty = "unit", "Unit"
    for _ in range(n):
        term = f"(pair unit {term} (Sigma (a Unit) {ty}))"
        ty = f"(Sigma (a Unit) {ty})"
    return term, ty


def closure_env(n: int) -> str:
    """A closure whose environment is a right-nested pair of n >= 1 levels,
    applied to unit; the body pairs the argument with the environment's
    second component."""
    env, env_ty = _right_nested(n)
    inner_ty = _right_nested(n - 1)[1]
    code = f"(code ((n {env_ty}) (x Unit)) (pair x (snd n) (Sigma (a Unit) {inner_ty})))"
    return f"(app (clo {code} {env} (Pi (x Unit) {env_ty})) unit)"


FAMILIES = {f.__name__: f for f in (nested_pairs, let_chain, closure_env)}


def type_tower(n: int, body: str) -> str:
    """body under the type definitions T0 = Unit and Tk = (Sigma (a Tk-1)
    Tk-1) for k from 1 to n. Tn and (Sigma (a Tn-1) Tn-1) are one type, but
    their normal forms are trees of 2^n leaves, and at n = 16 comparing
    two of them runs past the default fuel."""
    lets = "".join(f" (let (T{k} (Sigma (a T{k - 1}) T{k - 1}) Star)" for k in range(1, n + 1))
    return f"(let (T0 Unit Star){lets} {body}" + ")" * (n + 1)


def tower_closure(n: int) -> str:
    """A well-typed closure at (Pi (x Tn) Unit) annotated at the same type
    with Tn spelled (Sigma (a Tn-1) Tn-1), under type_tower(n). It checks
    at n = 15; at n = 16 checking it runs out of fuel."""
    clo = f"(clo (code ((e Star) (x e)) unit) T{n} (Pi (x T{n}) Unit))"
    v = f"(Sigma (a T{n - 1}) T{n - 1})"
    return type_tower(n, f"(let (V {v} Star) (let (g {clo} (Pi (x V) Unit)) g))")
