"""Correctness gate: checks every CLI output against oracles that never call
``arborsign``.

Each ``check_*`` function takes the exit code and stdout of one finished CLI
process and returns ``None`` when the output is right, or a one-line cause
when it is not.  The oracles use sympy (resultant-based discriminants of
iterates composed by sympy) and integer square tests with ``math.isqrt``.

Square classes are compared without factoring: a nonzero rational q lies in
the F2-span of squarefree kernels k1..kr iff q * prod(S) is a rational square
for some subset S of the kernels.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import sympy

DOCUMENTED_EXIT_CODES = (0, 1, 2, 3)

# Cause of the one known defect (ROADMAP item 3): a CONSISTENT verdict that is
# sound over Q but not over a nontrivial base field.  Such operations count
# as failed; run.py keeps them apart from unexpected failures.
KNOWN_UNSOUND_CONSISTENT = "unsound CONSISTENT over a nontrivial base (ROADMAP item 3)"

_X = sympy.Symbol("x")


def payload(code: int, stdout: bytes) -> tuple[dict | None, str | None]:
    """The JSON payload of a finished process, or the contract breach."""
    if code not in DOCUMENTED_EXIT_CODES:
        return None, f"exit code {code} is outside {DOCUMENTED_EXIT_CODES}"
    if code not in (0, 1):
        return None, None
    try:
        data = json.loads(stdout)
    except ValueError:
        return None, f"exit code {code} without JSON on stdout"
    if not isinstance(data, dict):
        return None, "stdout JSON is not an object"
    return data, None


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _class_num(q: Fraction) -> int:
    """An integer in the square class of the nonzero rational q."""
    return q.numerator * q.denominator


def subset_products(kernels: list[int]) -> list[int]:
    out = [1]
    for k in kernels:
        out += [p * k for p in out]
    return out


def in_span(q: Fraction, products: list[int]) -> bool:
    """Whether the class of q lies in the span whose subset products are given."""
    n = _class_num(q)
    return any(is_square(n * p) for p in products)


def same_class(q: Fraction, kernel: int) -> bool:
    return is_square(_class_num(q) * kernel)


def f2_rank(kernels: list[int]) -> int:
    """Dimension of the F2-span of the classes of the given integers."""
    rows: list[frozenset[int]] = []
    for k in kernels:
        vec = {p for p, e in sympy.factorint(abs(k)).items() if e % 2}
        if k < 0:
            vec.add(-1)
        v = frozenset(vec)
        for r in rows:
            if min(r) in v:
                v = v ^ r
        if v:
            rows = [r ^ v if min(v) in r else r for r in rows]
            rows.append(v)
    return len(rows)


def group_order(d: int, k: int) -> int:
    """|Aut T_k(d)| = d!^((d^k - 1)/(d - 1))."""
    return math.factorial(d) ** ((d**k - 1) // (d - 1))


def parse_coeffs(text: str) -> tuple[int, ...]:
    """Integer coefficients, low to high, of a polynomial in CLI syntax."""
    poly = sympy.Poly(sympy.sympify(text.replace("^", "**")), _X)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


@lru_cache(maxsize=None)
def _iterate(coeffs: tuple[int, ...], m: int) -> sympy.Poly:
    if m == 0:
        return sympy.Poly(_X, _X)
    return sympy.Poly(list(reversed(coeffs)), _X).compose(_iterate(coeffs, m - 1))


@lru_cache(maxsize=None)
def _disc(coeffs: tuple[int, ...], m: int) -> Fraction:
    d = sympy.Rational(sympy.discriminant(_iterate(coeffs, m)))
    return Fraction(int(d.p), int(d.q))


def iterate_discs(coeffs: tuple[int, ...], levels: int) -> list[Fraction]:
    """disc(f^(om)) for m = 1..levels, by sympy on the composed iterate.

    Cached in this process only; the CLI processes being measured never
    see it.
    """
    return [_disc(coeffs, m) for m in range(1, levels + 1)]


def orbit_classes(c: int, levels: int) -> list[int]:
    """Integers in the classes of disc((x^2+c)^(om)), m = 1..levels.

    disc(f^(om)) = 2^(2^m) f^(om)(0) disc(f^(o(m-1)))^2 for m >= 2 and
    disc(f) = -4c, so no discriminant of a high-degree iterate is needed.
    """
    out, v = [], 0
    for m in range(1, levels + 1):
        v = v * v + c
        out.append(-4 * c if m == 1 else v)
    return out


# ---------------------------------------------------------------------------
# tower: simulate, verify, audit
# ---------------------------------------------------------------------------

def check_simulate(code: int, stdout: bytes, steps: int) -> str | None:
    data, cause = payload(code, stdout)
    if cause or code != 0:
        return cause or f"simulate exited {code}"
    if data.get("steps") != steps or data.get("dim") != steps:
        return f"simulate reported steps={data.get('steps')} dim={data.get('dim')}, want {steps}"
    return None


def check_verify(code: int, stdout: bytes) -> str | None:
    data, cause = payload(code, stdout)
    if cause or code != 0:
        return cause or f"verify exited {code}"
    if data.get("violations") != []:
        return f"verify found violations: {data.get('violations')!r:.200}"
    return None


def check_audit(code: int, stdout: bytes, trace: dict, level: int) -> str | None:
    data, cause = payload(code, stdout)
    if cause or code != 0:
        return cause or f"audit exited {code}"
    final = [int(k) for k in trace["final"]["F"]]
    products = subset_products(final)
    if data.get("final_dim") != len(final):
        return f"audit final_dim {data.get('final_dim')} != {len(final)}"
    depth_needed: dict[str, int] = {}
    for s in trace["steps"]:
        poly = s["vast"]["poly"]
        need = s["vast"]["n"] + s["vast"]["depth_checked"] - 1
        depth_needed[poly] = max(depth_needed.get(poly, 0), need)
    entries = data.get("polynomials", [])
    if [e.get("poly") for e in entries] != list(depth_needed):
        return "audit polynomials differ from the trace's assigned streams"
    for e in entries:
        K = max(level, depth_needed[e["poly"]])
        coeffs = parse_coeffs(e["poly"])
        if len(coeffs) != 3 or coeffs[1:] != (0, 1):
            return f"audit stream polynomial {e['poly']} is not x^2 + c"
        killed = [m for m, v in enumerate(orbit_classes(coeffs[0], K), start=1)
                  if any(is_square(v * p) for p in products)]
        if e.get("disc_depth") != K:
            return f"audit {e['poly']}: disc_depth {e.get('disc_depth')} != {K}"
        if e.get("killed") != killed:
            return f"audit {e['poly']}: killed {e.get('killed')} != oracle {killed}"
        if e.get("index_lower_bound") != 2 ** len(killed):
            return f"audit {e['poly']}: index_lower_bound is not 2^|killed|"
    return None


# ---------------------------------------------------------------------------
# certify: index-report, disc-seq, vast-witness, group-order
# ---------------------------------------------------------------------------

def check_index_report(code: int, stdout: bytes, q: dict) -> str | None:
    data, cause = payload(code, stdout)
    if cause:
        return cause
    if code not in (0, 1):
        return f"index-report exited {code}"
    coeffs, k, n, base = q["coeffs"], q["level"], q["n"], q["base"]
    d = len(coeffs) - 1
    order = group_order(d, k)
    if data.get("group_order") != order:
        return f"group_order {data.get('group_order')} != {d}!^(({d}^{k}-1)/({d}-1))"
    discs = iterate_discs(coeffs, k)
    verdict = data.get("verdict")
    if verdict == "INSEPARABLE":
        return None if 0 in discs else "INSEPARABLE but every iterate discriminant is nonzero"
    if 0 in discs:
        return f"verdict {verdict} but disc of iterate {discs.index(0) + 1} is zero"
    products = subset_products(base)
    killed = [m for m, D in enumerate(discs, start=1) if in_span(D, products)]
    if data.get("killed") != killed:
        return f"killed {data.get('killed')} != oracle {killed}"
    if data.get("index_lower_bound") != 2 ** len(killed):
        return "index_lower_bound is not 2^|killed|"
    dlb = data.get("degree_lower_bound")
    if not isinstance(dlb, int) or dlb < 1 or order % dlb:
        return f"degree_lower_bound {dlb} does not divide the group order"
    refutes = 2 ** len(killed) > n
    if refutes:
        if verdict != f"REFUTES_INDEX_AT_MOST({n})" or code != 1:
            return f"2^|killed| > n but verdict {verdict} with exit {code}"
        return None
    if verdict not in ("CONSISTENT", "UNKNOWN") or code != 0:
        return f"2^|killed| <= n but verdict {verdict} with exit {code}"
    if verdict == "CONSISTENT":
        if dlb * n < order:
            return f"CONSISTENT with dlb*n = {dlb * n} < group order {order}"
        r = f2_rank(base)
        if dlb * n < order * 2**r:
            return KNOWN_UNSOUND_CONSISTENT
    return None


def check_disc_seq(code: int, stdout: bytes, q: dict) -> str | None:
    data, cause = payload(code, stdout)
    if cause:
        return cause
    discs = iterate_discs(q["coeffs"], q["levels"])
    if code == 1:
        want = discs.index(0) + 1 if 0 in discs else None
        return None if data.get("inseparable") == want else f"inseparable {data} != level {want}"
    if code != 0 or 0 in discs:
        return f"disc-seq exited {code} with discriminants {'with' if 0 in discs else 'without'} a zero"
    classes = data.get("classes")
    if not isinstance(classes, list) or len(classes) != len(discs):
        return f"disc-seq returned {classes!r:.80} for {len(discs)} levels"
    for m, (D, k) in enumerate(zip(discs, classes), start=1):
        if not isinstance(k, int) or k == 0 or not same_class(D, k):
            return f"class {k} at level {m} differs from sympy's discriminant"
    return None


def check_vast_witness(code: int, stdout: bytes, q: dict) -> str | None:
    data, cause = payload(code, stdout)
    if cause:
        return cause
    start, depth = q["start"], q["depth"]
    discs = iterate_discs(q["coeffs"], start + depth - 1)
    products = subset_products(q["base"])
    want = None
    for m in range(start, start + depth):
        if 0 in discs[:m]:  # the stream element at level m is undefined
            return None if code == 1 else f"inseparable stream but exit {code}"
        if not in_span(discs[m - 1], products):
            want = discs[m - 1]
            break
    if want is None:
        return None if code == 3 else f"no witness within depth {depth} but exit {code}"
    w = data.get("witness") if data else None
    if code != 0 or not isinstance(w, int) or w == 0 or not same_class(want, w):
        return f"witness {w} (exit {code}) is not the first class outside the base"
    return None


def check_group_order(code: int, stdout: bytes, q: dict) -> str | None:
    data, cause = payload(code, stdout)
    if cause or code != 0:
        return cause or f"group-order exited {code}"
    want = group_order(q["arity"], q["depth"])
    if data.get("order") != want:
        return f"order {data.get('order')} != {want}"
    return None


CERTIFY_CHECKS = {
    "index-report": check_index_report,
    "disc-seq": check_disc_seq,
    "vast-witness": check_vast_witness,
    "group-order": check_group_order,
}
