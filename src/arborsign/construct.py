"""Finite-prefix simulator and verifier for the inductive field construction.

The engine builds a tower of quadratic extensions of Q, one generator per
step, driven by two fixed countable enumerations: quadratic covers y^2 = h(t)
of the line (each listed infinitely often) and truncated discriminant-class
streams of quadratic polynomials standing in for vast extensions.  Every step
records what was chosen and which conditions were checked; traces are
replayable bit-for-bit and can be re-verified independently of the engine.

Truncation honesty: a disjointness test against a stream inspects only
`depth` generators and is recorded as such; finite prefixes never certify
infinite disjointness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

from .arboreal import Inseparable, disc_class, disc_stream, killed_signs
from .exactpoly import RatPoly
from .sqclass import (
    ClassStream,
    ClassSubspace,
    DepthExhausted,
    SquareClass,
    class_of,
    cover_fiber_integral,
    disjoint_over,
    intersection_dim,
    vast_witness,
)
from .supernat import sn_from_integer

SCHEMA_VERSION = 1
DEFAULT_WINDOW = 64
MAX_RETRIES = 6
_SPEC_RESOLVE_CAP = 512  # enumeration scan limit when re-resolving a recorded spec


class NoEligibleVastSpec(RuntimeError):
    """No enumeration entry in the inspected window passed the truncated
    disjointness test; retry with a larger window."""


class PointSearchExhausted(RuntimeError):
    """No integral specialization point below the height bound."""


class TraceFormatError(ValueError):
    """Malformed or unsupported trace JSON."""


class ConstructionAborted(RuntimeError):
    """Terminal engine failure; carries the partial trace."""

    def __init__(self, trace: "ConstructionTrace", cause: Exception):
        super().__init__(f"construction aborted: {cause}")
        self.trace = trace
        self.cause = cause


# ---------------------------------------------------------------------------
# Enumerations
# ---------------------------------------------------------------------------

def _unpair(j0: int) -> tuple[int, int]:
    """Cantor diagonal: 0,1,2,... -> (t, s-t) sweeping diagonals s = t + u."""
    s = 0
    while (s + 1) * (s + 2) // 2 <= j0:
        s += 1
    t = j0 - s * (s + 1) // 2
    return t, s - t


@dataclass(frozen=True)
class CoverSpec:
    """Entry of the cover list: y^2 = h(t) with its position bookkeeping."""

    entry: int  # 1-based position in the list (the JSON "id")
    grid_index: int
    repetition: int
    h: RatPoly


@dataclass(frozen=True)
class VastSpec:
    """Entry of the vast list: the n-th discriminant-class stream of f."""

    index: int  # 1-based position in the list
    f: RatPoly
    n: int

    def stream(self) -> ClassStream:
        return disc_stream(self.f, self.n)

    def subspace(self, depth: int) -> ClassSubspace:
        return ClassSubspace.span(self.stream().prefix(depth))

    def base(self) -> ClassSubspace:
        # all default specs are defined over Q
        return ClassSubspace()


def _signed_values(limit: int) -> Iterator[int]:
    yield 0
    for v in range(1, limit + 1):
        yield v
        yield -v


class CoverEnumeration:
    """Fixed grid of monic squarefree integer polynomials of degree <= 2,
    each recurring infinitely often via diagonal (grid, repetition) pairing."""

    def __init__(self) -> None:
        self._grid: list[RatPoly] = []
        self._gen = self._generate()

    @staticmethod
    def _generate() -> Iterator[RatPoly]:
        height = 0
        while True:
            bs = [height, -height] if height else [0]
            for b in bs:
                yield RatPoly((b, 1))  # x + b
            for a in _signed_values(height):
                for b in _signed_values(height):
                    if max(abs(a), abs(b)) == height and a * a != 4 * b:
                        yield RatPoly((b, a, 1))  # x^2 + a x + b, squarefree
            height += 1

    def _grid_at(self, i: int) -> RatPoly:
        while len(self._grid) <= i:
            self._grid.append(next(self._gen))
        return self._grid[i]

    def entry(self, j: int) -> CoverSpec:
        if j < 1:
            raise ValueError("entries are 1-based")
        gi, rep = _unpair(j - 1)
        return CoverSpec(j, gi, rep, self._grid_at(gi))


class VastEnumeration:
    """Streams (x^2 + c, n) over a diagonal grid of integer parameters c.

    Parameters with a finite critical orbit are dropped: their discriminant
    class stream takes only finitely many values, so the extension it models
    is finite and cannot play the vast role (the corresponding arboreal
    image is also degenerate).  c = 0 is inseparable outright.
    """

    def __init__(self) -> None:
        self._cs: list[int] = []
        self._gen = (c for c in self._c_candidates() if self._orbit_infinite(c))

    @staticmethod
    def _c_candidates() -> Iterator[int]:
        v = 1
        while True:
            yield v
            yield -v
            v += 1

    @staticmethod
    def _orbit_infinite(c: int) -> bool:
        seen: set[int] = set()
        v = 0
        while True:
            v = v * v + c
            if v == 0 or v in seen:
                return False
            seen.add(v)
            if v * v > abs(v) + abs(c):  # escape radius: orbit now diverges
                return True

    def _c_at(self, i: int) -> int:
        while len(self._cs) <= i:
            self._cs.append(next(self._gen))
        return self._cs[i]

    def entry(self, j: int) -> VastSpec:
        if j < 1:
            raise ValueError("entries are 1-based")
        ci, u = _unpair(j - 1)
        return VastSpec(j, RatPoly((self._c_at(ci), 0, 1)), u + 1)


def default_enumerations() -> tuple[CoverEnumeration, VastEnumeration]:
    return CoverEnumeration(), VastEnumeration()


def rationals_by_height(max_height: int) -> Iterator[Fraction]:
    """Deterministic enumeration of Q by height max(|num|, den), then
    denominator, then |num| with the positive value first."""
    for h in range(1, max_height + 1):
        for den in range(1, h + 1):
            for num in range(0, h + 1):
                if max(num, den) != h or (num and math.gcd(num, den) != 1):
                    continue
                if num == 0 and den != 1:
                    continue
                yield Fraction(num, den)
                if num:
                    yield Fraction(-num, den)


# ---------------------------------------------------------------------------
# State, records, trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointRecord:
    step: int
    cover: CoverSpec
    c: Fraction
    fiber: SquareClass


@dataclass(frozen=True)
class AssignRecord:
    step: int
    spec: VastSpec
    depth_checked: int


@dataclass(frozen=True)
class ConstructionState:
    m: int  # completed steps; dim F == m
    F: ClassSubspace
    points: tuple[PointRecord, ...]
    assignments: tuple[AssignRecord, ...]
    depth: int

    @classmethod
    def initial(cls, depth: int) -> "ConstructionState":
        return cls(0, ClassSubspace(), (), (), depth)


_CHECK_NAMES = ("c1", "c2", "c3", "c4", "c5")


@dataclass(frozen=True)
class StepRecord:
    m: int
    witness_kernel: int
    cover_id: int
    cover_h: RatPoly
    point: Fraction
    vast_poly: RatPoly
    vast_n: int
    depth_checked: int
    checks: tuple[bool, bool, bool, bool, bool]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "witness_kernel": self.witness_kernel,
            "cover": {"id": self.cover_id, "h": str(self.cover_h)},
            "point": _frac_str(self.point),
            "vast": {
                "poly": str(self.vast_poly),
                "n": self.vast_n,
                "depth_checked": self.depth_checked,
            },
            "checks": dict(zip(_CHECK_NAMES, self.checks)),
        }

    @classmethod
    def from_json(cls, data: dict) -> "StepRecord":
        try:
            return cls(
                m=int(data["m"]),
                witness_kernel=int(data["witness_kernel"]),
                cover_id=int(data["cover"]["id"]),
                cover_h=RatPoly.parse(data["cover"]["h"]),
                point=_frac_parse(data["point"]),
                vast_poly=RatPoly.parse(data["vast"]["poly"]),
                vast_n=int(data["vast"]["n"]),
                depth_checked=int(data["vast"]["depth_checked"]),
                checks=tuple(bool(data["checks"][n]) for n in _CHECK_NAMES),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed step record: {exc}") from exc


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[StepRecord, ...]
    final_kernels: tuple[int, ...]
    params: dict
    retries: tuple[dict, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.final_kernels)

    def final_subspace(self) -> ClassSubspace:
        return ClassSubspace.from_kernels(self.final_kernels)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "params": dict(self.params),
            "steps": [s.to_json() for s in self.steps],
            "retries": [dict(r) for r in self.retries],
            "final": {
                "F": list(self.final_kernels),
                "dim": self.dim,
                "supernatural_degree": str(sn_from_integer(2**self.dim)),
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "ConstructionTrace":
        if not isinstance(data, dict):
            raise TraceFormatError("trace must be a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            raise TraceFormatError(f"unsupported schema {data.get('schema')!r}")
        try:
            steps = tuple(StepRecord.from_json(s) for s in data["steps"])
            final = tuple(int(k) for k in data["final"]["F"])
            params = dict(data["params"])
            retries = tuple(dict(r) for r in data.get("retries", []))
        except (KeyError, TypeError) as exc:
            raise TraceFormatError(f"malformed trace: {exc}") from exc
        return cls(steps, final, params, retries)


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _frac_parse(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise TraceFormatError(f"bad rational {text!r}") from exc


# ---------------------------------------------------------------------------
# The induction step
# ---------------------------------------------------------------------------

def _select_vast(
    A: VastEnumeration,
    F: ClassSubspace,
    used: set[int],
    depth: int,
    window: int,
) -> VastSpec:
    """First unused enumeration entry whose base is contained in F and whose
    depth-truncated subspace is disjoint from F over that base."""
    for j in range(1, window + 1):
        if j in used:
            continue
        spec = A.entry(j)
        base = spec.base()
        if F.contains(base) and disjoint_over(spec.subspace(depth), F, base):
            return spec
    raise NoEligibleVastSpec(f"no eligible stream among the first {window} entries")


def _with_fibers(V: ClassSubspace, points: Sequence[PointRecord]) -> ClassSubspace:
    for pt in points:
        V = V.extend(pt.fiber)
    return V


def step(
    state: ConstructionState,
    B: CoverEnumeration,
    A: VastEnumeration,
    *,
    height: int,
    window: int = DEFAULT_WINDOW,
) -> tuple[ConstructionState, StepRecord]:
    """Execute one induction step.

    Selects the stream playing the vast role for this step, adjoins one new
    quadratic generator chosen outside the compositum of the current field
    with all recorded fiber classes, consumes the next cover entry, and picks
    the smallest fresh specialization point whose fiber stays integral.
    """
    m = state.m + 1
    F = state.F
    used = {a.spec.index for a in state.assignments}
    spec = _select_vast(A, F, used, state.depth, window)
    M = _with_fibers(F, state.points)
    w = vast_witness(spec.stream(), M, state.depth)
    F2 = F.extend(w)
    cover = B.entry(m)
    integral_over = _with_fibers(F2, state.points)
    prior_points = {pt.c for pt in state.points}
    point = None
    for q in rationals_by_height(height):
        if q in prior_points:
            continue
        if cover_fiber_integral(cover.h, q, integral_over):
            point = q
            break
    if point is None:
        raise PointSearchExhausted(f"no point of height <= {height}")
    fiber = class_of(cover.h(point))
    record = StepRecord(
        m=m,
        witness_kernel=w.kernel,
        cover_id=cover.entry,
        cover_h=cover.h,
        point=point,
        vast_poly=spec.f,
        vast_n=spec.n,
        depth_checked=state.depth,
        checks=(True, True, True, True, True),
    )
    new_state = ConstructionState(
        m=m,
        F=F2,
        points=state.points + (PointRecord(m, cover, point, fiber),),
        assignments=state.assignments + (AssignRecord(m, spec, state.depth),),
        depth=state.depth,
    )
    return new_state, record


def run(
    N: int,
    depth: int,
    height: int,
    *,
    window: int = DEFAULT_WINDOW,
    max_retries: int = MAX_RETRIES,
) -> ConstructionTrace:
    """Run N steps from scratch, deepening truncations on demand.

    DepthExhausted doubles the stream truncation depth and NoEligibleVastSpec
    doubles the enumeration window, each a bounded number of times; every
    retry is recorded.  Other failures abort with the partial trace attached.
    """
    if N < 1:
        raise ValueError("need at least one step")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if height < 1:
        raise ValueError("height must be >= 1")
    B, A = default_enumerations()
    params = {"steps": N, "depth": depth, "height": height, "window": window}
    state = ConstructionState.initial(depth)
    steps: list[StepRecord] = []
    retries: list[dict] = []
    cur_window = window
    budget = max_retries

    def partial() -> ConstructionTrace:
        return ConstructionTrace(tuple(steps), tuple(state.F.kernels()), params, tuple(retries))

    while state.m < N:
        try:
            state2, rec = step(state, B, A, height=height, window=cur_window)
        except DepthExhausted as exc:
            if budget == 0:
                raise ConstructionAborted(partial(), exc)
            budget -= 1
            retries.append(
                {"step": state.m + 1, "reason": "depth_exhausted",
                 "depth": state.depth, "new_depth": state.depth * 2}
            )
            state = replace(state, depth=state.depth * 2)
            continue
        except NoEligibleVastSpec as exc:
            if budget == 0:
                raise ConstructionAborted(partial(), exc)
            budget -= 1
            retries.append(
                {"step": state.m + 1, "reason": "window_exhausted",
                 "window": cur_window, "new_window": cur_window * 2}
            )
            cur_window *= 2
            continue
        except (PointSearchExhausted, Inseparable) as exc:
            raise ConstructionAborted(partial(), exc)
        state = state2
        steps.append(rec)
    return ConstructionTrace(tuple(steps), tuple(state.F.kernels()), params, tuple(retries))


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------

def _resolve_spec_index(A: VastEnumeration, f: RatPoly, n: int) -> int | None:
    for j in range(1, _SPEC_RESOLVE_CAP + 1):
        spec = A.entry(j)
        if spec.f == f and spec.n == n:
            return j
    return None


def verify_trace(trace: ConstructionTrace) -> list[str]:
    """Re-check every recorded step against the construction conditions.

    Returns a list of violation descriptions, each naming the first condition
    (1_m)..(5_m) it breaks; an empty list means the trace is valid.  The
    checks re-derive every selection from the default enumerations rather
    than trusting the engine's recorded flags.
    """
    out: list[str] = []
    B, A = default_enumerations()
    height = int(trace.params.get("height", 0)) or 10**6

    # reconstruct the field tower from the recorded witnesses
    fields: list[ClassSubspace] = [ClassSubspace()]
    witnesses: list[SquareClass | None] = []
    for i, rec in enumerate(trace.steps, start=1):
        if rec.m != i:
            out.append(f"(schema): step {i} is labeled m={rec.m}")
        try:
            w = SquareClass.from_kernel(rec.witness_kernel)
        except ValueError as exc:
            out.append(f"(5_{i}): bad witness kernel: {exc}")
            w = None
        witnesses.append(w)
        fields.append(fields[-1].extend(w) if w is not None else fields[-1])
        if w is not None and fields[-1].dim != fields[-2].dim + 1:
            out.append(f"(5_{i}): witness does not enlarge the field")

    # recompute fiber classes
    fibers: list[SquareClass | None] = []
    for i, rec in enumerate(trace.steps, start=1):
        v = rec.cover_h(rec.point)
        if v == 0:
            out.append(f"(2_{i}): fiber above the recorded point is degenerate")
            fibers.append(None)
        else:
            fibers.append(class_of(v))

    used_indices: set[int] = set()
    for i, rec in enumerate(trace.steps, start=1):
        F_prev, F_cur = fields[i - 1], fields[i]

        # (1_m) distinct points
        for j in range(i - 1):
            if trace.steps[j].point == rec.point:
                out.append(f"(1_{i}): point repeats step {j + 1}")
                break

        # (3_m) cover is the next enumeration entry
        cover = B.entry(i)
        if rec.cover_id != cover.entry or rec.cover_h != cover.h:
            out.append(f"(3_{i}): cover is not enumeration entry {i}")

        # (4_m) vast spec is the first eligible unused entry
        idx = _resolve_spec_index(A, rec.vast_poly, rec.vast_n)
        if idx is None:
            out.append(f"(4_{i}): recorded stream is not in the enumeration")
        elif idx in used_indices:
            out.append(f"(4_{i}): stream entry {idx} was already assigned")
        else:
            try:
                spec = A.entry(idx)
                base = spec.base()
                if not (F_prev.contains(base)
                        and disjoint_over(spec.subspace(rec.depth_checked), F_prev, base)):
                    out.append(f"(4_{i}): recorded stream is not disjoint at depth "
                               f"{rec.depth_checked}")
                for j in range(1, idx):
                    if j in used_indices:
                        continue
                    early = A.entry(j)
                    eb = early.base()
                    if F_prev.contains(eb) and disjoint_over(
                        early.subspace(rec.depth_checked), F_prev, eb
                    ):
                        out.append(f"(4_{i}): entry {j} was eligible before entry {idx}")
                        break
            except Inseparable as exc:
                out.append(f"(4_{i}): stream hit an inseparable iterate: {exc}")
            used_indices.add(idx)

        # (5_m) witness is the first stream class outside the compositum
        w = witnesses[i - 1]
        if w is not None:
            M = F_prev
            for fb in fibers[: i - 1]:
                if fb is not None:
                    M = M.extend(fb)
            try:
                expected = vast_witness(disc_stream(rec.vast_poly, rec.vast_n), M,
                                        rec.depth_checked)
                if expected != w:
                    out.append(f"(5_{i}): witness {w.kernel} is not the first "
                               f"eligible stream class (expected {expected.kernel})")
            except (DepthExhausted, Inseparable) as exc:
                out.append(f"(5_{i}): no witness reachable in the recorded stream: {exc}")

        # (2_m) integrality: recorded point is the first eligible fresh point
        integral_over = F_cur
        for fb in fibers[: i - 1]:
            if fb is not None:
                integral_over = integral_over.extend(fb)
        prior = {trace.steps[j].point for j in range(i - 1)}
        reached = False
        for q in rationals_by_height(height):
            if q in prior:
                continue
            eligible = cover_fiber_integral(rec.cover_h, q, integral_over)
            if q == rec.point:
                reached = True
                if not eligible:
                    out.append(f"(2_{i}): recorded point is not integral")
                break
            if eligible:
                out.append(f"(2_{i}): point {q} was eligible before {rec.point}")
                break
        if not reached and not any(v.startswith(f"(2_{i})") for v in out):
            out.append(f"(2_{i}): recorded point not reached in the height ordering")

        # (2_m) persistence: all fiber classes stay outside every later field
        for j, fb in enumerate(fibers[:i], start=1):
            if fb is not None and fields[i].member(fb):
                out.append(f"(2_{i}): fiber class of step {j} fell into the field")

        for name, flag in zip(_CHECK_NAMES, rec.checks):
            if not flag:
                out.append(f"({name[1]}_{i}): recorded check flag is false")

    # final section consistency
    n = len(trace.steps)
    if tuple(trace.final_kernels) != tuple(fields[n].kernels()):
        out.append("(final): recorded field does not match the witness tower")
    return out


# ---------------------------------------------------------------------------
# Counterexample audit
# ---------------------------------------------------------------------------

def counterexample_audit(trace: ConstructionTrace, polys: Sequence[RatPoly], k: int) -> dict:
    """Killed-sign report for each polynomial against the final field.

    For every polynomial whose stream was assigned during the run: the killed
    levels over the final field, the implied index lower bound, and the
    dimension of the intersection of the final field with the span of the
    polynomial's disc classes (the finite proxy for a nontrivial intersection
    with every discriminant subextension).
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    F = trace.final_subspace()
    entries = []
    for f in polys:
        assigned = [rec for rec in trace.steps if rec.vast_poly == f]
        if not assigned:
            entries.append({"poly": str(f), "assigned": False, "unprocessed": True})
            continue
        depth_needed = max(rec.vast_n + rec.depth_checked - 1 for rec in assigned)
        K = max(k, depth_needed)
        killed = killed_signs(f, F, K)
        disc_span = ClassSubspace.span(disc_class(f, m) for m in range(1, K + 1))
        entries.append(
            {
                "poly": str(f),
                "assigned": True,
                "steps": [rec.m for rec in assigned],
                "disc_depth": K,
                "killed": sorted(killed),
                "index_lower_bound": 2 ** len(killed),
                "intersection_dim": intersection_dim(F, disc_span),
            }
        )
    return {"level": k, "final_dim": trace.dim, "polynomials": entries}


def assigned_polynomials(trace: ConstructionTrace) -> list[RatPoly]:
    """Distinct polynomials whose streams were assigned, in first-use order."""
    seen: list[RatPoly] = []
    for rec in trace.steps:
        if rec.vast_poly not in seen:
            seen.append(rec.vast_poly)
    return seen
