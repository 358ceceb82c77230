"""Finite-prefix simulator and verifier for the inductive field construction.

The engine builds a tower of quadratic extensions of Q, one generator per
step, driven by two fixed countable enumerations: quadratic covers y^2 = h(t)
of the line (each listed infinitely often) and truncated discriminant-class
streams of quadratic polynomials standing in for vast extensions.  Every step
records what was chosen, with its witness class as an integer in it, never a
factored kernel; traces are replayable bit-for-bit and can be re-verified
independently of the engine.

Truncation honesty: a disjointness test against a stream inspects only
`depth` generators and is recorded as such; finite prefixes never certify
infinite disjointness.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .arboreal import Inseparable, disc_class, disc_stream, killed_signs
from .exactpoly import RatPoly, Rational
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

SCHEMA_VERSION = 2
DEFAULT_WINDOW = 64
MAX_RETRIES = 6
_SPEC_RESOLVE_CAP = 512  # enumeration scan limit when re-resolving a recorded spec
# Deepest iterate level a trace step may name, vast.n + depth_checked - 1.
# Critical-orbit values double in bits per level (x^2 - 46 has 360,953 bits
# at level 17), so deeper streams cannot be checked.  Runs with the default
# depth and window read at most level 15, and after one retry at most 20.
MAX_STREAM_LEVEL = 24


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


class CoverSpec:
    """Entry of the cover list: y^2 = h(t) with its position bookkeeping."""

    __slots__ = ("entry", "grid_index", "repetition", "h")

    def __init__(self, entry: int, grid_index: int, repetition: int, h: RatPoly):
        object.__setattr__(self, "entry", entry)  # 1-based position in the list (the JSON "id")
        object.__setattr__(self, "grid_index", grid_index)
        object.__setattr__(self, "repetition", repetition)
        object.__setattr__(self, "h", h)

    def __setattr__(self, name, value):
        raise AttributeError("CoverSpec is immutable")


class VastSpec:
    """Entry of the vast list: the n-th discriminant-class stream of f, a
    stream over Q."""

    __slots__ = ("index", "f", "n")

    def __init__(self, index: int, f: RatPoly, n: int):
        object.__setattr__(self, "index", index)  # 1-based position in the list
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("VastSpec is immutable")

    def stream(self) -> ClassStream:
        return disc_stream(self.f, self.n)

    def subspace(self, depth: int) -> ClassSubspace:
        return ClassSubspace.span(self.stream().prefix(depth))


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


def _height_key(num: int, den: int) -> tuple[int, int, int, bool]:
    """Position of num/den, in lowest terms with den > 0, in the height order."""
    return max(abs(num), den), den, abs(num), num < 0


def _pairs_at_height(h: int) -> Iterator[tuple[int, int]]:
    """The (num, den) in lowest terms with max(|num|, den) = h, in order."""
    if h == 1:
        yield 0, 1
        yield 1, 1
        yield -1, 1
        return
    for den in range(1, h):  # |num| = h
        if math.gcd(h, den) == 1:
            yield h, den
            yield -h, den
    for num in range(1, h):  # den = h
        if math.gcd(num, h) == 1:
            yield num, h
            yield -num, h


def _pairs_by_height(
    max_height: int, after: tuple[int, int] | None = None
) -> Iterator[tuple[int, int]]:
    """(numerator, denominator) of each rational of `rationals_by_height`, in
    its order; with `after` = (num, den) in lowest terms, only those that
    follow num/den."""
    h = 1
    if after is not None:
        h = max(abs(after[0]), after[1])
        if h <= max_height:
            key = _height_key(*after)
            for p in _pairs_at_height(h):
                if _height_key(*p) > key:
                    yield p
        h += 1
    for h in range(h, max_height + 1):
        yield from _pairs_at_height(h)


def rationals_by_height(max_height: int, after: Rational | None = None) -> Iterator[Fraction]:
    """Deterministic enumeration of Q by height max(|num|, den), then
    denominator, then |num| with the positive value first.  With `after`, the
    enumeration resumes right after that rational."""
    start = None if after is None else (after.numerator, after.denominator)
    for num, den in _pairs_by_height(max_height, start):
        yield Fraction(num, den)


# ---------------------------------------------------------------------------
# State, records, trace
# ---------------------------------------------------------------------------

class PointRecord:
    __slots__ = ("step", "cover", "c", "fiber")

    def __init__(self, step: int, cover: CoverSpec, c: Fraction, fiber: SquareClass):
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "fiber", fiber)

    def __setattr__(self, name, value):
        raise AttributeError("PointRecord is immutable")


class ConstructionState:
    """What the induction has built after m steps.  Immutable."""

    __slots__ = ("m", "F", "points", "used", "depth")

    def __init__(
        self,
        m: int,
        F: ClassSubspace,
        points: tuple[PointRecord, ...],
        used: frozenset[int],
        depth: int,
    ):
        object.__setattr__(self, "m", m)  # completed steps; dim F == m
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "used", used)  # vast entries assigned so far
        object.__setattr__(self, "depth", depth)

    def __setattr__(self, name, value):
        raise AttributeError("ConstructionState is immutable")

    @classmethod
    def initial(cls, depth: int) -> "ConstructionState":
        return cls(0, ClassSubspace(), (), frozenset(), depth)


class StepRecord:
    """One step of a trace.  Immutable; equal when every field is equal."""

    __slots__ = ("m", "witness", "cover_id", "cover_h", "point", "vast_poly",
                 "vast_n", "depth_checked")

    def __init__(
        self,
        m: int,
        witness: int,
        cover_id: int,
        cover_h: RatPoly,
        point: Fraction,
        vast_poly: RatPoly,
        vast_n: int,
        depth_checked: int,
    ):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "witness", witness)  # an integer of the witness class
        object.__setattr__(self, "cover_id", cover_id)
        object.__setattr__(self, "cover_h", cover_h)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "vast_poly", vast_poly)
        object.__setattr__(self, "vast_n", vast_n)
        object.__setattr__(self, "depth_checked", depth_checked)

    def __setattr__(self, name, value):
        raise AttributeError("StepRecord is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepRecord):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "witness": self.witness,
            "cover": {"id": self.cover_id, "h": str(self.cover_h)},
            "point": _frac_str(self.point),
            "vast": {
                "poly": str(self.vast_poly),
                "n": self.vast_n,
                "depth_checked": self.depth_checked,
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "StepRecord":
        try:
            return cls(
                m=_json_int(data["m"], "m"),
                witness=_json_int(data["witness"], "witness", nonzero=True),
                cover_id=_json_int(data["cover"]["id"], "cover.id"),
                cover_h=RatPoly.parse(data["cover"]["h"]),
                point=_frac_parse(data["point"]),
                vast_poly=RatPoly.parse(data["vast"]["poly"]),
                vast_n=_json_int(data["vast"]["n"], "vast.n"),
                depth_checked=_json_int(data["vast"]["depth_checked"], "vast.depth_checked"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed step record: {exc}") from exc


class ConstructionTrace:
    """A run's steps, final field and parameters.  The final field is recorded
    as the steps' witness integers, which span it.  Immutable; equal when
    every field is equal."""

    __slots__ = ("steps", "final", "params", "retries")

    def __init__(
        self,
        steps: tuple[StepRecord, ...],
        final: tuple[int, ...],
        params: dict,
        retries: tuple[dict, ...] = (),
    ):
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "retries", retries)

    def __setattr__(self, name, value):
        raise AttributeError("ConstructionTrace is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstructionTrace):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def dim(self) -> int:
        return len(self.final)

    def final_subspace(self) -> ClassSubspace:
        return ClassSubspace.span(SquareClass(w) for w in self.final)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "params": dict(self.params),
            "steps": [s.to_json() for s in self.steps],
            "retries": [dict(r) for r in self.retries],
            "final": {"F": list(self.final), "dim": self.dim},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ConstructionTrace":
        """Parse a trace; raises TraceFormatError on malformed data.  Besides
        the shape it checks that every count and class is a JSON integer, that
        each witness is nonzero and each final.F entry a nonzero nonsquare,
        and what the verifier needs to end: each step's stream polynomial has
        degree >= 2, and its stream is read from level vast.n to
        vast.n + vast.depth_checked - 1, which must lie in 1..MAX_STREAM_LEVEL."""
        if not isinstance(data, dict):
            raise TraceFormatError("trace must be a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            raise TraceFormatError(f"unsupported schema {data.get('schema')!r}")
        try:
            steps = tuple(StepRecord.from_json(s) for s in data["steps"])
            final = tuple(_json_int(w, f"final.F[{j}]", nonzero=True)
                          for j, w in enumerate(data["final"]["F"]))
            params = dict(data["params"])
            retries = tuple(dict(r) for r in data.get("retries", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace: {exc}") from exc
        for j, w in enumerate(final):
            if SquareClass(w).is_trivial:
                raise TraceFormatError(f"final.F[{j}] is a perfect square: its class is trivial")
        height = params.get("height")
        if type(height) is not int or height < 1:
            raise TraceFormatError(f"params.height {height!r} is not a positive integer")
        for s in steps:
            if s.vast_poly.degree < 2:
                raise TraceFormatError(f"step {s.m}: vast.poly must have degree >= 2")
            if s.vast_n < 1 or s.depth_checked < 1:
                raise TraceFormatError(f"step {s.m}: vast.n and vast.depth_checked must be >= 1")
            if s.vast_n + s.depth_checked - 1 > MAX_STREAM_LEVEL:
                raise TraceFormatError(
                    f"step {s.m}: vast.n + vast.depth_checked - 1 exceeds {MAX_STREAM_LEVEL}")
        return cls(steps, final, params, retries)


def _json_int(value: object, name: str, nonzero: bool = False) -> int:
    """`value` itself if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise TraceFormatError(f"{name} must be an integer")
    if nonzero and value == 0:
        raise TraceFormatError(f"{name} must be nonzero: zero has no square class")
    return value


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
    used: frozenset[int],
    depth: int,
    window: int,
) -> VastSpec:
    """First unused enumeration entry whose depth-truncated subspace is
    disjoint from F over Q."""
    for j in range(1, window + 1):
        if j in used:
            continue
        spec = A.entry(j)
        if disjoint_over(spec.subspace(depth), F, ClassSubspace()):
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
    spec = _select_vast(A, F, state.used, state.depth, window)
    M = _with_fibers(F, state.points)
    w = vast_witness(spec.stream(), M, state.depth)
    F2 = F.extend(w)
    cover = B.entry(m)
    h = cover.h
    integral_over = _with_fibers(F2, state.points)
    prior_points = {(pt.c.numerator, pt.c.denominator) for pt in state.points}
    # Spans only grow, so every rational the last step with this cover skipped
    # is still ineligible, and that step's point is now a prior point.
    after = None
    for pt in state.points:
        if pt.cover.h == h:
            after = (pt.c.numerator, pt.c.denominator)
    point = None
    for num, den in _pairs_by_height(height, after):
        if (num, den) in prior_points:
            continue
        q = Fraction(num, den)
        if cover_fiber_integral(h, q, integral_over):
            point = q
            break
    if point is None:
        raise PointSearchExhausted(f"no point of height <= {height}")
    fiber = class_of(h(point))
    record = StepRecord(
        m=m,
        witness=w.rep,
        cover_id=cover.entry,
        cover_h=h,
        point=point,
        vast_poly=spec.f,
        vast_n=spec.n,
        depth_checked=state.depth,
    )
    new_state = ConstructionState(
        m=m,
        F=F2,
        points=state.points + (PointRecord(m, cover, point, fiber),),
        used=state.used | {spec.index},
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

    def trace() -> ConstructionTrace:
        return ConstructionTrace(tuple(steps), tuple(rec.witness for rec in steps), params,
                                 tuple(retries))

    while state.m < N:
        try:
            state2, rec = step(state, B, A, height=height, window=cur_window)
        except DepthExhausted as exc:
            if budget == 0:
                raise ConstructionAborted(trace(), exc)
            budget -= 1
            retries.append(
                {"step": state.m + 1, "reason": "depth_exhausted",
                 "depth": state.depth, "new_depth": state.depth * 2}
            )
            state = ConstructionState(state.m, state.F, state.points, state.used,
                                      state.depth * 2)
            continue
        except NoEligibleVastSpec as exc:
            if budget == 0:
                raise ConstructionAborted(trace(), exc)
            budget -= 1
            retries.append(
                {"step": state.m + 1, "reason": "window_exhausted",
                 "window": cur_window, "new_window": cur_window * 2}
            )
            cur_window *= 2
            continue
        except (PointSearchExhausted, Inseparable) as exc:
            raise ConstructionAborted(trace(), exc)
        state = state2
        steps.append(rec)
    return trace()


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
    checks re-derive every selection from the default enumerations.  No
    description prints a witness: a wrong one is located by the stream
    level of the class expected in its place.
    """
    out: list[str] = []
    B, A = default_enumerations()
    height = trace.params["height"]

    # reconstruct the field tower from the recorded witnesses
    fields: list[ClassSubspace] = [ClassSubspace()]
    witnesses = [SquareClass(rec.witness) for rec in trace.steps]
    for i, (rec, w) in enumerate(zip(trace.steps, witnesses), start=1):
        if rec.m != i:
            out.append(f"(schema): step {i} is labeled m={rec.m}")
        fields.append(fields[-1].extend(w))
        if fields[-1].dim != fields[-2].dim + 1:
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

    points = [(rec.point.numerator, rec.point.denominator) for rec in trace.steps]
    passed: dict[RatPoly, tuple[int, int]] = {}  # cover -> point of its last passed scan
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
                if not disjoint_over(spec.subspace(rec.depth_checked), F_prev, ClassSubspace()):
                    out.append(f"(4_{i}): recorded stream is not disjoint at depth "
                               f"{rec.depth_checked}")
                for j in range(1, idx):
                    if j in used_indices:
                        continue
                    early = A.entry(j)
                    if disjoint_over(early.subspace(rec.depth_checked), F_prev, ClassSubspace()):
                        out.append(f"(4_{i}): entry {j} was eligible before entry {idx}")
                        break
            except Inseparable as exc:
                out.append(f"(4_{i}): stream hit an inseparable iterate: {exc}")
            used_indices.add(idx)

        # (5_m) witness is the first stream class outside the compositum
        M = F_prev
        for fb in fibers[: i - 1]:
            if fb is not None:
                M = M.extend(fb)
        try:
            stream = disc_stream(rec.vast_poly, rec.vast_n)
            expected = vast_witness(stream, M, rec.depth_checked)
            if expected != witnesses[i - 1]:
                level = rec.vast_n + stream.prefix(rec.depth_checked).index(expected)
                out.append(f"(5_{i}): witness is not the first eligible stream class, "
                           f"the one at level {level} of the recorded stream")
        except (DepthExhausted, Inseparable) as exc:
            out.append(f"(5_{i}): no witness reachable in the recorded stream: {exc}")

        # (2_m) integrality: recorded point is the first eligible fresh point
        integral_over = F_cur
        for fb in fibers[: i - 1]:
            if fb is not None:
                integral_over = integral_over.extend(fb)
        target = points[i - 1]
        prior = set(points[: i - 1])
        # A passed scan of an earlier step with this cover found every rational
        # before its point prior or ineligible, and both stay so as spans grow;
        # that point is prior now.  So the scan resumes after it, unless the
        # recorded point lies in that stretch.
        after = passed.get(rec.cover_h)
        if after is not None and _height_key(*target) <= _height_key(*after):
            after = None
        reached = False
        for num, den in _pairs_by_height(height, after):
            if (num, den) in prior:
                continue
            q = Fraction(num, den)
            eligible = cover_fiber_integral(rec.cover_h, q, integral_over)
            if (num, den) == target:
                reached = True
                if eligible:
                    passed[rec.cover_h] = target
                else:
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

    # final section consistency
    if trace.final != tuple(rec.witness for rec in trace.steps):
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
