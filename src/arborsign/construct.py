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
import re
from collections import namedtuple
from collections.abc import Iterator

from .arboreal import Inseparable, disc_class, disc_stream, killed_signs
from .exactpoly import RatPoly
from .primes import ResourceBound
from .sqclass import (
    ClassStream,
    ClassSubspace,
    DepthExhausted,
    SquareClass,
    cover_fiber_integral,
    disjoint_over,
    fiber_rep,
    intersection_dim,
    vast_witness,
)

SCHEMA_VERSION = 2
DEFAULT_WINDOW = 64
MAX_RETRIES = 6
# The verifier resolves a recorded stream among the first 512 entries.  A step
# selects an entry only after testing every earlier one, and entry 301,
# (x^2 + 1, n = 25), already lies past MAX_STREAM_LEVEL.
_SPEC_RESOLVE_CAP = 512
# Deepest iterate level a trace step may name, vast.n + depth_checked - 1.
# Critical-orbit values double in bits per level (x^2 - 46 has 360,953 bits
# at level 17), so deeper streams cannot be checked.  Runs with the default
# depth and window read at most level 15, and after one retry at most 20.
MAX_STREAM_LEVEL = 24


class NoEligibleVastSpec(RuntimeError):
    """No enumeration entry in the inspected window passed the truncated
    disjointness test; retry with a larger window.  `met` holds the entries
    the scan found not disjoint from F."""

    def __init__(self, message: str, met: frozenset[int]):
        super().__init__(message)
        self.met = met


class PointSearchExhausted(RuntimeError):
    """No integral specialization point below the height bound."""


class TraceFormatError(ValueError):
    """Malformed or unsupported trace JSON."""


class ConstructionAborted(ResourceBound):
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


class VastSpec(namedtuple("VastSpec", "index f n")):
    """Entry of the vast list: the n-th discriminant-class stream of f, a
    stream over Q, at the 1-based position `index` in the list."""

    __slots__ = ()

    def stream(self) -> ClassStream:
        return disc_stream(self.f, self.n)

    def subspace(self, depth: int) -> ClassSubspace:
        return ClassSubspace.span(self.stream().prefix(depth))


def _signed_values(limit: int) -> Iterator[int]:
    yield 0
    for v in range(1, limit + 1):
        yield v
        yield -v


def _cover_grid() -> Iterator[RatPoly]:
    """The monic squarefree integer polynomials of degree <= 2, by height."""
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


def _vast_params() -> Iterator[int]:
    """The integers c = 1, -1, 2, -2, ... whose x^2 + c has an infinite
    critical orbit.  A finite orbit gives a discriminant class stream with
    finitely many values, so the extension it models is finite and cannot
    play the vast role (the arboreal image is also degenerate); c = 0 is
    inseparable outright."""
    v = 1
    while True:
        for c in (v, -v):
            if _orbit_infinite(c):
                yield c
        v += 1


# Both enumerations are fixed, so each process keeps one list of the items
# read so far and the iterator that extends it.
_COVERS: tuple[list[RatPoly], Iterator[RatPoly]] = ([], _cover_grid())
_VAST_CS: tuple[list[int], Iterator[int]] = ([], _vast_params())


def _item(lazy: tuple[list, Iterator], i: int):
    """Item i (0-based) of an endless iterator, through its list of items."""
    items, source = lazy
    while len(items) <= i:
        items.append(next(source))
    return items[i]


def cover_entry(j: int) -> RatPoly:
    """The cover polynomial h of entry j (1-based), the JSON "id".  Each grid
    polynomial recurs infinitely often via diagonal (grid, repetition) pairing."""
    if j < 1:
        raise ValueError("entries are 1-based")
    return _item(_COVERS, _unpair(j - 1)[0])


def vast_entry(j: int) -> VastSpec:
    """Entry j (1-based) of the vast list: (x^2 + c, n) over a diagonal grid
    of the parameters c and the levels n."""
    if j < 1:
        raise ValueError("entries are 1-based")
    ci, u = _unpair(j - 1)
    return VastSpec(j, RatPoly((_item(_VAST_CS, ci), 0, 1)), u + 1)


# A point, a rational t = num/den, is the pair (num, den) in lowest terms
# with den > 0, everywhere in this module.

def _height_key(num: int, den: int) -> tuple[int, int, int, bool]:
    """Position of the point (num, den) in the height order."""
    return max(abs(num), den), den, abs(num), num < 0


def _pairs_at_height(h: int) -> Iterator[tuple[int, int]]:
    """The points (num, den) with max(|num|, den) = h, in order."""
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


def rationals_by_height(
    max_height: int, after: tuple[int, int] | None = None
) -> Iterator[tuple[int, int]]:
    """Deterministic enumeration of the points of height max(|num|, den) at
    most max_height, by height, then denominator, then |num| with the
    positive value first.  With the point `after`, the enumeration resumes
    right after it."""
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


# ---------------------------------------------------------------------------
# State, records, trace
# ---------------------------------------------------------------------------

class ConstructionState(namedtuple("ConstructionState", "F M points used met depth")):
    """What the induction has built after len(points) steps: the field F, of
    dimension len(points), the (cover h, point) pair of each completed step,
    the vast entries `used` so far, and the truncation depth.

    F only gains classes and the truncation depth never drops, so the state
    also carries what later steps reuse: M, the span of F and every recorded
    fiber class, and `met`, the vast entries whose truncated subspace was
    shown not disjoint from F, which stay so at every later step.
    """

    __slots__ = ()

    @classmethod
    def initial(cls, depth: int) -> "ConstructionState":
        return cls(ClassSubspace(), ClassSubspace(), (), frozenset(), frozenset(), depth)


class StepRecord(namedtuple("StepRecord", "m witness cover_id cover_h point vast_poly "
                                         "vast_n depth_checked")):
    """One step of a trace; `witness` is an integer of the witness class."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "witness": self.witness,
            "cover": {"id": self.cover_id, "h": str(self.cover_h)},
            "point": "%d/%d" % self.point,
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
                point=_point_parse(data["point"]),
                vast_poly=RatPoly.parse(data["vast"]["poly"]),
                vast_n=_json_int(data["vast"]["n"], "vast.n"),
                depth_checked=_json_int(data["vast"]["depth_checked"], "vast.depth_checked"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed step record: {exc}") from exc


class ConstructionTrace(namedtuple("ConstructionTrace", "steps final params retries dim")):
    """A run's steps, final field, parameters and retries.  The final field is
    recorded as the steps' witness integers, which span it, and its dimension
    `dim`, which is len(final) unless a parsed trace records another."""

    __slots__ = ()

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
            dim = _json_int(data["final"]["dim"], "final.dim")
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
        return cls(steps, final, params, retries, dim)


def _json_int(value: object, name: str, nonzero: bool = False) -> int:
    """`value` itself if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise TraceFormatError(f"{name} must be an integer")
    if nonzero and value == 0:
        raise TraceFormatError(f"{name} must be nonzero: zero has no square class")
    return value


_POINT_TEXT = re.compile(r"-?[0-9]+/[0-9]+")  # the form to_json writes


def _point_parse(text: object) -> tuple[int, int]:
    """The point a trace's text names; a point that is not a JSON string is
    malformed.  Any text `fractions.Fraction` reads ("2/4", " 3 ", "1.5") is
    read as it reads it; only text other than to_json's "num/den" imports it."""
    if type(text) is not str:
        raise TraceFormatError(f"bad rational {text!r}")
    try:
        if _POINT_TEXT.fullmatch(text):
            num, den = map(int, text.split("/"))
            if den == 0:
                raise ZeroDivisionError(text)
            g = math.gcd(num, den)
            return num // g, den // g
        from fractions import Fraction

        q = Fraction(text)
        return q.numerator, q.denominator
    except (ValueError, ZeroDivisionError) as exc:
        raise TraceFormatError(f"bad rational {text!r}") from exc


def _point_str(point: tuple[int, int]) -> str:
    """A point as str(Fraction) writes it: "3/4", or "3" for an integer."""
    num, den = point
    return str(num) if den == 1 else f"{num}/{den}"


# ---------------------------------------------------------------------------
# The induction step
# ---------------------------------------------------------------------------

def _select_vast(
    F: ClassSubspace, skip: frozenset[int], depth: int, window: int
) -> tuple[VastSpec, frozenset[int]]:
    """First enumeration entry outside `skip` whose depth-truncated subspace
    is disjoint from F over Q, and the entries found not disjoint before it."""
    met: set[int] = set()
    for j in range(1, window + 1):
        if j in skip:
            continue
        spec = vast_entry(j)
        if disjoint_over(F, spec.subspace(depth)):
            return spec, frozenset(met)
        met.add(j)
    raise NoEligibleVastSpec(f"no eligible stream among the first {window} entries",
                             frozenset(met))


def step(
    state: ConstructionState, *, height: int, window: int = DEFAULT_WINDOW
) -> tuple[ConstructionState, StepRecord]:
    """Execute one induction step.

    Selects the stream playing the vast role for this step, adjoins one new
    quadratic generator chosen outside the compositum of the current field
    with all recorded fiber classes, consumes the next cover entry, and picks
    the smallest fresh specialization point whose fiber stays integral.
    """
    m = len(state.points) + 1
    spec, met = _select_vast(state.F, state.used | state.met, state.depth, window)
    w = vast_witness(spec.stream(), state.M, state.depth)
    integral_over = state.M.extend(w)
    h = cover_entry(m)
    prior_points = {pt for _, pt in state.points}
    # Spans only grow, so every rational the last step with this cover skipped
    # is still ineligible, and that step's point is now a prior point.
    after = None
    for ph, pt in state.points:
        if ph == h:
            after = pt
    point = None
    for candidate in rationals_by_height(height, after):
        if candidate not in prior_points and cover_fiber_integral(h, *candidate, integral_over):
            point = candidate
            break
    if point is None:
        raise PointSearchExhausted(f"no point of height <= {height}")
    record = StepRecord(
        m=m,
        witness=w.rep,
        cover_id=m,
        cover_h=h,
        point=point,
        vast_poly=spec.f,
        vast_n=spec.n,
        depth_checked=state.depth,
    )
    new_state = ConstructionState(
        F=state.F.extend(w),
        M=integral_over.extend(SquareClass(fiber_rep(h, *point))),
        points=state.points + ((h, point),),
        used=state.used | {spec.index},
        met=state.met | met,
        depth=state.depth,
    )
    return new_state, record


def run(N: int, depth: int, height: int) -> ConstructionTrace:
    """Run N steps from scratch over the fixed enumerations, deepening
    truncations on demand.

    DepthExhausted doubles the stream truncation depth and NoEligibleVastSpec
    doubles the enumeration window, from DEFAULT_WINDOW; every retry is
    recorded, and the run aborts at the retry after MAX_RETRIES of them in
    all.  Other failures abort at once.  An abort carries the partial trace.
    """
    if N < 1:
        raise ValueError("need at least one step")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if height < 1:
        raise ValueError("height must be >= 1")
    params = {"steps": N, "depth": depth, "height": height, "window": DEFAULT_WINDOW}
    state = ConstructionState.initial(depth)
    steps: list[StepRecord] = []
    retries: list[dict] = []
    window = DEFAULT_WINDOW

    def trace() -> ConstructionTrace:
        final = tuple(rec.witness for rec in steps)
        return ConstructionTrace(tuple(steps), final, params, tuple(retries), len(final))

    while len(steps) < N:
        try:
            state2, rec = step(state, height=height, window=window)
        except (DepthExhausted, NoEligibleVastSpec) as exc:
            if len(retries) == MAX_RETRIES:
                raise ConstructionAborted(trace(), exc)
            if isinstance(exc, DepthExhausted):
                retries.append({"step": len(steps) + 1, "reason": "depth_exhausted",
                                "depth": state.depth, "new_depth": state.depth * 2})
                state = state._replace(depth=state.depth * 2)
            else:
                retries.append({"step": len(steps) + 1, "reason": "window_exhausted",
                                "window": window, "new_window": window * 2})
                window *= 2
                state = state._replace(met=state.met | exc.met)
            continue
        except (PointSearchExhausted, Inseparable) as exc:
            raise ConstructionAborted(trace(), exc)
        state = state2
        steps.append(rec)
    return trace()


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------

def _resolve_spec_index(f: RatPoly, n: int) -> int | None:
    for j in range(1, _SPEC_RESOLVE_CAP + 1):
        spec = vast_entry(j)
        if spec.f == f and spec.n == n:
            return j
    return None


def verify_trace(trace: ConstructionTrace) -> list[str]:
    """Re-check every recorded step against the construction conditions.

    Returns a list of violation descriptions, each naming the first condition
    (1_m)..(5_m) it breaks; an empty list means the trace is valid.  The
    checks re-derive every selection from the fixed enumerations, read
    through cover_entry and vast_entry; a recorded stream must be one of the
    first _SPEC_RESOLVE_CAP entries.
    No description prints a witness: a wrong one is located by the stream
    level of the class expected in its place.
    """
    out: list[str] = []
    height = trace.params["height"]

    # reconstruct the field tower from the recorded witnesses
    fields: list[ClassSubspace] = [ClassSubspace()]
    for i, rec in enumerate(trace.steps, start=1):
        if rec.m != i:
            out.append(f"(schema): step {i} is labeled m={rec.m}")
        fields.append(fields[-1].extend(SquareClass(rec.witness)))
        if fields[-1].dim != fields[-2].dim + 1:
            out.append(f"(5_{i}): witness does not enlarge the field")

    # recompute fiber classes
    fibers: list[SquareClass | None] = []
    for i, rec in enumerate(trace.steps, start=1):
        v = fiber_rep(rec.cover_h, *rec.point)
        if v == 0:
            out.append(f"(2_{i}): fiber above the recorded point is degenerate")
            fibers.append(None)
        else:
            fibers.append(SquareClass(v))

    # The fields are nested, so a fiber class in the field of step i stays in
    # every later one: each is tested against the last field, and on a hit
    # bisected for the first step whose field holds it.
    fell_at: dict[int, int] = {}  # step j -> first step i >= j with fiber j in field i
    for j, fb in enumerate(fibers, start=1):
        if fb is not None and fields[-1].member(fb):
            lo, hi = j, len(fibers)
            while lo < hi:
                mid = (lo + hi) // 2
                if fields[mid].member(fb):
                    hi = mid
                else:
                    lo = mid + 1
            fell_at[j] = lo

    first_at: dict[tuple[int, int], int] = {}  # point -> first step that recorded it
    passed: dict[RatPoly, tuple[int, int]] = {}  # cover -> point of its last passed scan
    used_indices: set[int] = set()
    # entry -> least depth at which it was found not disjoint from an earlier
    # field; it stays so over every later field at that depth or deeper
    met: dict[int, int] = {}
    M = ClassSubspace()  # the field before step i with every earlier fiber class
    for i, rec in enumerate(trace.steps, start=1):
        F_prev = fields[i - 1]
        w = SquareClass(rec.witness)

        # (1_m) distinct points
        first = first_at.setdefault(rec.point, i)
        if first != i:
            out.append(f"(1_{i}): point repeats step {first}")

        # (3_m) cover is the next enumeration entry
        if rec.cover_id != i or rec.cover_h != cover_entry(i):
            out.append(f"(3_{i}): cover is not enumeration entry {i}")

        # (4_m) vast spec is the first eligible unused entry
        idx = _resolve_spec_index(rec.vast_poly, rec.vast_n)
        if idx is None:
            out.append(f"(4_{i}): recorded stream is not in the enumeration")
        elif idx in used_indices:
            out.append(f"(4_{i}): stream entry {idx} was already assigned")
        else:
            try:
                spec = vast_entry(idx)
                if not disjoint_over(F_prev, spec.subspace(rec.depth_checked)):
                    out.append(f"(4_{i}): recorded stream is not disjoint at depth "
                               f"{rec.depth_checked}")
                for j in range(1, idx):
                    if j in used_indices or (j in met and met[j] <= rec.depth_checked):
                        continue
                    early = vast_entry(j)
                    if disjoint_over(F_prev, early.subspace(rec.depth_checked)):
                        out.append(f"(4_{i}): entry {j} was eligible before entry {idx}")
                        break
                    met[j] = rec.depth_checked
            except Inseparable as exc:
                out.append(f"(4_{i}): stream hit an inseparable iterate: {exc}")
            used_indices.add(idx)

        # (5_m) witness is the first stream class outside the compositum
        try:
            stream = disc_stream(rec.vast_poly, rec.vast_n)
            expected = vast_witness(stream, M, rec.depth_checked)
            if expected != w:
                level = rec.vast_n + stream.prefix(rec.depth_checked).index(expected)
                out.append(f"(5_{i}): witness is not the first eligible stream class, "
                           f"the one at level {level} of the recorded stream")
        except (DepthExhausted, Inseparable) as exc:
            out.append(f"(5_{i}): no witness reachable in the recorded stream: {exc}")

        # (2_m) integrality: recorded point is the first eligible fresh point
        integral_over = M.extend(w)
        target = rec.point
        # A passed scan of an earlier step with this cover found every rational
        # before its point prior or ineligible, and both stay so as spans grow;
        # that point is prior now.  So the scan resumes after it, unless the
        # recorded point lies in that stretch.
        after = passed.get(rec.cover_h)
        if after is not None and _height_key(*target) <= _height_key(*after):
            after = None
        reached = False
        for candidate in rationals_by_height(height, after):
            if first_at.get(candidate, i) < i:  # a prior point
                continue
            eligible = cover_fiber_integral(rec.cover_h, *candidate, integral_over)
            if candidate == target:
                reached = True
                if eligible:
                    passed[rec.cover_h] = target
                else:
                    out.append(f"(2_{i}): recorded point is not integral")
                break
            if eligible:
                out.append(f"(2_{i}): point {_point_str(candidate)} was eligible before "
                           f"{_point_str(target)}")
                break
        if not reached and not any(v.startswith(f"(2_{i})") for v in out):
            out.append(f"(2_{i}): recorded point not reached in the height ordering")

        # (2_m) persistence: all fiber classes stay outside every later field
        for j, first in fell_at.items():
            if first <= i:
                out.append(f"(2_{i}): fiber class of step {j} fell into the field")
        M = integral_over if fibers[i - 1] is None else integral_over.extend(fibers[i - 1])

    # final section consistency
    if trace.final != tuple(rec.witness for rec in trace.steps):
        out.append("(final): recorded field does not match the witness tower")
    if trace.dim != len(trace.final):
        out.append(f"(final): recorded dim {trace.dim} is not the number of witnesses, "
                   f"{len(trace.final)}")
    return out


# ---------------------------------------------------------------------------
# Counterexample audit
# ---------------------------------------------------------------------------

def counterexample_audit(trace: ConstructionTrace, k: int) -> dict:
    """Killed-sign report for each polynomial whose stream was assigned during
    the run, in first-use order, against the final field.

    For each: the killed levels over the final field, the implied index lower
    bound, and the dimension of the intersection of the final field with the
    span of the polynomial's disc classes (the finite proxy for a nontrivial
    intersection with every discriminant subextension).
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    F = trace.final_subspace()
    by_poly: dict[RatPoly, list[StepRecord]] = {}  # in first-use order
    for rec in trace.steps:
        by_poly.setdefault(rec.vast_poly, []).append(rec)
    entries = []
    for f, assigned in by_poly.items():
        depth_needed = max(rec.vast_n + rec.depth_checked - 1 for rec in assigned)
        K = max(k, depth_needed)
        killed = killed_signs(f, F, K)
        disc_span = ClassSubspace.span(disc_class(f, m) for m in range(1, K + 1))
        entries.append(
            {
                "poly": str(f),
                "steps": [rec.m for rec in assigned],
                "disc_depth": K,
                "killed": sorted(killed),
                "index_lower_bound": 2 ** len(killed),
                "intersection_dim": intersection_dim(F, disc_span),
            }
        )
    return {"level": k, "final_dim": len(trace.final), "polynomials": entries}
