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
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator
from itertools import count

from .arboreal import (
    MAX_POINT_HEIGHT,
    MAX_STREAM_LEVEL,
    disc_class,
    disc_stream,
    killed_signs,
)
from .exactpoly import RatPoly, parse_integer
from .primes import InputError, ResourceBound
from .sqclass import (
    ClassStream,
    ClassSubspace,
    DepthExhausted,
    disjoint_over,
    fiber_rep,
    fiber_test,
    intersection_dim,
    same_class,
    vast_witness,
)

SCHEMA_VERSION = 5


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
    s = (math.isqrt(8 * j0 + 1) - 1) // 2  # the largest s with s(s+1)/2 <= j0
    t = j0 - s * (s + 1) // 2
    return t, s - t


class VastSpec(namedtuple("VastSpec", "index f n")):
    """Entry of the vast list: the n-th discriminant-class stream of f, a
    stream over Q, at the 1-based position `index` in the list."""

    __slots__ = ()

    def stream(self) -> ClassStream:
        return disc_stream(self.f, self.n)

    def subspace(self, depth: int) -> ClassSubspace:
        if self.n + depth - 1 > MAX_STREAM_LEVEL:
            raise ResourceBound(f"entry {self.index}, levels {self.n}..{self.n + depth - 1} "
                                f"of {self.f}: past stream level {MAX_STREAM_LEVEL}")
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


def _vast_c(ci: int) -> int:
    """Parameter ci (0-based) of the vast list: c = 1, 2, 3, -3, 4, -4, ...,
    every integer but 0, -1 and -2, in the order 1, -1, 2, -2, ....

    Lemma: these are exactly the c whose x^2 + c has an infinite critical
    orbit 0, c, c^2 + c, ..., and no orbit value after 0 is 0.  The orbit is
    0, 0, ... at c = 0; 0, -1, 0, ... at c = -1; 0, -2, 2, 2, ... at c = -2.
    For c >= 1 it rises strictly, as v^2 + c > v.  For c <= -3 it reaches c,
    and |v| >= |c| >= 3 gives |v^2 + c| >= v^2 - |v| >= 2|v|, so |v| at least
    doubles from there on.  A finite orbit would give a stream of finitely
    many classes, a finite extension that cannot play the vast role.  And as
    disc(f^(on)) = 0 only if f^(om)(0) = 0 for some m <= n, every entry's
    iterates are separable: no vast stream raises arboreal.Inseparable.
    """
    if ci < 2:
        return ci + 1
    v = ci // 2 + 2
    return -v if ci % 2 else v


# The cover grid is fixed: each process keeps the covers read so far.
_COVERS: list[RatPoly] = []
_COVER_GRID = _cover_grid()


def cover_entry(j: int) -> RatPoly:
    """The cover polynomial h of entry j (1-based), the cover of step j.  Each
    grid polynomial recurs infinitely often via diagonal (grid, repetition)
    pairing."""
    if j < 1:
        raise ValueError("entries are 1-based")
    i = _unpair(j - 1)[0]
    while len(_COVERS) <= i:
        _COVERS.append(next(_COVER_GRID))
    return _COVERS[i]


def vast_entry(j: int) -> VastSpec:
    """Entry j (1-based) of the vast list: (x^2 + c, n) over a diagonal grid
    of the parameters c and the levels n."""
    if j < 1:
        raise ValueError("entries are 1-based")
    ci, u = _unpair(j - 1)
    return VastSpec(j, RatPoly((_vast_c(ci), 0, 1)), u + 1)


# A point, a rational t = num/den, is the pair (num, den) in lowest terms
# with den > 0, everywhere in this module.

def _height_key(num: int, den: int) -> tuple[int, int, int, bool]:
    """Position of the point (num, den) in the height order."""
    return max(abs(num), den), den, abs(num), num < 0


def _pairs_at_height(h: int) -> list[tuple[int, int]]:
    """The points (num, den) with max(|num|, den) = h, in order: the line
    |num| = h by den, then the line den = h by |num|, each from the one list
    of the residues below h coprime to it, the positive value first."""
    if h == 1:
        return [(0, 1), (1, 1), (-1, 1)]
    coprime = [r for r in range(1, h) if math.gcd(r, h) == 1]
    return ([p for d in coprime for p in ((h, d), (-h, d))]
            + [p for n in coprime for p in ((n, h), (-n, h))])


def rationals_by_height(
    max_height: int, after: tuple[int, int] | None = None
) -> Iterator[tuple[int, int]]:
    """Deterministic enumeration of the points of height max(|num|, den) at
    most max_height, by height, then denominator, then |num| with the
    positive value first.  With the point `after`, the enumeration resumes
    right after it."""
    h = 1
    if after is not None:
        key = _height_key(*after)
        h = key[0]
        if h <= max_height:
            yield from [p for p in _pairs_at_height(h) if _height_key(*p) > key]
        h += 1
    for h in range(h, max_height + 1):
        yield from _pairs_at_height(h)


# ---------------------------------------------------------------------------
# State, records, trace
# ---------------------------------------------------------------------------

class ConstructionState(namedtuple("ConstructionState", "F M steps depth")):
    """What the induction has built after len(steps) steps: the field F, of
    dimension len(steps), the StepRecord of each completed step, and the
    truncation depth.

    F only gains classes and the truncation depth never drops, so the state
    also carries what later steps reuse: M, the span of F and every recorded
    fiber class.  Every entry up to the last record's was selected or met an
    earlier F at this depth or a smaller one, and meets every later F, so the
    next selection scans from the entry after it.
    """

    __slots__ = ()


class StepRecord(namedtuple("StepRecord", "witness point entry depth_checked")):
    """One step of a trace; `witness` is an integer of the witness class and
    `entry` the number of its stream in the vast list.  Step i's cover is
    cover_entry(i), which no trace records."""

    __slots__ = ()

    def to_json(self) -> dict:
        spec = vast_entry(self.entry)
        return {
            "witness": self.witness,
            "point": "%d/%d" % self.point,
            "entry": self.entry,
            # vast.poly and vast.n restate the entry for perfbench's
            # gate.check_audit, which reads them (ROADMAP item 16)
            "vast": {
                "poly": str(spec.f),
                "n": spec.n,
                "depth_checked": self.depth_checked,
            },
        }

    @classmethod
    def from_json(cls, data: object, i: int) -> "StepRecord":
        """Read step i of a trace; raises InputError on malformed data.
        Besides each value's JSON type and each object's keys it checks that
        the witness is a nonzero nonsquare, that vast.poly and vast.n restate
        vast_entry(entry), and what the verifier needs to end: the point has
        height at most MAX_POINT_HEIGHT, the entry is one a run can select,
        1..L(L + 1)/2 for L = MAX_STREAM_LEVEL (see _select_vast), and its
        stream is read from level n to n + vast.depth_checked - 1 <= L.  No
        text is parsed but the point's."""
        at = f"step {i}: "
        data = _json_object(data, f"step {i}", "witness", "point", "entry", "vast")
        witness = _json(data.get("witness"), int, at + "witness")
        if witness == 0:
            raise InputError(at + "witness must be nonzero: zero has no square class")
        point = _point_parse(data.get("point"), at + "point")
        entry = _json(data.get("entry"), int, at + "entry")
        vast = _json_object(data.get("vast"), at + "vast", "poly", "n", "depth_checked")
        vast_poly = _json(vast.get("poly"), str, at + "vast.poly")
        vast_n = _json(vast.get("n"), int, at + "vast.n")
        depth_checked = _json(vast.get("depth_checked"), int, at + "vast.depth_checked")
        if same_class(witness, 1):
            raise InputError(f"step {i}: witness is a perfect square: its class is trivial")
        if _height_key(*point)[0] > MAX_POINT_HEIGHT:
            raise InputError(f"step {i}: point height exceeds {MAX_POINT_HEIGHT}")
        last = MAX_STREAM_LEVEL * (MAX_STREAM_LEVEL + 1) // 2
        if not 1 <= entry <= last:
            raise InputError(f"step {i}: entry must be in 1..{last}")
        spec = vast_entry(entry)
        if (vast_poly, vast_n) != (str(spec.f), spec.n):
            raise InputError(f"step {i}: vast.poly and vast.n must restate entry {entry}")
        deepest = MAX_STREAM_LEVEL - spec.n + 1
        if not 1 <= depth_checked <= deepest:
            raise InputError(f"step {i}: vast.depth_checked must be in 1..{deepest}")
        return cls(witness, point, entry, depth_checked)


class ConstructionTrace(namedtuple("ConstructionTrace", "steps params retries")):
    """A run's steps, parameters and retries.  The final field is the span of
    the steps' witnesses; the JSON form lists them again as final.F."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "params": dict(self.params),
            "steps": [s.to_json() for s in self.steps],
            "retries": [dict(r) for r in self.retries],
            # final.F restates the witnesses for perfbench's
            # gate.check_audit, which reads it (ROADMAP item 16)
            "final": {"F": [s.witness for s in self.steps]},
        }

    @classmethod
    def from_json(cls, data: object) -> "ConstructionTrace":
        """Parse a trace; raises InputError on a value of another JSON
        type or form than to_json writes, a key it does not write, a step
        that StepRecord.from_json refuses (read in step order), a final.F
        other than the witnesses in step order, or _check_depths' refusal."""
        data = _json(data, dict, "trace")
        schema = _json(data.get("schema"), int, "schema")
        if schema != SCHEMA_VERSION:
            raise InputError(f"unsupported schema {schema}")
        _json_object(data, "trace", "schema", "params", "steps", "retries", "final")
        steps = tuple(StepRecord.from_json(s, i)
                      for i, s in enumerate(_json(data.get("steps"), list, "steps"), start=1))
        F = _json(_json_object(data.get("final"), "final", "F").get("F"), list, "final.F")
        final = [_json(w, int, f"final.F[{j}]") for j, w in enumerate(F)]
        params = _json_counts(data.get("params"), "params", "steps", "depth")
        retries = tuple(_json_counts(r, f"retries[{j}]", "step", "depth")
                        for j, r in enumerate(_json(data.get("retries"), list, "retries")))
        if final != [s.witness for s in steps]:
            raise InputError("final.F does not list the steps' witnesses in step order")
        _check_depths(steps, params, retries)
        return cls(steps, params, retries)


def _check_depths(steps: tuple, params: dict, retries: tuple) -> None:
    """Refuse depths that run does not write.  It starts at params.depth and
    doubles it at each retry, which it records at the step it retries, and
    writes at most params.steps steps.  So retry k has depth params.depth *
    2^k, the retries' steps never decrease nor pass min(len(steps) + 1,
    params.steps), and step i is checked at params.depth * 2^r, r the
    number of retries at steps <= i."""
    d, n, at = params["depth"], len(steps), [r["step"] for r in retries]
    if (n > params["steps"] or at != sorted(at) or at and at[-1] > min(n + 1, params["steps"])
            or any(r["depth"] != d << k for k, r in enumerate(retries))):
        raise InputError("params and retries contradict each other or the steps")
    for i, s in enumerate(steps, start=1):
        if s.depth_checked != d << bisect_right(at, i):
            raise InputError(f"step {i}: vast.depth_checked contradicts params and retries")


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _json(value: object, kind: type, name: str):
    """`value` if its type is exactly `kind`: int, str, list or dict, as `json`
    reads an integer, a string, an array and an object, so no bool or float
    is an int, and a missing key, read as None, is of no kind.  Otherwise
    raises InputError("<name> must be an integer|a string|...")."""
    if type(value) is not kind:
        raise InputError(f"{name} must be {_KINDS[kind]}")
    return value


def _json_object(value: object, name: str, *keys: str) -> dict:
    """`value` if it is a JSON object with no key outside `keys`; a missing
    key reads as null, as from any object."""
    for key in _json(value, dict, name):
        if key not in keys:
            raise InputError(f"{name}: unknown key {key!r}")
    return value


def _json_counts(value: object, name: str, *keys: str) -> dict:
    """`value` if it is in the form to_json writes params and each retry in:
    a JSON object of `keys`, in that order, each a JSON integer >= 1."""
    if tuple(_json(value, dict, name)) != keys:
        raise InputError(f"{name} must be an object of {', '.join(keys)}, in that order")
    if min(_json(value[key], int, f"{name}.{key}") for key in keys) < 1:
        raise InputError(f"{name}: {', '.join(keys)} must be >= 1")
    return value


def _point_parse(value: object, name: str) -> tuple[int, int]:
    """The point (num, den) in lowest terms that the JSON string "num/den"
    names, the one form to_json writes ("4/2" reads as (2, 1)), num and den
    read by parse_integer.  Any other text, or a denominator <= 0, is
    malformed; `name` names the value in the refusal."""
    text = _json(value, str, name)
    try:
        num, den = map(parse_integer, text.split("/"))  # ValueError unless two parts
        if den <= 0:
            raise ValueError(text)
    except ValueError as exc:
        raise InputError(f"{name}: bad rational {text!r}") from exc
    g = math.gcd(num, den)
    return num // g, den // g


# ---------------------------------------------------------------------------
# The induction step
# ---------------------------------------------------------------------------

def _select_vast(F: ClassSubspace, last: int, depth: int) -> VastSpec:
    """First enumeration entry after `last` whose depth-truncated subspace is
    disjoint from F over Q.  The scan has no other bound than the stream
    bound: it raises the ResourceBound of the first entry that
    VastSpec.subspace reads past MAX_STREAM_LEVEL, at entry 301, (x^2 + 1,
    n = 25), at the latest; so the trace reader takes entries 1..300."""
    for j in count(last + 1):
        spec = vast_entry(j)
        if disjoint_over(F, spec.subspace(depth)):
            return spec


def step(state: ConstructionState, *, height: int) -> ConstructionState:
    """Execute one induction step; the new state's steps end with its record.

    Selects the stream playing the vast role for this step, the first
    eligible entry of the vast list after the previous step's, adjoins one
    new quadratic generator chosen outside the compositum of the current
    field with all recorded fiber classes, consumes the next cover entry,
    and picks the smallest fresh specialization point whose fiber stays
    integral; one sqclass.fiber_test classifier tests the candidates of
    that scan.  Choosing the generator outside that compositum is what keeps
    every earlier fiber integral over the enlarged field.  Raises
    DepthExhausted when the stream has no witness within the truncation
    depth, and ResourceBound at the stream bound or the height bound.
    """
    spec = _select_vast(state.F, state.steps[-1].entry if state.steps else 0, state.depth)
    w = vast_witness(spec.stream(), state.M, state.depth)
    integral_over = state.M.extend(w)
    h = cover_entry(len(state.steps) + 1)
    prior_points = {rec.point for rec in state.steps}
    # Spans only grow, so every rational the last step with this cover skipped
    # is still ineligible, and that step's point is now a prior point.
    after = None
    for k, rec in enumerate(state.steps, start=1):
        if cover_entry(k) == h:
            after = rec.point
    integral = fiber_test(h, integral_over)
    point = None
    for candidate in rationals_by_height(height, after):
        if candidate not in prior_points and integral(*candidate):
            point = candidate
            break
    if point is None:
        raise ResourceBound(f"no point of height <= {height}")
    record = StepRecord(
        witness=w,
        point=point,
        entry=spec.index,
        depth_checked=state.depth,
    )
    return ConstructionState(
        F=state.F.extend(w),
        M=integral_over.extend(fiber_rep(h, *point)),
        steps=state.steps + (record,),
        depth=state.depth,
    )


def run(N: int, depth: int, height: int) -> ConstructionTrace:
    """Run N steps from scratch over the fixed enumerations, deepening
    truncations on demand.

    DepthExhausted doubles the stream truncation depth, and each such retry
    is recorded.  The retries end on their own: past depth MAX_STREAM_LEVEL
    every entry's truncation reads past the stream bound, so from depth 1,
    5 or 24 a run retries at most 5, 3 or 1 times.  Any other ResourceBound
    (a stream past MAX_STREAM_LEVEL, the height bound) aborts at once,
    carrying the partial trace.  The height bound is a budget, not part of
    the trace: a completed run's steps do not depend on it.
    """
    if N < 1:
        raise ValueError("need at least one step")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 1 <= height <= MAX_POINT_HEIGHT:
        raise ValueError(f"height must be in 1..{MAX_POINT_HEIGHT}")
    params = {"steps": N, "depth": depth}
    state = ConstructionState(ClassSubspace(), ClassSubspace(), (), depth)
    retries: list[dict] = []
    while len(state.steps) < N:
        try:
            state = step(state, height=height)
        except DepthExhausted:
            retries.append({"step": len(state.steps) + 1, "depth": state.depth})
            state = state._replace(depth=state.depth * 2)
        except ResourceBound as exc:
            raise ConstructionAborted(ConstructionTrace(state.steps, params, tuple(retries)), exc)
    return ConstructionTrace(state.steps, params, tuple(retries))


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------

def verify_trace(trace: ConstructionTrace) -> list[str]:
    """Re-check every recorded step against the construction conditions.

    Returns a list of violation descriptions, each naming the first condition
    (1_m), (2_m), (4_m) or (5_m) it breaks; an empty list means the trace is
    valid.  (3_m), that step m's cover is cover entry m, holds by
    construction: no trace records a cover, and step m's is cover_entry(m).
    The checks re-derive every selection from the fixed enumerations, read
    through cover_entry and vast_entry, with the engine's stream bound;
    they read no params.  One pass over the steps carries the field F and
    M, F with every recorded fiber class, as the engine's state does.  Each
    step's (2_m) point scan is its own loop, with one sqclass.fiber_test
    classifier for the step's cover and span, as in the engine, and ends
    at the recorded point's height.
    No description prints a witness: a wrong one is located by the stream
    level of the class expected in its place.

    Persistence is not tested apart: it follows from (1_m), (2_m) and (5_m).
    Write F_i and M_i for F and M after step i.  (5_i) passes only if w_i is
    outside M_(i-1), so F_i is larger than F_(i-1).  (2_j) passes only if
    the scan meets the recorded point, which (1_j) asks to be fresh, and
    finds fiber j nonzero and outside M_(j-1) + w_j, which holds F_j.  Were
    fiber j in F_i but not in F_(i-1), for i > j, then w_i would lie in
    F_(i-1) + fiber j, inside M_(i-1), and (5_i) would fail.  So when they
    all pass, every fiber class stays outside every later field.
    """
    out: list[str] = []
    F = M = ClassSubspace()  # the field before step i, and F with every earlier fiber class
    first_at: dict[tuple[int, int], int] = {}  # point -> first step that recorded it
    passed: dict[RatPoly, tuple[int, int]] = {}  # cover -> point of its last passed scan
    for i, rec in enumerate(trace.steps, start=1):
        w, h = rec.witness, cover_entry(i)

        # (1_m) distinct points
        first = first_at.setdefault(rec.point, i)
        if first != i:
            out.append(f"(1_{i}): point repeats step {first}")

        # (4_m) vast entry is the first eligible entry after the previous
        # step's.  A run selects the first entry after its previous one that
        # is disjoint from F, and its depth never drops, so every entry up to
        # the previous step's meets the field at that step's depth or deeper
        # and the scan starts after it.
        prev = trace.steps[i - 2] if i > 1 else None
        last = prev.entry if prev else 0
        if rec.entry <= last:
            out.append(f"(4_{i}): stream entry {rec.entry} is not after entry {last}")
        elif prev and rec.depth_checked < prev.depth_checked:
            out.append(f"(4_{i}): depth_checked {rec.depth_checked} is below the previous "
                       f"step's {prev.depth_checked}")
        else:
            try:
                if not disjoint_over(F, vast_entry(rec.entry).subspace(rec.depth_checked)):
                    out.append(f"(4_{i}): recorded stream is not disjoint at depth "
                               f"{rec.depth_checked}")
                for j in range(last + 1, rec.entry):
                    if disjoint_over(F, vast_entry(j).subspace(rec.depth_checked)):
                        out.append(f"(4_{i}): entry {j} was eligible before entry {rec.entry}")
                        break
            except ResourceBound as exc:  # an entry read past MAX_STREAM_LEVEL
                out.append(f"(4_{i}): {exc}")

        # (5_m) witness is the first stream class outside the compositum
        try:
            spec = vast_entry(rec.entry)
            stream = spec.stream()
            expected = vast_witness(stream, M, rec.depth_checked)
            if not same_class(expected, w):
                level = spec.n + stream.prefix(rec.depth_checked).index(expected)
                out.append(f"(5_{i}): witness is not the first eligible stream class, "
                           f"the one at level {level} of the recorded stream")
        except DepthExhausted as exc:
            out.append(f"(5_{i}): no witness reachable in the recorded stream: {exc}")

        # (2_m) integrality: recorded point is the first eligible fresh point
        integral_over = M.extend(w)
        target = rec.point
        # A passed scan of an earlier step with this cover found every rational
        # before its point prior or ineligible, and both stay so as spans grow;
        # that point is prior now.  So the scan resumes after it, unless the
        # recorded point lies in that stretch.  It ends with the point's height,
        # so it meets the point unless the point is prior, which (1_m) reports.
        after = passed.get(h)
        if after is not None and _height_key(*target) <= _height_key(*after):
            after = None
        integral = fiber_test(h, integral_over)
        for candidate in rationals_by_height(_height_key(*target)[0], after):
            if first_at.get(candidate, i) < i:  # a prior point
                continue
            eligible = integral(*candidate)
            if candidate == target:
                if eligible:
                    passed[h] = target
                else:
                    out.append(f"(2_{i}): recorded point is not integral")
                break
            if eligible:
                out.append(f"(2_{i}): point %d/%d was eligible before %d/%d"
                           % (*candidate, *target))
                break

        F = F.extend(w)
        v = fiber_rep(h, *target)
        M = integral_over.extend(v) if v else integral_over
    return out


# ---------------------------------------------------------------------------
# Counterexample audit
# ---------------------------------------------------------------------------

def counterexample_audit(trace: ConstructionTrace, k: int) -> dict:
    """Killed-sign report for each polynomial whose stream was assigned during
    the run, in first-use order, against the final field, the span of the
    witnesses.

    For each: the killed levels over the final field, the implied index lower
    bound, and the dimension of the intersection of the final field with the
    span of the polynomial's disc classes (the finite proxy for a nontrivial
    intersection with every discriminant subextension).
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    F = ClassSubspace.span(rec.witness for rec in trace.steps)
    by_poly: dict[RatPoly, list[tuple[int, int]]] = {}  # in first-use order
    for i, rec in enumerate(trace.steps, start=1):
        spec = vast_entry(rec.entry)
        by_poly.setdefault(spec.f, []).append((i, spec.n + rec.depth_checked - 1))
    entries = []
    for f, assigned in by_poly.items():
        K = max(k, *(level for _, level in assigned))
        killed = killed_signs(f, F, K)
        disc_span = ClassSubspace.span(disc_class(f, m) for m in range(1, K + 1))
        entries.append(
            {
                "poly": str(f),
                "steps": [i for i, _ in assigned],
                "disc_depth": K,
                "killed": sorted(killed),
                "index_lower_bound": 2 ** len(killed),
                "intersection_dim": intersection_dim(F, disc_span),
            }
        )
    return {"level": k, "final_dim": F.dim, "polynomials": entries}
