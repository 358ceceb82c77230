"""Batch command-line surface; every pipeline, JSON out.

Exit codes: 0 success, 1 semantic finding (violation, refutation,
inseparability), 2 input error, 3 resource bound exceeded.  stdout carries
valid JSON exactly for codes 0 and 1; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

from . import __version__
from .arboreal import (
    Inseparable,
    NoGoodPrimes,
    disc_class_sequence,
    discriminant_subextension,
    index_report,
)
from .construct import (
    MAX_STREAM_LEVEL,
    ConstructionAborted,
    ConstructionTrace,
    TraceFormatError,
    assigned_polynomials,
    counterexample_audit,
    run,
    verify_trace,
)
from .exactpoly import ParseError, RatPoly
from .sqclass import ClassSubspace, DepthExhausted, stream_from_name, vast_witness
from .treegroup import aut_order_supernatural, group_order

OK, FINDING, INPUT_ERROR, RESOURCE = 0, 1, 2, 3
# The interpreter's default limit on the digits of an int it converts to text.
MAX_ORDER_DIGITS = 4300
# group-order lists every prime <= arity in the ambient order (1229 primes at
# this cap); at depth >= 1 the order itself passes MAX_ORDER_DIGITS from arity 1559.
MAX_ARITY = 10_000
# index-report composes the level-k iterate, of degree d^k, and scans it mod
# each prime; at degree 2^10 that already takes seconds per prime.
MAX_ITERATE_DEGREE = 512


class InputError(ValueError):
    pass


def _parse_base(text: str | None) -> ClassSubspace:
    if not text:
        return ClassSubspace()
    try:
        kernels = [int(t) for t in text.split(",") if t.strip()]
        return ClassSubspace.from_kernels(kernels)
    except ValueError as exc:
        raise InputError(f"bad base subspace {text!r}: {exc}") from exc


def _parse_poly(text: str) -> RatPoly:
    try:
        return RatPoly.parse(text)
    except ParseError as exc:
        raise InputError(f"bad polynomial {text!r}: {exc}") from exc


def _emit(payload: dict, meta: bool) -> None:
    if meta:
        payload = {**payload, "meta": {"tool": "arborsign", "version": __version__}}
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_disc_seq(args) -> tuple[int, dict]:
    f = _parse_poly(args.poly)
    if not 1 <= args.levels <= MAX_STREAM_LEVEL:
        raise InputError(f"--levels must be in 1..{MAX_STREAM_LEVEL}")
    if f.degree < 2:
        raise InputError("need a polynomial of degree >= 2")
    base = _parse_base(args.base)
    try:
        seq = disc_class_sequence(f, args.levels)
        subspace = discriminant_subextension(f, base, 1, args.levels)
    except Inseparable as exc:
        return FINDING, {"inseparable": exc.level}
    return OK, {"classes": seq.kernels(), "subspace": subspace.kernels()}


def _cmd_index_report(args) -> tuple[int, dict]:
    f = _parse_poly(args.poly)
    if args.level < 1:
        raise InputError("--level must be >= 1")
    if args.n < 1:
        raise InputError("--n must be >= 1")
    if args.primes < 1:
        raise InputError("--primes must be >= 1")
    if f.degree < 2:
        raise InputError("need a polynomial of degree >= 2")
    base = _parse_base(args.base)
    degree = 1
    for _ in range(args.level):  # stops within 10 rounds, as f.degree >= 2
        degree *= f.degree
        if degree > MAX_ITERATE_DEGREE:
            print(f"error: the level-{args.level} iterate has degree {f.degree}^{args.level}, "
                  f"above {MAX_ITERATE_DEGREE}", file=sys.stderr)
            return RESOURCE, {}
    cert = index_report(f, base, args.level, args.n, args.primes)
    code = FINDING if cert.verdict.startswith("REFUTES") else OK
    return code, cert.to_json()


def _cmd_simulate(args) -> tuple[int, dict]:
    if args.steps < 1:
        raise InputError("--steps must be >= 1")
    if not 1 <= args.depth <= MAX_STREAM_LEVEL:
        # the first stream alone would be read past the level a trace may name
        raise InputError(f"--depth must be in 1..{MAX_STREAM_LEVEL}")
    if args.height < 1:
        raise InputError("--height must be >= 1")
    try:
        trace = run(args.steps, args.depth, args.height)
    except ConstructionAborted as exc:
        _write_trace(exc.trace, args.out)
        print(f"aborted: {exc.cause}", file=sys.stderr)
        return RESOURCE, {
            "completed_steps": len(exc.trace.steps),
            "error": str(exc.cause),
            "out": args.out,
        }
    _write_trace(trace, args.out)
    return OK, {
        "steps": len(trace.steps),
        "dim": trace.dim,
        "retries": len(trace.retries),
        "out": args.out,
    }


def _write_trace(trace: ConstructionTrace, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(trace.to_json(), fh, indent=2)
        fh.write("\n")


def _load_trace(path: str) -> ConstructionTrace:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read trace: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past the digit limit
        raise InputError(f"trace is not valid JSON: {exc}") from exc
    try:
        return ConstructionTrace.from_json(data)
    except TraceFormatError as exc:
        raise InputError(str(exc)) from exc


def _cmd_verify(args) -> tuple[int, dict]:
    trace = _load_trace(args.trace)
    violations = verify_trace(trace)
    return (OK if not violations else FINDING), {"violations": violations}


def _cmd_audit(args) -> tuple[int, dict]:
    if not 1 <= args.level <= MAX_STREAM_LEVEL:
        raise InputError(f"--level must be in 1..{MAX_STREAM_LEVEL}")
    trace = _load_trace(args.trace)
    try:
        report = counterexample_audit(trace, assigned_polynomials(trace), args.level)
    except Inseparable as exc:
        return FINDING, {"inseparable": exc.level}
    return OK, report


def _cmd_vast_witness(args) -> tuple[int, dict]:
    if args.depth < 1:
        raise InputError("--depth must be >= 1")
    try:
        stream = stream_from_name(args.stream)
    except (ValueError, ParseError) as exc:
        raise InputError(f"bad stream {args.stream!r}: {exc}") from exc
    if stream.name.startswith("disc:"):
        # disc_stream names itself disc:<poly>:<n> and reads levels n..n+depth-1
        if int(stream.name.rsplit(":", 1)[1]) + args.depth - 1 > MAX_STREAM_LEVEL:
            raise InputError(f"stream levels past {MAX_STREAM_LEVEL}: "
                             f"start level + --depth - 1 must be <= {MAX_STREAM_LEVEL}")
    base = _parse_base(args.base)
    try:
        w = vast_witness(stream, base, args.depth)
    except DepthExhausted as exc:
        print(str(exc), file=sys.stderr)
        return RESOURCE, {}
    except Inseparable as exc:
        return FINDING, {"inseparable": exc.level}
    return OK, {"stream": args.stream, "depth": args.depth, "witness": w.kernel}


def _order_too_long(d: int, k: int) -> bool:
    """Whether |Aut T_k(d)| = d!^e, e = (d^k - 1)/(d - 1), has more than
    MAX_ORDER_DIGITS digits; the power is computed only near that limit."""
    e = 0
    for _ in range(k):
        e = e * d + 1
        if e > 4 * MAX_ORDER_DIGITS:  # d! >= 2 > 10^(1/4)
            return True
    if e == 0:
        return False
    if d >= MAX_ORDER_DIGITS + 9:  # d! >= 10^(d-9): its factors 10..d are each >= 10
        return True
    digits = e * math.lgamma(d + 1) / math.log(10)  # log10 of the order
    if abs(digits - MAX_ORDER_DIGITS) > 1:
        return digits > MAX_ORDER_DIGITS
    return math.factorial(d) ** e >= 10**MAX_ORDER_DIGITS


def _cmd_group_order(args) -> tuple[int, dict]:
    if args.arity < 2:
        raise InputError("--arity must be >= 2")
    if args.depth < 0:
        raise InputError("--depth must be >= 0")
    if args.arity > MAX_ARITY:
        print(f"error: --arity above {MAX_ARITY}: the ambient order lists every "
              f"prime up to it", file=sys.stderr)
        return RESOURCE, {}
    if _order_too_long(args.arity, args.depth):
        print(f"error: |Aut T_{args.depth}({args.arity})| has more than "
              f"{MAX_ORDER_DIGITS} digits", file=sys.stderr)
        return RESOURCE, {}
    return OK, {
        "arity": args.arity,
        "depth": args.depth,
        "order": group_order(args.arity, args.depth),
        "ambient_supernatural": str(aut_order_supernatural(args.arity)),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arborsign",
        description="Exact sign data of arboreal Galois truncations, square-class "
        "towers, and the inductive construction simulator.",
    )
    parser.add_argument("--meta", action="store_true", help="include tool metadata in the payload")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc-seq", help="discriminant class sequence of iterates")
    p.add_argument("--poly", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--base", default="")
    p.set_defaults(handler=_cmd_disc_seq)

    p = sub.add_parser("index-report", help="finite-level index certificate")
    p.add_argument("--poly", required=True)
    p.add_argument("--base", default="")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--primes", type=int, default=50)
    p.set_defaults(handler=_cmd_index_report)

    p = sub.add_parser("simulate", help="run the inductive construction")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--height", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="re-check a construction trace")
    p.add_argument("--trace", required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("audit", help="killed-sign audit of a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("vast-witness", help="first stream class outside a span")
    p.add_argument("--stream", required=True)
    p.add_argument("--base", default="")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(handler=_cmd_vast_witness)

    p = sub.add_parser("group-order", help="order of the depth-k tree automorphism group")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(handler=_cmd_group_order)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except NoGoodPrimes as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE
    if code in (OK, FINDING):
        _emit(payload, args.meta)
    return code


if __name__ == "__main__":
    sys.exit(main())
