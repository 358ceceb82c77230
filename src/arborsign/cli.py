"""Batch command-line surface; every pipeline, JSON out.

Exit codes: 0 success, 1 semantic finding (violation, refutation,
inseparability), 2 input error, 3 resource bound exceeded.  stdout carries
valid JSON exactly for codes 0 and 1; diagnostics go to stderr.  A usage
error (unknown command or option, missing or malformed value) raises
SystemExit(2) from `main` after printing the usage line to stderr; -h prints
help to stdout and raises SystemExit(0).
"""
from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

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
    if os.path.isdir(args.out):
        raise InputError(f"cannot write trace: {args.out!r} is a directory")
    # The trace goes to a sibling file, created before the run so that a path
    # that cannot be written fails at once, and renamed onto --out once it is
    # complete, so that no failure leaves a truncated trace.
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        open(tmp, "x").close()
    except OSError as exc:
        raise InputError(f"cannot write trace: {exc}") from exc
    try:
        try:
            trace, aborted = run(args.steps, args.depth, args.height), None
        except ConstructionAborted as exc:
            trace, aborted = exc.trace, exc.cause
        try:
            text = json.dumps(trace.to_json(), indent=2) + "\n"
        except ValueError as exc:  # an integer past the int -> str digit limit
            print(f"error: cannot serialize trace: {exc}", file=sys.stderr)
            return RESOURCE, {}
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, args.out)
        except OSError as exc:
            raise InputError(f"cannot write trace: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if aborted is not None:
        print(f"aborted: {aborted}", file=sys.stderr)
        return RESOURCE, {}
    return OK, {
        "steps": len(trace.steps),
        "dim": trace.dim,
        "retries": len(trace.retries),
        "out": args.out,
    }


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


REQUIRED = object()

# Subcommand -> (handler, help, {option: (type, default)}); an option whose
# default is REQUIRED must be given.  Every option takes one value.
COMMANDS = {
    "disc-seq": (_cmd_disc_seq, "discriminant class sequence of iterates", {
        "poly": (str, REQUIRED), "levels": (int, REQUIRED), "base": (str, "")}),
    "index-report": (_cmd_index_report, "finite-level index certificate", {
        "poly": (str, REQUIRED), "base": (str, ""), "level": (int, REQUIRED),
        "n": (int, REQUIRED), "primes": (int, 50)}),
    "simulate": (_cmd_simulate, "run the inductive construction", {
        "steps": (int, REQUIRED), "depth": (int, 5), "height": (int, 1000),
        "out": (str, REQUIRED)}),
    "verify": (_cmd_verify, "re-check a construction trace", {
        "trace": (str, REQUIRED)}),
    "audit": (_cmd_audit, "killed-sign audit of a trace", {
        "trace": (str, REQUIRED), "level": (int, REQUIRED)}),
    "vast-witness": (_cmd_vast_witness, "first stream class outside a span", {
        "stream": (str, REQUIRED), "base": (str, ""), "depth": (int, REQUIRED)}),
    "group-order": (_cmd_group_order, "order of the depth-k tree automorphism group", {
        "arity": (int, REQUIRED), "depth": (int, REQUIRED)}),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: arborsign [-h] [--meta] COMMAND [OPTION VALUE]..."
    words = [f"--{name} {name.upper()}" if default is REQUIRED else f"[--{name} {name.upper()}]"
             for name, (_, default) in COMMANDS[command][2].items()]
    return " ".join(["usage: arborsign", command, "[-h]", *words])


def _print_help(command: str | None):
    """Print the help of the CLI or of one command to stdout, and exit 0."""
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Exact sign data of arboreal Galois truncations, square-class towers, "
                  "and the inductive construction simulator.", "", "commands:"]
        lines += [f"  {name:14s}{help_}" for name, (_, help_, _) in COMMANDS.items()]
        lines += ["", "options:", f"  {'-h, --help':14s}show this help and exit",
                  f"  {'--meta':14s}include tool metadata in the payload",
                  "", "Run 'arborsign COMMAND -h' for the options of a command."]
    else:
        options = COMMANDS[command][2]
        flags = {name: f"--{name} {name.upper()}" for name in options}
        width = max(len(flag) for flag in flags.values()) + 2
        lines += [COMMANDS[command][1], "", "options:",
                  f"  {'-h, --help':{width}}show this help and exit"]
        for name, (type_, default) in options.items():
            kind = "integer" if type_ is int else "text"
            note = "required" if default is REQUIRED else f"default {default!r}"
            lines.append(f"  {flags[name]:{width}}{kind}, {note}")
        lines += ["", "An option is given as --name VALUE or --name=VALUE; any unique prefix "
                  "of its name will do."]
    print("\n".join(lines))
    raise SystemExit(OK)


def _fail(command: str | None, message: str):
    """Print the usage line and `message` to stderr, and exit 2."""
    print(_usage(command), file=sys.stderr)
    print(f"arborsign{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(INPUT_ERROR)


def _match(command: str | None, word: str, names) -> str:
    """The option name that `word` (without its leading --) names exactly or
    as a unique prefix."""
    if word in names:
        return word
    hits = [name for name in names if word and name.startswith(word)]
    if len(hits) == 1:
        return hits[0]
    if hits:
        _fail(command, f"ambiguous option: --{word} could match "
                       + ", ".join(f"--{h}" for h in hits))
    _fail(command, f"unrecognized option: --{word}")


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read `[--meta] COMMAND [--option VALUE | --option=VALUE]...` against
    COMMANDS.  An option's value is the next argument unless that starts with
    "--"; a repeated option keeps its last value."""
    argv = list(argv)
    meta, i = False, 0
    while i < len(argv) and argv[i].startswith("-"):
        arg = argv[i]
        if arg == "-h":
            _print_help(None)
        if not arg.startswith("--"):
            _fail(None, f"unrecognized option: {arg}")
        word, eq, _ = arg[2:].partition("=")
        if _match(None, word, ["help", "meta"]) == "help":
            _print_help(None)
        if eq:
            _fail(None, "--meta takes no value")
        meta, i = True, i + 1
    if i == len(argv):
        _fail(None, "missing COMMAND; one of " + ", ".join(COMMANDS))
    command = argv[i]
    if command not in COMMANDS:
        _fail(None, f"unknown command {command!r}; choose from " + ", ".join(COMMANDS))
    options = COMMANDS[command][2]
    values = {}
    i += 1
    while i < len(argv):
        arg = argv[i]
        if arg == "-h":
            _print_help(command)
        if not arg.startswith("--"):
            _fail(command, f"unrecognized argument: {arg}")
        word, eq, text = arg[2:].partition("=")
        name = _match(command, word, [*options, "help"])
        if name == "help":
            _print_help(command)
        if not eq:
            i += 1
            if i == len(argv) or argv[i].startswith("--"):
                _fail(command, f"option --{name} expects a value")
            text = argv[i]
        type_ = options[name][0]
        try:
            values[name] = type_(text)
        except ValueError:
            _fail(command, f"option --{name}: not an integer: {text!r}")
        i += 1
    missing = [f"--{name}" for name, (_, default) in options.items()
               if default is REQUIRED and name not in values]
    if missing:
        _fail(command, "missing required option " + ", ".join(missing))
    defaults = {name: default for name, (_, default) in options.items()}
    return SimpleNamespace(meta=meta, command=command, **{**defaults, **values})


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code, payload = COMMANDS[args.command][0](args)
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
