"""Batch command-line surface; every pipeline, JSON out.

Exit codes, decided in `main` alone from what a command returns or raises:
0 success and 1 a semantic finding (a violation or a refutation; any
`arboreal.Inseparable` becomes the finding {"inseparable": n}), each with its
JSON payload on stdout; 2 bad input, an `InputError`, such as an integer
option outside the bound its COMMANDS entry gives; 3 a resource bound hit on
well-formed input, any `primes.ResourceBound`: no good primes within
`--primes`, an exhausted stream depth, an aborted construction, a kernel that
factoring cannot split within its budget, or one of this module's caps (an
iterate past MAX_ITERATE_DEGREE, a group order past MAX_ORDER_DIGITS, an
arity past MAX_ARITY, a trace past the int -> str digit limit).  Codes 2 and
3 print one line `error: ...` to stderr and nothing to stdout.  A usage error
(unknown command or option, missing or malformed value) raises SystemExit(2)
from `main` after printing the usage line to stderr; -h prints help to stdout
and raises SystemExit(0).

`vast-witness --stream` names a stream as `primes` or `disc:<poly>:<n>`, the
discriminant classes of the iterates of <poly> from level n on.  `_parse_stream`
is the one reader of that grammar, and `exactpoly.parse_integer` of every
integer in an option, a --base item or n; any other text exits 2.

Every payload, and `simulate`'s trace file, is written by `_dumps`, which
writes byte for byte what the `json` module's `dumps` writes with indent=2;
a str that is not plain printable ASCII goes through json's own C escaper,
`_json.encode_basestring_ascii`.  A trace is read by `_loads`, json's own C
scanner `_json.make_scanner` with the settings of `json.loads`, and a text
the scanner refuses is handed to `json.loads` for its error.  So on valid
input no command imports `json`, whose decoder and encoder compile regular
expressions at import, and only `verify` and `audit` load `_json`.
`construct` is imported only by the commands that run or read a
construction (`simulate`, `verify`, `audit`), so that it costs the start-up
of no other command.

`main` is the in-process API.  A process enters through `entry`, which runs
`main`, flushes stdout and stderr and ends the process with `os._exit`, so
that the interpreter's shutdown (finalization, module teardown, `atexit`
handlers) is skipped.  When the reader of stdout goes away, the process
still exits with the command's code and prints nothing to stderr.
"""
from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from . import __version__
from .arboreal import (
    MAX_POINT_HEIGHT,
    MAX_STREAM_LEVEL,
    Inseparable,
    disc_class_sequence,
    disc_stream,
    discriminant_subextension,
    index_report,
)
from .exactpoly import ParseError, RatPoly, parse_integer
from .primes import InputError, ResourceBound
from .sqclass import ClassStream, ClassSubspace, kernel, primes_stream, vast_witness

OK, FINDING, INPUT_ERROR, RESOURCE = 0, 1, 2, 3
# The interpreter's default limit on the digits of an int it converts to text.
MAX_ORDER_DIGITS = 4300
# group-order lists every prime <= arity in the ambient order (1229 primes at
# this cap); at depth >= 1 the order itself passes MAX_ORDER_DIGITS from arity 1559.
MAX_ARITY = 10_000
# index-report composes the level-k iterate, of degree d^k, and scans it mod
# each prime; at degree 2^10 that already takes seconds per prime.
MAX_ITERATE_DEGREE = 512


def _write(text: str) -> None:
    """Write `text` to stdout; a reader that went away is ignored."""
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        pass


def _quote(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from _json import encode_basestring_ascii  # json.dumps's own escaper

    return encode_basestring_ascii(text)


def _dumps(value, newline: str = "\n") -> str:
    """`value` as the `json` module's `dumps(value, indent=2)` writes it, for
    the values the CLI emits: dicts with str keys, lists, tuples, str, int,
    bool and None; any other type raises TypeError.  `newline` is the line
    break and indent that precede `value`'s closing bracket.  An int past the
    int -> str digit limit raises ValueError, as it does in `json`."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_dumps(v, inner) for v in value) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + _dumps(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# What `json` skips around a value.
_SPACE = " \t\n\r"


def _loads(text: str):
    """The value that the `json` module's `loads` reads from the str `text`,
    read by json's own C scanner with the settings `loads` gives it; deep
    nesting raises RecursionError.  A text that the scanner refuses is read
    by `json.loads`, which raises json's own ValueError, so that only such a
    text imports `json`."""
    from _json import make_scanner

    scan = make_scanner(SimpleNamespace(
        strict=True, object_hook=None, object_pairs_hook=None, parse_float=float,
        parse_int=int, parse_constant={"NaN": math.nan, "Infinity": math.inf,
                                       "-Infinity": -math.inf}.__getitem__))
    body = text.strip(_SPACE)
    try:
        value, end = scan(body, 0)
        if end == len(body):
            return value
    except (StopIteration, ValueError, SystemError):
        # StopIteration is "Expecting value".  On Python 3.10 and 3.11 the
        # scanner words a refusal only if json.decoder is loaded, and raises
        # SystemError if it is not.
        pass
    import json

    return json.loads(text)


def _parse_base(text: str | None) -> ClassSubspace:
    try:
        kernels = [parse_integer(t) for t in text.split(",")] if text else []
        return ClassSubspace.from_kernels(kernels)
    except ValueError as exc:
        raise InputError(f"bad base subspace {text!r}: {exc}") from exc


def _parse_poly(text: str) -> RatPoly:
    """The polynomial `text` names, of degree >= 2."""
    try:
        f = RatPoly.parse(text)
    except ParseError as exc:
        raise InputError(f"bad polynomial {text!r}: {exc}") from exc
    if f.degree < 2:
        raise InputError("need a polynomial of degree >= 2")
    return f


def _cmd_disc_seq(args) -> tuple[int, dict]:
    f = _parse_poly(args.poly)
    base = _parse_base(args.base)
    # the kernels first: a kernel past factoring's budget exits 3 before the span
    kernels = [kernel(c) for c in disc_class_sequence(f, args.levels)]
    subspace = discriminant_subextension(f, base, 1, args.levels)
    return OK, {"classes": kernels, "subspace": subspace.kernels()}


def _cmd_index_report(args) -> tuple[int, dict]:
    f = _parse_poly(args.poly)
    base = _parse_base(args.base)
    # d^k is past the cap from k = 10 on, as d >= 2
    if f.degree ** min(args.level, 10) > MAX_ITERATE_DEGREE:
        raise ResourceBound(f"the level-{args.level} iterate has degree {f.degree}^{args.level}, "
                            f"above {MAX_ITERATE_DEGREE}")
    report = index_report(f, base, args.level, args.n, args.primes)
    code = FINDING if report["verdict"].startswith(("REFUTES", "INSEPARABLE")) else OK
    return code, report


def _cmd_simulate(args) -> tuple[int, dict]:
    from . import construct

    if not args.out:
        raise InputError("cannot write trace: --out is empty")
    if os.path.exists(args.out) and not os.path.isfile(args.out):
        raise InputError(f"cannot write trace: {args.out!r} is not a regular file")
    # The trace goes to a sibling file, created before the run so that a path
    # that cannot be written fails at once, and renamed onto --out once it is
    # complete, so that no failure leaves a truncated trace.  An aborted run
    # writes its partial trace before the abort is raised on.
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        open(tmp, "x").close()
    except OSError as exc:
        raise InputError(f"cannot write trace: {exc}") from exc
    try:
        try:
            trace, aborted = construct.run(args.steps, args.depth, args.height), None
        except construct.ConstructionAborted as exc:
            trace, aborted = exc.trace, exc
        try:
            text = _dumps(trace.to_json()) + "\n"
        except ValueError as exc:  # an integer past the int -> str digit limit
            raise ResourceBound(f"cannot serialize trace: {exc}") from exc
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
        raise aborted
    return OK, {
        "steps": len(trace.steps),
        "dim": len(trace.steps),
        "retries": len(trace.retries),
        "out": args.out,
    }


def _load_trace(path: str):
    """The construction trace in the file `path`."""
    from . import construct

    try:
        with open(path) as fh:
            data = _loads(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read trace: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past the digit limit
        raise InputError(f"trace is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the decoder's depth
        raise InputError(f"trace is nested too deeply: {exc}") from exc
    return construct.ConstructionTrace.from_json(data)


def _cmd_verify(args) -> tuple[int, dict]:
    from . import construct

    trace = _load_trace(args.trace)
    violations = construct.verify_trace(trace)
    return (OK if not violations else FINDING), {"violations": violations}


def _cmd_audit(args) -> tuple[int, dict]:
    from . import construct

    trace = _load_trace(args.trace)
    return OK, construct.counterexample_audit(trace, args.level)


def _parse_stream(text: str, depth: int) -> ClassStream:
    """The stream `text` names: "primes", or "disc:<poly>:<n>", the
    discriminant classes of the iterates of <poly> from level n on, with n
    read by parse_integer.  Its first `depth` elements end at level
    n + depth - 1, which must be at most MAX_STREAM_LEVEL."""
    if text == "primes":
        return primes_stream()
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "disc":
        raise InputError(f"bad stream {text!r}: not primes or disc:<poly>:<n>")
    try:
        n = parse_integer(parts[2])
    except ValueError as exc:
        raise InputError(f"bad stream {text!r}: {exc}") from exc
    f = _parse_poly(parts[1])
    if n < 1:
        raise InputError(f"bad stream {text!r}: the start level n must be >= 1")
    if n + depth - 1 > MAX_STREAM_LEVEL:
        raise InputError(f"stream levels past {MAX_STREAM_LEVEL}: "
                         f"start level + --depth - 1 must be <= {MAX_STREAM_LEVEL}")
    return disc_stream(f, n)


def _cmd_vast_witness(args) -> tuple[int, dict]:
    stream = _parse_stream(args.stream, args.depth)
    base = _parse_base(args.base)
    w = vast_witness(stream, base, args.depth)
    return OK, {"stream": args.stream, "depth": args.depth, "witness": kernel(w)}


def _order_too_long(d: int, k: int) -> bool:
    """Whether |Aut T_k(d)| = d!^e, e = (d^k - 1)/(d - 1), has more than
    MAX_ORDER_DIGITS digits; the power is computed only near that limit."""
    e = 0
    for _ in range(k):
        e = e * d + 1
        if e > 4 * MAX_ORDER_DIGITS:  # d! >= 2 > 10^(1/4)
            return True
    digits = e * math.lgamma(d + 1) / math.log(10)  # log10 of the order
    if abs(digits - MAX_ORDER_DIGITS) > 1:
        return digits > MAX_ORDER_DIGITS
    return math.factorial(d) ** e >= 10**MAX_ORDER_DIGITS


def _cmd_group_order(args) -> tuple[int, dict]:
    if args.arity > MAX_ARITY:
        raise ResourceBound(f"--arity above {MAX_ARITY}: the ambient order lists every "
                            f"prime up to it")
    if _order_too_long(args.arity, args.depth):
        raise ResourceBound(f"|Aut T_{args.depth}({args.arity})| has more than "
                            f"{MAX_ORDER_DIGITS} digits")
    # deferred: of all commands only this one and index-report load treegroup,
    # and only this one loads supernat
    from .supernat import aut_order_supernatural
    from .treegroup import group_order

    return OK, {
        "arity": args.arity,
        "depth": args.depth,
        "order": group_order(args.arity, args.depth),
        "ambient_supernatural": aut_order_supernatural(args.arity),
    }


REQUIRED = object()
TEXT = None  # the bound of an option whose value is text
POSITIVE = (1, math.inf)
LEVELS = (1, MAX_STREAM_LEVEL)  # a stream or a trace is read at most to this level

# Subcommand -> (handler, help, {option: (default, bound)}).  An option whose
# default is REQUIRED must be given.  An integer option's bound is the range
# (low, high) its value must lie in, which `main` checks with exit code 2.
# Every option takes one value.
COMMANDS = {
    "disc-seq": (_cmd_disc_seq, "discriminant class sequence of iterates", {
        "poly": (REQUIRED, TEXT), "levels": (REQUIRED, LEVELS), "base": ("", TEXT)}),
    "index-report": (_cmd_index_report, "finite-level index certificate", {
        "poly": (REQUIRED, TEXT), "base": ("", TEXT), "level": (REQUIRED, POSITIVE),
        "n": (REQUIRED, POSITIVE), "primes": (50, POSITIVE)}),
    "simulate": (_cmd_simulate, "run the inductive construction", {
        "steps": (REQUIRED, POSITIVE), "depth": (5, LEVELS),
        "height": (1000, (1, MAX_POINT_HEIGHT)), "out": (REQUIRED, TEXT)}),
    "verify": (_cmd_verify, "re-check a construction trace", {
        "trace": (REQUIRED, TEXT)}),
    "audit": (_cmd_audit, "killed-sign audit of a trace", {
        "trace": (REQUIRED, TEXT), "level": (REQUIRED, LEVELS)}),
    "vast-witness": (_cmd_vast_witness, "first stream class outside a span", {
        "stream": (REQUIRED, TEXT), "base": ("", TEXT), "depth": (REQUIRED, POSITIVE)}),
    "group-order": (_cmd_group_order, "order of the depth-k tree automorphism group", {
        "arity": (REQUIRED, (2, math.inf)), "depth": (REQUIRED, (0, math.inf))}),
}


def _range(bound: tuple[int, float]) -> str:
    low, high = bound
    return f">= {low}" if high == math.inf else f"in {low}..{high}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: arborsign [-h] [--meta] COMMAND [OPTION VALUE]..."
    words = [f"--{name} {name.upper()}" if default is REQUIRED else f"[--{name} {name.upper()}]"
             for name, (default, _) in COMMANDS[command][2].items()]
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
        for name, (default, bound) in options.items():
            kind = "text" if bound is TEXT else f"integer {_range(bound)}"
            note = "required" if default is REQUIRED else f"default {default!r}"
            lines.append(f"  {flags[name]:{width}}{kind}, {note}")
        lines += ["", "An option is given as --name VALUE or --name=VALUE; any unique prefix "
                  "of its name will do."]
    _write("\n".join(lines) + "\n")
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
        try:
            values[name] = text if options[name][1] is TEXT else parse_integer(text)
        except ValueError:
            _fail(command, f"option --{name}: not an integer: {text!r}")
        i += 1
    missing = [f"--{name}" for name, (default, _) in options.items()
               if default is REQUIRED and name not in values]
    if missing:
        _fail(command, "missing required option " + ", ".join(missing))
    defaults = {name: default for name, (default, _) in options.items()}
    return SimpleNamespace(meta=meta, command=command, **{**defaults, **values})


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        for name, (_, bound) in COMMANDS[args.command][2].items():
            if bound is not TEXT and not bound[0] <= getattr(args, name) <= bound[1]:
                raise InputError(f"--{name} must be {_range(bound)}")
        code, payload = COMMANDS[args.command][0](args)
    except Inseparable as exc:
        code, payload = FINDING, {"inseparable": exc.level}
    except (InputError, ResourceBound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR if isinstance(exc, InputError) else RESOURCE
    if args.meta:
        payload = {**payload, "meta": {"tool": "arborsign", "version": __version__}}
    _write(_dumps(payload) + "\n")
    return code


def entry() -> None:
    """Run `main` on the process's arguments, flush stdout and stderr and end
    the process with main's code through `os._exit`.

    `os._exit` skips the interpreter's shutdown: no finalizers, no module
    teardown and no `atexit` handlers, also none that an importer of this
    module registered.  Nothing of the CLI needs them once its output is
    flushed.  A flush that finds the reader gone is ignored.  Under a tracer
    or profiler (`sys.gettrace()` or `sys.getprofile()` set: cProfile,
    coverage, a debugger) the process exits through `sys.exit` instead, so
    that their exit-time output is still written.  In-process callers use
    `main`, which returns the code."""
    try:
        code = main()
    except SystemExit as exc:  # -h, or a usage error
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            pass
    if sys.gettrace() or sys.getprofile():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
