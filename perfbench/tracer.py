"""Traced launcher: run one ``arborsign`` CLI invocation with spans recorded.

Usage::

    python perfbench/tracer.py --out spans.json --op 7 -- simulate --steps 9 ...

The arguments after ``--`` are handed to ``arborsign.cli.main`` unchanged.
Before the call, the public functions of each module listed in ``WRAPPED``
are replaced by timing wrappers, in their home module and in every
``arborsign`` module that imported them by name (``from .sqclass import
class_of`` binds a second reference that must be rebound too).  Calls to
``sympy.factorint`` made through the ``sympy`` module object, which is how the
program calls it, are wrapped as well and record the bit size of their
argument.

Each call becomes a span ``[op, id, parent, name, start, end, error]``.
Spans stay in memory and are written at exit to ``--out`` together with the
import time of ``arborsign.cli`` and the ``cache_info()`` of the program's
two unbounded caches.  The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import types

# module -> public names to wrap; "Class.method" wraps a method in place.
# None means every public function of the module and every public method of
# its public classes, counting construction, products and rendering.
WRAPPED: dict[str, list[str] | None] = {
    "arborsign.exactpoly": [
        "discriminant",
        "iterate",
        "factor_degrees_mod_p",
        "squarefree_kernel_support",
    ],
    "arborsign.sqclass": [
        "class_of",
        "intersection_dim",
        "disjoint_over",
        "vast_witness",
        "cover_fiber_integral",
        "ClassSubspace.extend",
        "ClassSubspace.member",
        "ClassSubspace.contains",
        "ClassSubspace.compositum",
    ],
    "arborsign.arboreal": [
        "disc_class",
        "disc_class_sequence",
        "discriminant_subextension",
        "killed_signs",
        "splitting_degree_lower_bound",
        "index_report",
    ],
    "arborsign.construct": ["run", "step", "verify_trace", "counterexample_audit"],
    "arborsign.treegroup": None,
    "arborsign.supernat": None,
    "arborsign.cli": ["main"],
}


class Recorder:
    """Span stack and span list of one process."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.factor_bits: list[int] = []

    def wrap(self, name: str, fn, bits_of_arg: bool = False):
        spans, stack, op = self.spans, self.stack, self.op
        clock = time.perf_counter
        factor_bits = self.factor_bits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [op, sid, stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(rec)
            if bits_of_arg:
                factor_bits.append(int(args[0]).bit_length())
            stack.append(sid)
            rec[4] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[5] = clock()
                stack.pop()

        return wrapper


_DUNDERS = {"__init__", "__mul__", "__str__"}


def _public_targets(mod: types.ModuleType, names: list[str] | None):
    """Yield (owner, attribute, qualified name, raw attribute) to wrap."""
    if names is None:
        names = []
        for attr, val in vars(mod).items():
            if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if isinstance(val, types.FunctionType):
                names.append(attr)
            elif isinstance(val, type):
                for m, mv in vars(val).items():
                    if (not m.startswith("_") or m in _DUNDERS) and isinstance(
                        mv, (types.FunctionType, classmethod, staticmethod)
                    ):
                        names.append(f"{attr}.{m}")
    short = mod.__name__.split(".")[-1]
    for name in names:
        if "." in name:
            cls_name, attr = name.split(".")
            owner = getattr(mod, cls_name)
        else:
            owner, attr = mod, name
        yield owner, attr, f"{short}.{name}", vars(owner)[attr]


def install(rec: Recorder) -> None:
    """Replace every function named in WRAPPED, and its imported aliases."""
    import sympy

    replaced: dict[int, object] = {}
    for mod_name, names in WRAPPED.items():
        mod = importlib.import_module(mod_name)
        for owner, attr, qual, raw in _public_targets(mod, names):
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(rec.wrap(qual, raw.__func__))
            else:
                new = rec.wrap(qual, raw)
                replaced[id(raw)] = new
            setattr(owner, attr, new)
    # rebind names that consumer modules imported with "from .x import y"
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("arborsign"):
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced:
                    setattr(mod, attr, replaced[id(val)])
    sympy.factorint = rec.wrap("sympy.factorint", sympy.factorint, bits_of_arg=True)


def main(args: list[str]) -> int:
    # Parsed by hand, and json imported late: the CLI imports argparse and
    # json itself, so loading them first would hide their cost from import_s.
    if len(args) < 5 or args[0] != "--out" or args[2] != "--op" or args[4] != "--":
        print("usage: tracer.py --out FILE --op N -- CLI-ARGS...", file=sys.stderr)
        return 2
    out, op, argv = args[1], int(args[3]), args[5:]

    t0 = time.perf_counter()
    import arborsign.cli
    import_s = time.perf_counter() - t0
    import json

    from arborsign import arboreal, exactpoly

    rec = Recorder(op)
    install(rec)
    code: object = 1
    try:
        code = arborsign.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad input with exit 2
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(
                {
                    "op": op,
                    "import_s": import_s,
                    "spans": rec.spans,
                    "factor_bits": rec.factor_bits,
                    "caches": {
                        "exactpoly._squarefree_part": exactpoly._squarefree_part.cache_info()._asdict(),
                        "arboreal._critical_orbit": arboreal._critical_orbit.cache_info()._asdict(),
                    },
                },
                fh,
            )
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
