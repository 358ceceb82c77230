#!/usr/bin/env python3
"""Cold-process benchmark of the arborsign command line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload tower9 --seed 1 --seconds 36 --trace 0

Every operation is one fresh ``python -m arborsign.cli`` process, started in
a fresh temporary directory that is also its HOME, TMPDIR and XDG_CACHE_HOME,
because that is how the CLI is used and because the program's unbounded
in-process caches make any warm second run meaningless.  The program is
imported from ``src/`` of the checkout and receives only the generated argv.
Operations run one at a time (a closed loop with one client) in whole units,
as many as take about ``--seconds`` on the reference machine:

* ``tower9``: ``simulate --steps 9 --depth 5 --height 1000``, then ``verify``
  of its trace, then ``audit --level 2``.  The enumerations are fixed, so the
  seed does not change the inputs.
* ``certify``: rounds of twelve queries (eight ``index-report``, two
  ``disc-seq``, one ``vast-witness``, one ``group-order``) whose polynomials,
  bases and index bounds are drawn from the seed.
* ``tower10``: the same pipeline at ``--steps 10``.  One pipeline takes about
  four minutes, which is too long for a repeated run; it is here to measure
  the full-size pipeline once.

The time metrics are walls scaled to a fixed reference speed: next to each
measured process ``spawn.py`` times a reference process that runs no code of
the program, and each wall is multiplied by the reference's nominal wall over
its measured one (``REF_NOMINAL_S``).  That removes the drift of a shared
host's speed, which otherwise moves the walls by tens of percent between
runs.  Every output goes through the correctness gate in ``gate.py``.  With
``--trace 1`` each unit runs once through ``tracer.py``, which records spans
around calls into each module, and once untraced; the per-layer metrics come
from the traced passes.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
WORK = WORK_ROOT  # this run's own directory under WORK_ROOT, set by main()
TRACER = HERE / "tracer.py"

SETUP_SAMPLES = 12  # at least; spread evenly over the units of a run
# Nominal wall of one unit (pipeline or round) on the reference machine.  A
# run measures round(--seconds / UNIT_S) units, a fixed amount of work, so
# the sample count and with it the tail percentile do not depend on how fast
# the machine happened to be.
UNIT_S = {"tower9": 3.0, "certify": 9.0, "tower10": 300.0}
TOWER_STEPS = {"tower9": 9, "tower10": 10}
# Per-operation wall-clock caps; an operation that overruns is killed and
# counted as failed.
TOWER_CAP_S = {"tower9": 60.0, "tower10": 400.0}
QUERY_CAP_S = 30.0
AUDIT_LEVEL = 2
# Wall of spawn.py's reference process on the reference machine at its usual
# speed.  The time metrics scale each wall by REF_NOMINAL_S / (the reference
# timed next to that process), which removes the drift of a shared host's
# speed; the reference runs no code of the program, so a change to the
# program moves the scaled times as it moves the walls.  A process's
# reference is the median of those timed before it and its REF_WINDOW
# neighbours on each side (a few seconds), which follows the drift but not
# the jitter of a single timing.
REF_NOMINAL_S = 0.11
REF_WINDOW = 2

END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exactpoly.factor.calls": "count",
    "exactpoly.factor.bits_max": "bits",
    "exactpoly.factor.bits_sum": "bits",
    "exactpoly.factor.self_s": "s",
    "exactpoly.squarefree.calls": "count",
    "exactpoly.squarefree.hit_ratio": "ratio",
    "exactpoly.discriminant.calls": "count",
    "exactpoly.discriminant.self_s": "s",
    "exactpoly.frobenius.calls": "count",
    "exactpoly.frobenius.self_s": "s",
    "exactpoly.iterate.self_s": "s",
    "sqclass.class_of.calls": "count",
    "sqclass.class_of.self_s": "s",
    "sqclass.span.calls": "count",
    "sqclass.span.self_s": "s",
    "sqclass.vast_witness.calls": "count",
    "arboreal.disc_class.calls": "count",
    "arboreal.disc_class.self_s": "s",
    "arboreal.disc_class.generic_ratio": "ratio",
    "arboreal.frobenius.primes": "count",
    "arboreal.frobenius.good_ratio": "ratio",
    "arboreal.orbit.hit_ratio": "ratio",
    "construct.step.calls": "count",
    "construct.step.self_s": "s",
    "construct.vast.tested": "count",
    "construct.vast.accept_ratio": "ratio",
    "construct.point.tested": "count",
    "construct.point.accept_ratio": "ratio",
    "construct.verify.self_s": "s",
    "construct.audit.self_s": "s",
    "construct.retries": "count",
    "treegroup.calls": "count",
    "treegroup.self_s": "s",
    "supernat.calls": "count",
    "supernat.self_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.simulate.wall_s": "s",
    "cli.verify.wall_s": "s",
    "cli.audit.wall_s": "s",
    "trace.overhead_s": "s",
}
SPAN_OPS = {
    "sqclass.ClassSubspace.extend",
    "sqclass.ClassSubspace.member",
    "sqclass.ClassSubspace.contains",
    "sqclass.ClassSubspace.compositum",
    "sqclass.intersection_dim",
    "sqclass.disjoint_over",
}


# ---------------------------------------------------------------------------
# Cold processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    files: dict[str, bytes]
    timed_out: bool
    ref_wall: float  # the reference process just before this one
    ref: float = 0.0  # set by smooth_refs()

    @property
    def norm(self) -> float:
        """The wall at the reference speed."""
        return self.wall * REF_NOMINAL_S / self.ref


@dataclass
class Op:
    kind: str
    argv: list[str]
    proc: Proc
    cause: str | None = None
    spans: dict | None = None
    retries: int = 0  # len(trace["retries"]) of a simulate


class Spawner:
    """The spawn.py process that starts, times and reaps measured processes."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env={"PATH": os.environ.get("PATH", "/usr/bin:/bin")})

    def run(self, argv: list[str], cwd: Path, env: dict[str, str], cap: float) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "env": env,
                                          "cap": cap}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return json.loads(reply)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()  # kills a child still running, then exits
        self.proc.wait()


SPAWNER: Spawner | None = None  # started by main()
TIMELINE: list[Proc] = []  # every process run_cold() ran, in order


def run_cold(argv: list[str], cap: float, inputs: dict[str, bytes] | None = None,
             keep: tuple[str, ...] = ()) -> Proc:
    """Run ``python argv`` in a fresh directory; time it from spawn to reap.

    ``inputs`` are written into the directory first; files named in ``keep``
    are read back after the process exits.  The directory is removed.
    """
    d = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for sub in ("tmp", "cache"):
            (d / sub).mkdir()
        for name, data in (inputs or {}).items():
            (d / name).write_bytes(data)
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": str(d),
            "TMPDIR": str(d / "tmp"),
            "XDG_CACHE_HOME": str(d / "cache"),
            "PYTHONPATH": str(SRC),
            "LC_ALL": "C.UTF-8",
        }
        r = SPAWNER.run([sys.executable, *argv], d, env, cap)
        files = {n: (d / n).read_bytes() for n in keep if (d / n).is_file()}
        proc = Proc(r["code"], r["wall"], r["maxrss_kb"] / 1024, (d / ".stdout").read_bytes(),
                    files, r["timed_out"], r["ref"])
        TIMELINE.append(proc)
        return proc
    finally:
        shutil.rmtree(d, ignore_errors=True)


def smooth_refs() -> None:
    """Set each process's reference from those around it (see REF_WINDOW)."""
    for i, proc in enumerate(TIMELINE):
        near = TIMELINE[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        proc.ref = statistics.median(p.ref_wall for p in near)


def run_cli(kind: str, args: list[str], cap: float, traced: bool, op_id: int,
            inputs: dict[str, bytes] | None = None, keep: tuple[str, ...] = ()) -> Op:
    if traced:
        argv = [str(TRACER), "--out", "spans.json", "--op", str(op_id), "--", *args]
        keep = (*keep, "spans.json")
    else:
        argv = ["-m", "arborsign.cli", *args]
    proc = run_cold(argv, cap, inputs, keep)
    op = Op(kind, args, proc)
    if proc.timed_out:
        op.cause = f"overran the per-operation cap of {cap:g} s"
    if traced and "spans.json" in proc.files:
        op.spans = json.loads(proc.files.pop("spans.json"))
    return op


def measure_setup(n: int, procs: list[Proc], causes: list[str]) -> None:
    """n fresh interpreters that only import arborsign.cli."""
    for _ in range(n):
        proc = run_cold(["-c", "import arborsign.cli"], QUERY_CAP_S)
        procs.append(proc)
        if proc.code != 0:
            causes.append(f"import arborsign.cli exited {proc.code}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Tower:
    """simulate -> verify -> audit, each a fresh process."""

    def __init__(self, name: str, seed: int):
        self.steps = TOWER_STEPS[name]
        self.cap = TOWER_CAP_S[name]
        self.first_trace: bytes | None = None

    def unit(self, index: int, traced: bool, next_id) -> list[Op]:
        sim = run_cli("simulate", ["simulate", "--steps", str(self.steps), "--depth", "5",
                                   "--height", "1000", "--out", "trace.json"],
                      self.cap, traced, next_id(), keep=("trace.json",))
        trace = sim.proc.files.get("trace.json")
        if sim.cause is None:
            sim.cause = gate.check_simulate(sim.proc.code, sim.proc.stdout, self.steps)
        if sim.cause is None and trace is None:
            sim.cause = "simulate wrote no trace file"
        if sim.cause is None:
            if self.first_trace is None:
                self.first_trace = trace
            elif trace != self.first_trace:
                sim.cause = "trace bytes differ from the first simulate of this run"
        ops = [sim]
        inputs = {"trace.json": trace} if trace is not None else {}
        ver = run_cli("verify", ["verify", "--trace", "trace.json"], self.cap, traced,
                      next_id(), inputs)
        aud = run_cli("audit", ["audit", "--trace", "trace.json", "--level", str(AUDIT_LEVEL)],
                      self.cap, traced, next_id(), inputs)
        if ver.cause is None:
            ver.cause = gate.check_verify(ver.proc.code, ver.proc.stdout)
        if aud.cause is None:
            if trace is None:
                aud.cause = "no trace to audit"
            else:
                aud.cause = gate.check_audit(aud.proc.code, aud.proc.stdout,
                                             json.loads(trace), AUDIT_LEVEL)
        if trace is not None:
            sim.retries = len(json.loads(trace)["retries"])
        return ops + [ver, aud]


BASE_KERNELS = (-1, 2, -2, 3, -3, 5, 6, 7, 10, 13)


def poly_text(coeffs: tuple[int, ...]) -> str:
    """CLI syntax for integer coefficients given low to high."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        terms.append(("-" if c < 0 else "+") + body)
    text = "".join(terms)
    return text[1:] if text.startswith("+") else text


class Certify:
    """Rounds of twelve one-shot queries drawn from the seed.

    Each round has the same composition, so the latency distribution of a run
    depends on the seed only through the drawn coefficients.  Critical-orbit
    values stay near or below 128 bits, which keeps integer factoring small:
    the cost is the Frobenius scan and interpreter start-up.
    """

    # (kind, shape, level or levels, prime budget)
    ROUND = (
        ("index-report", "quad", 3, 100),
        ("index-report", "quad", 3, 60),
        ("index-report", "quad", 4, 80),
        ("index-report", "quad", 4, 40),
        ("index-report", "monic", 5, 50),
        ("index-report", "shift", 6, 30),
        ("index-report", "cubic", 2, 100),
        ("index-report", "cubic", 3, 40),
        ("disc-seq", "monic", None, None),
        ("disc-seq", "monic", None, None),
        ("vast-witness", "shift", None, None),
        ("group-order", None, None, None),
    )

    def __init__(self, name: str, seed: int):
        self.seed = seed

    @staticmethod
    def _coeffs(rng: random.Random, shape: str) -> tuple[int, ...]:
        nonzero = lambda lo, hi: rng.choice([v for v in range(lo, hi + 1) if v])
        if shape == "quad":
            return (nonzero(-7, 7), rng.randint(-2, 2), rng.choice((1, 2)))
        if shape == "monic":  # leading coefficient 2 makes level-5 discriminants costly to factor
            return (nonzero(-7, 7), rng.randint(-2, 2), 1)
        if shape == "shift":  # c = -1 is inseparable at level 2
            return (rng.choice([v for v in range(-15, 16) if v not in (0, -1)]), 0, 1)
        return (nonzero(-3, 3), rng.randint(-3, 3), rng.randint(-1, 1), 1)

    @staticmethod
    def _base(rng: random.Random) -> list[int]:
        return [] if rng.random() < 0.5 else rng.sample(BASE_KERNELS, rng.randint(1, 2))

    def queries(self, index: int) -> list[tuple[str, list[str], dict]]:
        rng = random.Random(f"certify:{self.seed}:{index}")
        out = []
        for kind, shape, level, primes in self.ROUND:
            q: dict = {}
            if kind == "index-report":
                q = {"coeffs": self._coeffs(rng, shape), "level": level,
                     "base": self._base(rng)}
                d = len(q["coeffs"]) - 1
                top = math.ceil(math.log2(gate.group_order(d, level)))
                q["n"] = 2 ** rng.randint(0, top)
                args = ["index-report", "--poly", poly_text(q["coeffs"]),
                        "--level", str(level), "--n", str(q["n"]), "--primes", str(primes)]
            elif kind == "disc-seq":
                q = {"coeffs": self._coeffs(rng, shape), "levels": rng.randint(3, 5),
                     "base": self._base(rng)}
                args = ["disc-seq", "--poly", poly_text(q["coeffs"]),
                        "--levels", str(q["levels"])]
            elif kind == "vast-witness":
                q = {"coeffs": self._coeffs(rng, shape), "start": rng.randint(1, 2),
                     "depth": rng.randint(3, 4), "base": self._base(rng)}
                args = ["vast-witness", "--stream",
                        f"disc:{poly_text(q['coeffs'])}:{q['start']}",
                        "--depth", str(q["depth"])]
            else:
                q = {"arity": rng.randint(2, 5), "depth": rng.randint(1, 4)}
                args = ["group-order", "--arity", str(q["arity"]), "--depth", str(q["depth"])]
            if q.get("base"):
                args.append("--base=" + ",".join(map(str, q["base"])))
            out.append((kind, args, q))
        rng.shuffle(out)
        return out

    def unit(self, index: int, traced: bool, next_id) -> list[Op]:
        ops = []
        for kind, args, q in self.queries(index):
            op = run_cli(kind, args, QUERY_CAP_S, traced, next_id())
            if op.cause is None:
                op.cause = gate.CERTIFY_CHECKS[kind](op.proc.code, op.proc.stdout, q)
            ops.append(op)
        return ops


WORKLOADS = {"tower9": Tower, "tower10": Tower, "certify": Certify}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples
    above it; the maximum when there are too few samples."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def end_to_end(setup: list[Proc], ops: list[Op]) -> tuple[dict[str, float], float]:
    walls = [op.proc.norm for op in ops]
    tail_value, pct = tail(walls)
    return {
        "setup_s": statistics.median(p.norm for p in setup),
        "query_p50_s": statistics.median(walls),
        "query_tail_s": tail_value,
        "queries_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(op.proc.rss_mb for op in ops),
    }, pct


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(ops: list[Op]) -> dict[str, float]:
    """Per-layer metrics of one traced unit (the spans of its processes)."""
    spans = [s for op in ops if op.spans for s in op.spans["spans"]]
    children: dict[tuple[int, int], list[list]] = {}
    for s in spans:
        children.setdefault((s[0], s[2]), []).append(s)
    by_name: dict[str, list[list]] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        op_id, sid, _, name, t0, t1, _ = s
        kids = children.get((op_id, sid), [])
        by_name.setdefault(name, []).append(s)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - sum(k[5] - k[4] for k in kids)

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, [])) for n in names)

    def self_of(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def module(prefix: str) -> list[str]:
        return [n for n in by_name if n.startswith(prefix)]

    def with_child(name: str, child: str) -> int:
        return sum(1 for s in by_name.get(name, [])
                   if any(k[3] == child for k in children.get((s[0], s[1]), [])))

    def under(name: str, parent: str) -> list[list]:
        parents = {(s[0], s[1]) for s in by_name.get(parent, [])}
        return [s for s in by_name.get(name, []) if (s[0], s[2]) in parents]

    def hit_ratio(cache: str) -> float:
        infos = [op.spans["caches"][cache] for op in ops if op.spans]
        hits = sum(i["hits"] for i in infos)
        return _ratio(hits, hits + sum(i["misses"] for i in infos))

    bits = [b for op in ops if op.spans for b in op.spans["factor_bits"]]
    steps = calls("construct.step")
    vast_tested = len(under("sqclass.disjoint_over", "construct.step"))
    point_tested = len(under("sqclass.cover_fiber_integral", "construct.step"))
    scanned = under("exactpoly.factor_degrees_mod_p", "arboreal.splitting_degree_lower_bound")
    disc_calls = calls("arboreal.disc_class")
    imports = [op.spans["import_s"] for op in ops if op.spans]
    simulates = [op for op in ops if op.kind == "simulate"]
    return {
        "exactpoly.factor.calls": calls("sympy.factorint"),
        "exactpoly.factor.bits_max": max(bits, default=0),
        "exactpoly.factor.bits_sum": sum(bits),
        "exactpoly.factor.self_s": self_of("sympy.factorint"),
        "exactpoly.squarefree.calls": calls("exactpoly.squarefree_kernel_support"),
        "exactpoly.squarefree.hit_ratio": hit_ratio("exactpoly._squarefree_part"),
        "exactpoly.discriminant.calls": calls("exactpoly.discriminant"),
        "exactpoly.discriminant.self_s": self_of("exactpoly.discriminant"),
        "exactpoly.frobenius.calls": calls("exactpoly.factor_degrees_mod_p"),
        "exactpoly.frobenius.self_s": self_of("exactpoly.factor_degrees_mod_p"),
        "exactpoly.iterate.self_s": self_of("exactpoly.iterate"),
        "sqclass.class_of.calls": calls("sqclass.class_of"),
        "sqclass.class_of.self_s": self_of("sqclass.class_of"),
        "sqclass.span.calls": calls(*SPAN_OPS),
        "sqclass.span.self_s": self_of(*SPAN_OPS),
        "sqclass.vast_witness.calls": calls("sqclass.vast_witness"),
        "arboreal.disc_class.calls": disc_calls,
        "arboreal.disc_class.self_s": self_of("arboreal.disc_class"),
        "arboreal.disc_class.generic_ratio": _ratio(
            with_child("arboreal.disc_class", "exactpoly.discriminant"), disc_calls),
        "arboreal.frobenius.primes": len(scanned),
        "arboreal.frobenius.good_ratio": _ratio(
            sum(1 for s in scanned if s[6] != "BadPrime"), len(scanned)),
        "arboreal.orbit.hit_ratio": hit_ratio("arboreal._critical_orbit"),
        "construct.step.calls": steps,
        "construct.step.self_s": self_of("construct.step"),
        "construct.vast.tested": vast_tested,
        "construct.vast.accept_ratio": _ratio(steps, vast_tested),
        "construct.point.tested": point_tested,
        "construct.point.accept_ratio": _ratio(steps, point_tested),
        "construct.verify.self_s": self_of("construct.verify_trace"),
        "construct.audit.self_s": self_of("construct.counterexample_audit"),
        "construct.retries": sum(op.retries for op in simulates),
        "treegroup.calls": calls(*module("treegroup.")),
        "treegroup.self_s": self_of(*module("treegroup.")),
        "supernat.calls": calls(*module("supernat.")),
        "supernat.self_s": self_of(*module("supernat.")),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.self_s": self_of("cli.main"),
    }


BIT_BUCKETS = (32, 64, 128, 256)


def census(ops: list[Op]) -> list[str]:
    """Factoring census and summed cache_info() of one traced unit."""
    buckets = {b: [0, 0.0] for b in (*BIT_BUCKETS, None)}
    for op in ops:
        if not op.spans:
            continue
        calls = [s for s in op.spans["spans"] if s[3] == "sympy.factorint"]
        # the tracer appends a call's bit size right after its span
        for s, bits in zip(calls, op.spans["factor_bits"]):
            b = next((b for b in BIT_BUCKETS if bits <= b), None)
            buckets[b][0] += 1
            buckets[b][1] += s[5] - s[4]
    names = [f"<={b}" for b in BIT_BUCKETS] + [f">{BIT_BUCKETS[-1]}"]
    lines = ["factorint by bit size: " + ", ".join(
        f"{n}: {c} calls {t:.3f} s" for n, (c, t) in zip(names, buckets.values()))]
    for cache in ("exactpoly._squarefree_part", "arboreal._critical_orbit"):
        infos = [op.spans["caches"][cache] for op in ops if op.spans]
        lines.append(f"{cache}.cache_info() summed over {len(infos)} processes: " + ", ".join(
            f"{k} {sum(i[k] for i in infos)}" for k in ("hits", "misses", "currsize")))
    return lines


def stage_walls(ops: list[Op]) -> dict[str, float]:
    out = {}
    for kind in ("simulate", "verify", "audit"):
        walls = [op.proc.wall for op in ops if op.kind == kind]
        out[f"cli.{kind}.wall_s"] = statistics.median(walls) if walls else 0.0
    return out


# ---------------------------------------------------------------------------
# Metadata and entry point
# ---------------------------------------------------------------------------

def metadata() -> dict:
    def git_rev() -> str:
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10,
                               env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return r.stdout.strip() if r.returncode == 0 else "unknown"

    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    import sympy
    try:
        from sympy.external.gmpy import GROUND_TYPES
    except ImportError:
        GROUND_TYPES = "unknown"
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Cold-process benchmark of the arborsign CLI.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "arborsign" / "cli.py").is_file():
        print(f"error: no arborsign sources under {SRC}", file=sys.stderr)
        return 2
    global WORK, SPAWNER
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK_ROOT.mkdir(exist_ok=True)
    WORK = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    SPAWNER = Spawner()
    try:
        return measure(args)
    finally:
        SPAWNER.close()
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    workload = WORKLOADS[args.workload](args.workload, args.seed)
    ids = iter(range(1, 1 << 30))
    next_id = lambda: next(ids)

    # Untimed warm-up: compiles the package's bytecode on a first run.
    run_cold(["-c", "import arborsign.cli"], QUERY_CAP_S)

    all_ops: list[Op] = []
    setup: list[Proc] = []
    setup_causes: list[str] = []
    passes = max(1, round(args.seconds / UNIT_S[args.workload]))
    if traced:
        # Each traced pass repeats unit 0, so that counts repeat exactly, and
        # is paired with an untraced pass of the same unit.
        pairs = []
        for _ in range(max(1, passes // 2)):
            pairs.append((workload.unit(0, True, next_id), workload.unit(0, False, next_id)))
            all_ops += pairs[-1][0] + pairs[-1][1]
    else:
        for index in range(passes):
            # Set-up samples are spread over the run, so that they meet the
            # same changes in machine speed as the operations.
            measure_setup(math.ceil(SETUP_SAMPLES / passes), setup, setup_causes)
            all_ops += workload.unit(index, False, next_id)

    smooth_refs()
    failures = [(op.kind, op.argv, op.cause) for op in all_ops if op.cause]
    failures += [("setup", ["-c", "import arborsign.cli"], c) for c in setup_causes]
    attempted = len(all_ops) + len(setup)
    unexpected = [f for f in failures if f[2] != gate.KNOWN_UNSOUND_CONSISTENT]

    if traced:
        per_pair = [{**layer_counts(t), **stage_walls(u),
                     "trace.overhead_s": sum(op.proc.wall for op in t)
                     - sum(op.proc.wall for op in u)} for t, u in pairs]
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [m[name] for m in per_pair]
            # counts come from the first traced unit; times are medians
            value = statistics.median(values) if unit == "s" else values[0]
            metrics[name] = {"value": value, "unit": unit}
        report = [f"traced units: {len(pairs)}; per process of the first:"]
        for op in pairs[0][0]:
            m = layer_counts([op])
            report.append(
                f"  {op.kind:13s} wall {op.proc.wall:8.3f} s  import {m['cli.import_s']:.3f} s  "
                f"factor {m['exactpoly.factor.self_s']:8.3f} s "
                f"({m['exactpoly.factor.self_s'] / op.proc.wall:6.1%})  "
                f"frobenius {m['exactpoly.frobenius.self_s']:.3f} s")
        first = pairs[0][0]
        wall = sum(op.proc.wall for op in first)
        rest = wall - sum(op.spans["import_s"] for op in first if op.spans)
        m = per_pair[0]
        report.append(
            f"first unit: wall {wall:.3f} s, {rest:.3f} s outside import; factor "
            f"{m['exactpoly.factor.self_s'] / wall:.1%} of wall, frobenius "
            f"{m['exactpoly.frobenius.self_s'] / rest:.1%} of the time outside import")
        report += census(first)
    else:
        values, pct = end_to_end(setup, all_ops)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        walls = [op.proc.wall for op in all_ops]
        refs = [p.ref_wall for p in setup] + [op.proc.ref_wall for op in all_ops]
        report = [f"queries: {len(all_ops)} in {passes} units; "
                  f"query_tail_s is the p{pct:.1f} latency",
                  f"times are at the reference speed: median reference "
                  f"{statistics.median(refs) * 1e3:.3f} ms against {REF_NOMINAL_S * 1e3:g} ms; "
                  f"raw walls: setup median {statistics.median(p.wall for p in setup):.3f} s, "
                  f"query median {statistics.median(walls):.3f} s, "
                  f"{len(walls) / sum(walls):.3f} queries/s"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("meta " + json.dumps(metadata()))
    for line in report:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for kind, argv, cause in failures:
        print(f"  FAILED {kind}: {cause} :: {' '.join(argv)}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
