#!/usr/bin/env python3
"""Replay the point scans of ``run(N, 5, 1000)`` in process.

Usage (from the root of a source checkout)::

    python3 bench/point_scan_corpus.py --runs 5 --steps 9 30 70

For each N, ``construct.run(N, 5, 1000)`` runs once, untimed.  Its trace
gives each step's scan: the cover h (step i's is ``cover_entry(i)``), the
span the fiber must stay outside of (the field with every earlier fiber
class and the step's witness, as ``step`` builds it), and the candidates
from the resume point to the point found, with the earlier steps' points
left out.  The scans are then replayed ``--runs`` times: each builds one
classifier from its cover and span and takes the first candidate it
accepts.  The script prints the walls of each
N, their median, and the sha256 of the points found, which equal the trace's
points.  Two checkouts agree on the scans exactly when their hashes are
equal.  The last line of stdout is one JSON object with the same numbers.

The classifier is ``sqclass.fiber_test``.  On a checkout that has none,
each point goes through ``sqclass.cover_fiber_integral``, which is how such
a checkout's ``step`` tests it.  A checkout whose spans take only
``sqclass.SquareClass`` objects gets its integers wrapped in one.  The program
is imported from ``src/`` of the checkout the script sits in.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from arborsign import construct, sqclass  # noqa: E402

DEPTH, HEIGHT = 5, 1000
SquareClass = getattr(sqclass, "SquareClass", int)  # int: spans take the integer itself


def _classifier():
    if hasattr(sqclass, "fiber_test"):
        return sqclass.fiber_test
    return lambda h, F: lambda num, den: sqclass.cover_fiber_integral(h, num, den, F)


def corpus(n: int) -> list[tuple]:
    """(cover, span, candidates) of each step of run(n, DEPTH, HEIGHT)."""
    trace = construct.run(n, DEPTH, HEIGHT)
    scans, points = [], []
    M = sqclass.ClassSubspace()
    for i, rec in enumerate(trace.steps, start=1):
        h, point = construct.cover_entry(i), rec.point
        over = M.extend(SquareClass(rec.witness))
        after = None
        for ph, pt in points:
            if ph == h:
                after = pt
        prior = {pt for _, pt in points}
        candidates = []
        for c in construct.rationals_by_height(HEIGHT, after):
            if c not in prior:
                candidates.append(c)
                if c == point:
                    break
        scans.append((h, over, candidates))
        points.append((h, point))
        M = over.extend(SquareClass(sqclass.fiber_rep(h, *point)))
    return scans


def replay(scans, classifier) -> tuple[float, list]:
    """Wall of one pass over the scans, and the point each one found."""
    found = []
    start = time.perf_counter()
    for h, F, candidates in scans:
        integral = classifier(h, F)
        found.append(next((c for c in candidates if integral(*c)), None))
    return time.perf_counter() - start, found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="timed replays (default 5)")
    parser.add_argument("--steps", type=int, nargs="+", default=[9, 30, 70],
                        help="tower lengths N (default 9 30 70)")
    args = parser.parse_args(argv)
    classifier = _classifier()
    out = {}
    for n in args.steps:
        scans = corpus(n)
        walls, digests = [], set()
        for _ in range(args.runs):
            wall, found = replay(scans, classifier)
            walls.append(wall)
            digests.add(hashlib.sha256(repr(found).encode()).hexdigest())
        if len(digests) != 1:
            raise SystemExit("replays disagree")
        digest = digests.pop()
        candidates = sum(len(c) for _, _, c in scans)
        print(f"N = {n}: {candidates} candidates in {len(scans)} scans")
        print("  replay walls (s): " + " ".join(f"{w:.4f}" for w in walls))
        print(f"  median {statistics.median(walls):.4f} s  points sha256 {digest}")
        out[str(n)] = {"candidates": candidates, "walls_s": walls,
                       "median_s": statistics.median(walls), "sha256": digest}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
