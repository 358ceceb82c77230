#!/usr/bin/env python3
"""Replay the Frobenius scans of certify's index-report queries in process.

Usage (from the root of a source checkout)::

    python3 bench/frobenius_corpus.py --runs 5

The queries are those of ``perfbench/run.py``'s ``Certify.queries`` for
seeds 1-6, rounds 0 and 1; this script only reads them.  Each
``index-report`` query runs once through ``arborsign.cli.main``, untimed, with
the scan's call of ``factor_degrees_mod_p`` recorded, which collects the
(level-k iterate, prime) pairs in the order the scans make them.  The pairs
are then replayed through ``exactpoly.factor_degrees_mod_p`` ``--runs`` times.
The script prints the wall of each replay, their median, and the sha256 of
the results, call by call: each degree tuple, or ``BadPrime``.  Two checkouts
agree on the scan exactly when their hashes are equal.  The last line of
stdout is one JSON object with the same numbers.

The program is imported from ``src/`` of the checkout the script sits in, and
the queries need sympy (``perfbench/gate.py`` imports it).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from arborsign import arboreal, cli, exactpoly  # noqa: E402
from run import Certify  # noqa: E402

SEEDS = range(1, 7)
ROUNDS = 2


def corpus() -> list[tuple[exactpoly.RatPoly, int]]:
    """The (iterate, prime) pairs the index-report scans of the rounds ask for."""
    pairs = []
    scan = arboreal.factor_degrees_mod_p

    def record(f, p):
        pairs.append((f, p))
        return scan(f, p)

    arboreal.factor_degrees_mod_p = record
    try:
        for seed in SEEDS:
            for index in range(ROUNDS):
                for kind, args, _ in Certify("certify", seed).queries(index):
                    if kind == "index-report":
                        with contextlib.redirect_stdout(io.StringIO()):
                            cli.main(args)
    finally:
        arboreal.factor_degrees_mod_p = scan
    return pairs


def replay(pairs) -> tuple[float, list]:
    """Wall of one pass over the pairs, and its results."""
    results = []
    start = time.perf_counter()
    for f, p in pairs:
        try:
            results.append(exactpoly.factor_degrees_mod_p(f, p))
        except exactpoly.BadPrime:
            results.append("BadPrime")
    return time.perf_counter() - start, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="timed replays (default 5)")
    args = parser.parse_args(argv)
    pairs = corpus()
    walls, digests = [], set()
    for _ in range(args.runs):
        wall, results = replay(pairs)
        walls.append(wall)
        digests.add(hashlib.sha256(repr(results).encode()).hexdigest())
    if len(digests) != 1:
        raise SystemExit("replays disagree")
    digest = digests.pop()
    print(f"{len(pairs)} calls from seeds {SEEDS.start}-{SEEDS.stop - 1}, {ROUNDS} rounds each")
    print("replay walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    print(f"median {statistics.median(walls):.3f} s  results sha256 {digest}")
    print(json.dumps({"calls": len(pairs), "walls_s": walls,
                      "median_s": statistics.median(walls), "sha256": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
