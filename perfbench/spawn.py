"""Process spawner for run.py: starts, times and reaps each measured process.

A child's max-RSS as ``wait4`` reports it includes the resident size of the
process it was forked from.  run.py holds sympy and the gate's caches, so
children forked from it would all report at least run.py's size.  This
spawner is a small interpreter that loads nothing but the standard library,
so the max-RSS of its children is their own.

The speed of a shared host drifts by tens of percent over seconds to minutes,
and CPU time follows wall time.  So before each child the spawner also times
a reference process: a fresh interpreter, started the same way, that imports
a fixed set of standard-library modules.  It does what a cold CLI process
does (start an interpreter, load and run module code) without the program,
and its wall follows the drift closely; run.py divides each wall by it.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": dir, "env": {...}, "cap": seconds}``; one JSON reply
per line on stdout, ``{"code": int, "wall": seconds, "maxrss_kb": int,
"timed_out": bool, "ref": seconds}``.  The child's stdout goes to
``cwd/.stdout``.  A child that runs longer than ``cap`` seconds is killed
with its process group.  The spawner exits at end of input, and on SIGTERM
after killing its child.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

_current: list[subprocess.Popen] = []

REFERENCE = "import argparse, decimal, email.message, fractions, json, unittest, xml.dom.minidom"


def _kill_group(p: subprocess.Popen) -> None:
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _on_term(signum, frame) -> None:
    for p in _current:
        _kill_group(p)
        os.waitpid(p.pid, 0)
    os._exit(128 + signum)


def _timed(argv: list[str], req: dict, out) -> tuple[int, float, int, bool]:
    """(exit code, wall, max-RSS in KiB, killed at the cap) of one process."""
    killed = threading.Event()
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=req["cwd"], env=req["env"], stdout=out,
                         stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                         start_new_session=True)
    _current.append(p)

    def kill() -> None:
        killed.set()
        _kill_group(p)

    timer = threading.Timer(req["cap"], kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        _current.clear()
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, killed.is_set()


def run(req: dict) -> dict:
    _, ref, _, _ = _timed([req["argv"][0], "-c", REFERENCE], req, subprocess.DEVNULL)
    with open(os.path.join(req["cwd"], ".stdout"), "wb") as out:
        code, wall, maxrss, timed_out = _timed(req["argv"], req, out)
    return {"code": code, "wall": wall, "maxrss_kb": maxrss, "timed_out": timed_out,
            "ref": ref}


def main() -> None:
    signal.signal(signal.SIGTERM, _on_term)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
