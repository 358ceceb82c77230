"""Golden payloads: the sha256 of (exit code, stdout) of fixed CLI queries.

The trace tests pin the bytes of `simulate`'s trace; these pin what the other
commands print, so a change in how a payload is built cannot change a byte of
it unnoticed.
"""
import hashlib

import pytest

from arborsign.cli import main

TRACE = "TRACE"  # stands for the path of the 10-step trace

QUERIES = {
    "index-report-refutes": ["index-report", "--poly", "x^2-3", "--base", "3",
                             "--level", "1", "--n", "1", "--primes", "10"],
    "index-report-consistent": ["index-report", "--poly", "x^2+1", "--level", "1",
                                "--n", "1", "--primes", "10"],
    "index-report-unknown": ["index-report", "--poly", "x^2+1", "--base", "3,10",
                             "--level", "3", "--n", "2", "--primes", "5"],
    "index-report-inseparable": ["index-report", "--poly", "x^2", "--base", "2",
                                 "--level", "2", "--n", "1"],
    # heavy Frobenius scans: degree 32, every walk returns within the degree
    # and all 50 primes are scanned; degree 27, 5 walks pass the degree;
    # degree 9, a walk passes the degree and the scan stops at the exponent 36
    "index-report-heavy-quadratic": ["index-report", "--poly", "x^2+x-1", "--level", "5",
                                     "--n", "33554432", "--primes", "50"],
    "index-report-heavy-cubic": ["index-report", "--poly", "x^3+2*x+3", "--level", "3",
                                 "--n", "65536", "--primes", "40"],
    "index-report-heavy-fallback": ["index-report", "--poly", "x^3+x^2+2*x-1", "--level", "2",
                                    "--n", "1", "--primes", "100"],
    "disc-seq": ["disc-seq", "--poly", "x^3+x+1", "--levels", "3"],
    "disc-seq-base": ["disc-seq", "--poly", "x^2+1", "--levels", "3", "--base", "-1,3"],
    "vast-witness": ["vast-witness", "--stream", "disc:x^2+2:1", "--base", "-2,6",
                     "--depth", "5"],
    "group-order": ["group-order", "--arity", "3", "--depth", "3"],
    "verify": ["verify", "--trace", TRACE],
    "audit": ["audit", "--trace", TRACE, "--level", "2"],
}

PINS = {
    "audit": "16412527360fdeb43c9b9df390f149208db472f00525f72f9eab2dd5be0ae862",  # exit 0
    "disc-seq": "616d122d13ada4e824c3b5cf177aea86e4f970217d3fd8b01fd65b7a4404b172",  # exit 0
    "disc-seq-base": "a49e23fda1de54eeff2f88cf6f5f3746fb61280290da73c5dfcb4fe26d7250d8",  # exit 0
    "group-order": "7389b9c62679c8bea9b9382a8cac6f0951c9d197952def6da182cc0f5d68c811",  # exit 0
    "index-report-heavy-cubic": "a937c92e0f1bc47d3802af20a18ea08f796d1379d351c01ce414b84e7a37dd79",  # exit 0
    "index-report-heavy-fallback": "73a266e98f70d47d0761768fa04d6117db9cb5a539d207ac922b007950b688c5",  # exit 0
    "index-report-heavy-quadratic": "45c0aa1374dc85f34f00cdd3f4755d33937ec8743d2656309478773b223033af",  # exit 0
    "index-report-consistent": "f43bd5040b22e984f34ace8c4377b21f3e5b94f519da4627d9957c784716d3e4",  # exit 0
    "index-report-inseparable": "69d13d95046dd98ba77d129f26c28a5231d4ecd28cc97b9c02cf1a30a30dbe94",  # exit 1
    "index-report-refutes": "385622e71808d417deac05c81583115e837cda3e7fdf4c2fe2548b58eff605ab",  # exit 1
    "index-report-unknown": "9c2c32734c296495354502a2424fdb740173cf585f6ae38a780dbf8d24bbd9d5",  # exit 0
    "vast-witness": "c0829f51ea129f1acd1920786865289e01d5111f840e29a177eca9b34ca1275f",  # exit 0
    "verify": "b80a7d610b8be0e8f88c3b17f948ac34f2ac11b07903082406dec30e9896cf87",  # exit 0
}


def digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


@pytest.fixture(scope="module")
def trace10(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "t10.json"
    argv = ["simulate", "--steps", "10", "--depth", "5", "--height", "1000", "--out", str(path)]
    assert main(argv) == 0
    return str(path)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_payload_bytes(capsys, trace10, name):
    capsys.readouterr()
    code = main([trace10 if a == TRACE else a for a in QUERIES[name]])
    assert digest(code, capsys.readouterr().out) == PINS[name]
