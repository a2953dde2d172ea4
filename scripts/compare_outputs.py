#!/usr/bin/env python3
"""Compare two output trees written by scripts/cli_outputs.py.

Usage: python scripts/compare_outputs.py A B

Both trees must hold the same files. Every file but a trace (.jsonl) must be
byte-identical. A trace must hold as many records as its twin, and each
record the same fields with equal values, except q and q_hat, the criterion
values, whose float sums may associate differently: they must agree within
1e-12 relative, or 1e-12 absolute near zero. Exits 1 with the first
difference; otherwise prints how many files it compared, how many q/q_hat
values differ and the largest relative difference.
"""
import argparse
import json
import math
import sys
from pathlib import Path

ROUNDED = ("q", "q_hat")
TOL = 1e-12


def record_difference(a: dict, b: dict, rounded: list):
    """What first differs between two trace records, or None; the relative
    differences of unequal q/q_hat values are appended to rounded."""
    if a.keys() != b.keys():
        return f"fields {sorted(a)} against {sorted(b)}"
    for key, x in a.items():
        y = b[key]
        if x == y:
            continue
        if not (key in ROUNDED and type(x) is type(y) is float and math.isclose(x, y, rel_tol=TOL, abs_tol=TOL)):
            return f"{key} {x!r} against {y!r}"
        rounded.append(abs(x - y) / max(abs(x), abs(y)))
    return None


def trace_difference(a: bytes, b: bytes, rounded: list):
    """What first differs between two traces, or None."""
    records_a, records_b = a.decode().splitlines(), b.decode().splitlines()
    if len(records_a) != len(records_b):
        return f"{len(records_a)} records against {len(records_b)}"
    for k, (x, y) in enumerate(zip(records_a, records_b)):
        what = record_difference(json.loads(x), json.loads(y), rounded)
        if what:
            return f"record {k}: {what}"
    return None


def compare(a: Path, b: Path) -> tuple:
    """(first difference or None, files compared, rounded differences)."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        only = sorted(set(files_a) ^ set(files_b))[0]
        return f"{only}: in {a if (a / only).is_file() else b} only", 0, []
    rounded = []
    for name in files_a:
        x, y = (a / name).read_bytes(), (b / name).read_bytes()
        if x == y:
            continue
        what = trace_difference(x, y, rounded) if name.suffix == ".jsonl" else "bytes differ"
        if what:
            return f"{name}: {what}", len(files_a), rounded
    return None, len(files_a), rounded


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()
    what, count, rounded = compare(args.a, args.b)
    if what:
        sys.exit(f"differ: {what}")
    print(f"{count} files agree; {len(rounded)} q/q_hat values differ, largest relative difference {max(rounded, default=0.0):.3g}")


if __name__ == "__main__":
    main()
