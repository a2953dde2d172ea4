#!/usr/bin/env python3
"""Compare two output trees written by scripts/cli_outputs.py.

Usage: python scripts/compare_outputs.py A B

Both trees must hold the same files. Every file but a trace (.jsonl) must be
byte-identical. A trace must hold as many records as its twin, and each
record the same fields with equal values, except q and q_hat, the criterion
values, whose float sums may associate differently: they must agree within
1e-12 relative, or 1e-12 absolute near zero. Prints one line per differing
file (one held by a single tree, or whose contents differ), naming its first
difference, and exits 1; otherwise prints how many files it compared, how
many q/q_hat values differ and the largest relative difference.
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
    """(one difference per differing file, in name order; files compared;
    rounded differences)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differences, rounded = [], []
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            differences.append(f"{name}: in {a if name in files_a else b} only")
            continue
        x, y = (a / name).read_bytes(), (b / name).read_bytes()
        if x == y:
            continue
        what = trace_difference(x, y, rounded) if name.suffix == ".jsonl" else "bytes differ"
        if what:
            differences.append(f"{name}: {what}")
    return differences, len(files_a & files_b), rounded


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()
    differences, count, rounded = compare(args.a, args.b)
    for what in differences:
        print(f"differ: {what}", file=sys.stderr)
    if differences:
        sys.exit(1)
    print(f"{count} files agree; {len(rounded)} q/q_hat values differ, largest relative difference {max(rounded, default=0.0):.3g}")


if __name__ == "__main__":
    main()
