"""Command-line surface: nnet, nj, tsp, check, estimate, length, enumerate.

Exit codes: 0 success, 1 input error (bad files or flags), 2 internal
invariant failure, 3 the NNLS solver did not converge, 4 out of memory.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
from fractions import Fraction

from . import io as nio
from .agglomerate import (
    BalancedTSP,
    OriginalBM,
    TreeWeighting,
    WeightingScheme,
    neighbor_joining,
    run_neighbor_net,
)
from .core import (
    CircularOrdering,
    CircularSplits,
    PartialCircularOrdering,
    count_associahedron_vertices,
    count_distinct_orderings,
    count_nnet_outputs,
    split_arcs,
)
from .kalmanson import (
    find_kalmanson_ordering,
    first_four_point_violation,
    first_kalmanson_violation,
)
from .length import balanced_length
from .tsp import greedy_tsp, read_tsplib_euc2d
from .weights import NonConvergence, clamped_lambda, nnls_fit


def _checked(convert, ok, message):
    """An argparse type: convert the flag's text, then reject a value that
    fails ok with message (exit code 1, like every parse error)."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_alpha = _checked(float, lambda a: 0 <= a <= 1, "alpha must be in [0, 1]")
_tolerance = _checked(float, lambda t: t >= 0, "tolerance must be >= 0")


def _scheme(args) -> WeightingScheme:
    """The scheme --weighting names; --alpha is refused under any but tree."""
    if args.weighting == "tree":
        return TreeWeighting() if args.alpha is None else TreeWeighting(args.alpha)
    if args.alpha is not None:
        raise nio.InputError(f"--alpha applies to --weighting tree only, not {args.weighting}")
    return OriginalBM() if args.weighting == "original" else BalancedTSP()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_distances(path: str, rational: bool = False, tsplib_rounding=None):
    """A PHYLIP file; when tsplib_rounding is given, a TSPLIB EUC_2D file too."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    if tsplib_rounding is not None and "NODE_COORD_SECTION" in text:
        d = read_tsplib_euc2d(text, rounding=tsplib_rounding)
        labels = [str(k + 1) for k in range(d.n)]
    elif tsplib_rounding == "tsplib":
        raise nio.InputError("--round tsplib needs TSPLIB EUC_2D input")
    else:
        d, labels = nio.read_phylip_distances(text)
    if rational:
        d = d.to_exact()
    return d, labels


def _parse_taxa(text: str, labels) -> list:
    index = {label: k for k, label in enumerate(labels)}
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in index:
            out.append(index[token])
        else:
            try:
                out.append(int(token))
            except ValueError:
                raise nio.InputError(f"unknown taxon {token!r}") from None
    return out


def _write_splits(system, labels, ordering, nexus, show_weights=True):
    """The split list on stdout, a line per split: its weight unless
    show_weights is False, then its members' labels in braces; given the
    open Nexus file, the document too, from the same pass over the rows."""
    listing = (sys.stdout, nio.row_lines(labels, ",", lambda w, size, members: (
        f"  {nio.fmt_num(w)} \t {{{members}}}\n" if show_weights else f"  {{{members}}}\n")))
    if nexus:
        nio.write_nexus(system, labels, cycle=ordering, fh=nexus, also=(listing,))
    else:
        nio.write_rows(system, listing)


def _estimated_system(d, ordering, method: str):
    if method == "nnls":
        return nnls_fit(d, ordering)
    system, negatives = clamped_lambda(d, ordering)
    if method == "formula" and negatives:
        raise nio.InputError(
            f"{negatives} negative weights from the closed formula; "
            "estimate with formula-clamped or nnls instead"
        )
    return system


def cmd_nnet(args) -> int:
    scheme = _scheme(args)  # refuses a stray --alpha before the input is read
    d, labels = _read_distances(args.input, args.rational)
    result = run_neighbor_net(d, scheme)
    # the estimate before the first print, so a refused one leaves stdout empty
    if args.estimate == "none":  # the tree splits, each once, are arcs of the ordering
        tree = dict.fromkeys(result.tree_splits)
        system = CircularSplits(result.ordering, *split_arcs(result.ordering, tree), [1.0] * len(tree))
    else:
        system = _estimated_system(d, result.ordering, args.estimate)
    with contextlib.ExitStack() as files:  # opened before the first print: a bad path leaves stdout empty
        nexus = args.nexus and files.enter_context(open(args.nexus, "w", encoding="utf-8"))
        trace = args.trace and files.enter_context(open(args.trace, "w"))
        print("ordering:", " ".join(labels[t] for t in result.ordering.order))
        print(f"splits ({len(system)}):")
        _write_splits(system, labels, result.ordering, nexus, show_weights=args.estimate != "none")
        if trace:
            nio.write_trace_jsonl(result.trace, trace)
    if args.nexus:
        print(f"nexus written to {args.nexus}")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def cmd_nj(args) -> int:
    d, labels = _read_distances(args.input)
    print(nio.splits_to_newick(neighbor_joining(d, args.alpha), labels))
    return 0


def cmd_tsp(args) -> int:
    scheme = _scheme(args)
    d, labels = _read_distances(args.input, tsplib_rounding=args.round)
    tour = greedy_tsp(d, scheme)
    print("tour:", " ".join(labels[t] for t in tour.ordering.order))
    print("length:", nio.fmt_num(tour.length))
    return 0


def cmd_check(args) -> int:
    d, labels = _read_distances(args.input)
    tol = args.tol
    # every result before the first print, so an input error leaves stdout empty
    ordering = CircularOrdering(_parse_taxa(args.ordering, labels)) if args.ordering else None
    fp = first_four_point_violation(d, tol)
    if ordering is None:
        found = find_kalmanson_ordering(d, tol=tol)
    else:
        violation = first_kalmanson_violation(d, ordering, tol)
    if fp is None:
        print("four-point condition: PASS")
    else:
        taxa = ", ".join(labels[t] for t in fp["taxa"])
        sums = ", ".join(nio.fmt_num(v) for v in fp["sums"])
        print(f"four-point condition: FAIL at ({taxa}); sums {sums}")
    if ordering is None:
        if found is None:
            print("kalmanson ordering: none found by agglomeration-and-verify")
        else:
            print("kalmanson ordering found:", " ".join(labels[t] for t in found.order))
    elif violation is None:
        print("kalmanson conditions: PASS on the supplied ordering")
    else:
        taxa = ", ".join(labels[t] for t in violation["taxa"])
        print(f"kalmanson conditions: FAIL at ({taxa}); near {nio.fmt_num(violation['near_sum'])}, "
              f"cross {nio.fmt_num(violation['cross_sum'])}, wrap {nio.fmt_num(violation['wrap_sum'])}")
    return 0


def cmd_estimate(args) -> int:
    d, labels = _read_distances(args.input, args.rational)
    if args.ordering:
        ordering = CircularOrdering(_parse_taxa(args.ordering, labels))
    else:
        ordering = run_neighbor_net(d, BalancedTSP()).ordering
    system = _estimated_system(d, ordering, args.method)  # before the first print, as in cmd_nnet
    with open(args.nexus, "w", encoding="utf-8") if args.nexus else contextlib.nullcontext() as nexus:
        if not args.ordering:
            print("ordering (from agglomeration):", " ".join(labels[t] for t in ordering.order))
        if nexus:
            nio.write_nexus(system, labels, cycle=ordering, fh=nexus)
        else:
            print(f"splits ({len(system)}):")
            _write_splits(system, labels, ordering, None)
    if args.nexus:
        print(f"nexus written to {args.nexus}")
    return 0


def cmd_length(args) -> int:
    d, labels = _read_distances(args.input, args.rational)
    blocks = [
        _parse_taxa(block, labels) for block in args.blocks.split("|") if block.strip()
    ]
    pco = PartialCircularOrdering(blocks)
    value = balanced_length(d, pco)
    if isinstance(value, Fraction):
        print(f"balanced length: {value} ({float(value):.6g})")
    else:
        print("balanced length:", nio.fmt_num(value))
    return 0


def cmd_enumerate(args) -> int:
    n = args.n
    if n < 3:
        raise nio.InputError("--n must be >= 3")
    print(f"{'n':>3} {'orderings':>14} {'trees':>14} {'outputs':>16}")
    for k in range(3, n + 1):
        print(
            f"{k:>3} {count_distinct_orderings(k):>14} "
            f"{count_associahedron_vertices(k):>14} {count_nnet_outputs(k):>16}"
        )
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process, built on the first call: argparse's
    objects hold reference cycles, which a parser per main call would leave
    to the cyclic collector."""
    parser = _Parser(prog="neighbornet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nnet", help="agglomerate a circular ordering and tree splits")
    p.add_argument("input")
    p.add_argument("--weighting", choices=["balanced-tsp", "tree", "original"], default="balanced-tsp")
    p.add_argument("--alpha", type=_alpha, help="tree weighting only; default 1/2")
    p.add_argument("--estimate", choices=["none", "formula", "formula-clamped", "nnls"], default="none")
    p.add_argument("--nexus", metavar="PATH")
    p.add_argument("--trace", metavar="PATH")
    p.add_argument("--rational", action="store_true")
    p.set_defaults(func=cmd_nnet)

    p = sub.add_parser("nj", help="neighbor-joining splits as Newick")
    p.add_argument("input")
    p.add_argument("--alpha", type=_alpha, default=0.5)
    p.set_defaults(func=cmd_nj)

    p = sub.add_parser("tsp", help="greedy tour from the agglomeration")
    p.add_argument("input", help="TSPLIB EUC_2D or PHYLIP distance file")
    p.add_argument("--weighting", choices=["balanced-tsp", "tree", "original"], default="balanced-tsp")
    p.add_argument("--alpha", type=_alpha, help="tree weighting only; default 1/2")
    p.add_argument("--round", choices=["none", "tsplib"], default="none")
    p.set_defaults(func=cmd_tsp)

    p = sub.add_parser("check", help="four-point and Kalmanson condition report")
    p.add_argument("input")
    p.add_argument("--ordering", help="comma-separated labels or indices")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("estimate", help="split weights for an ordering")
    p.add_argument("input")
    p.add_argument("--ordering", help="comma-separated labels or indices")
    p.add_argument("--method", choices=["formula", "formula-clamped", "nnls"], default="nnls")
    p.add_argument("--nexus", metavar="PATH")
    p.add_argument("--rational", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("length", help="balanced length of a partial circular ordering")
    p.add_argument("input")
    p.add_argument("--blocks", required=True, help="e.g. 'A,B|C|D,E' (paths separated by |)")
    p.add_argument("--rational", action="store_true")
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("enumerate", help="counting identities table")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    """Run the command line argv. While it runs, standard output is written
    as UTF-8, as the input and Nexus files are, unless PYTHONIOENCODING names
    its encoding or it is not a text stream that can be reconfigured."""
    out = sys.stdout
    if not isinstance(out, io.TextIOWrapper) or os.environ.get("PYTHONIOENCODING"):
        return _main(argv)
    encoding, errors = out.encoding, out.errors
    out.reconfigure(encoding="utf-8")
    try:
        return _main(argv)
    finally:
        out.reconfigure(encoding=encoding, errors=errors)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (nio.InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergence as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # invariant failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
