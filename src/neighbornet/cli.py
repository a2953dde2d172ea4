"""Command-line surface: nnet, nj, tsp, check, estimate, length, enumerate.

Exit codes: 0 success, 1 input error (bad files or flags), 2 internal
invariant failure, 3 the NNLS solver did not converge.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
    PartialCircularOrdering,
    WeightedSplitSystem,
    count_associahedron_vertices,
    count_distinct_orderings,
    count_nnet_outputs,
)
from .kalmanson import (
    find_kalmanson_ordering,
    first_four_point_violation,
    first_kalmanson_violation,
)
from .length import DEFAULT_CAP, balanced_length
from .tsp import greedy_tsp, read_tsplib_euc2d
from .weights import NonConvergence, clamp_nonnegative, lambda_formula, nnls_fit


@dataclass
class RunConfig:
    """Validated run options shared by the subcommands."""

    input_format: str = "phylip"
    weighting: str = "balanced-tsp"
    alpha: float = 0.5
    method: str = "formula"
    ols_weights: str = "uniform"
    rounding: str = "none"
    tolerance: Optional[float] = None
    cap: int = DEFAULT_CAP
    arithmetic: str = "float"

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise nio.InputError("alpha must be in [0, 1]")
        if self.tolerance is not None and self.tolerance < 0:
            raise nio.InputError("tolerance must be >= 0")
        if self.cap < 1:
            raise nio.InputError("cap must be >= 1")
        if self.arithmetic not in ("float", "rational"):
            raise nio.InputError("arithmetic must be 'float' or 'rational'")

    def scheme(self) -> WeightingScheme:
        if self.weighting == "balanced-tsp":
            return BalancedTSP()
        if self.weighting == "tree":
            return TreeWeighting(self.alpha)
        if self.weighting == "original":
            return OriginalBM()
        raise nio.InputError(f"unknown weighting {self.weighting!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_distances(path: str, config: RunConfig):
    with open(path) as fh:
        text = fh.read()
    if config.input_format == "tsplib" or (
        config.input_format == "auto" and "NODE_COORD_SECTION" in text
    ):
        d = read_tsplib_euc2d(text, rounding=config.rounding)
        labels = [str(k + 1) for k in range(d.n)]
    else:
        d, labels = nio.read_phylip_distances(text)
    if config.arithmetic == "rational":
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


def _print_splits(system: WeightedSplitSystem, labels, show_weights=True):
    splits = sorted(system.splits, key=lambda s: (len(s.block), tuple(sorted(s.block))))
    for s in splits:
        side = "{" + ",".join(labels[t] for t in sorted(s.other)) + "}"
        if show_weights:
            print(f"  {nio.fmt_num(system.weight(s))} \t {side}")
        else:
            print(f"  {side}")


def _estimated_system(d, ordering, config: RunConfig) -> WeightedSplitSystem:
    if config.method == "formula":
        lam = lambda_formula(d, ordering)
        negatives = sum(1 for v in lam.values() if v < 0)
        if negatives:
            raise nio.InputError(
                f"{negatives} negative weights from the closed formula; "
                "use --method formula-clamped or nnls"
            )
        return WeightedSplitSystem(d.n, lam)
    if config.method == "formula-clamped":
        return WeightedSplitSystem(d.n, clamp_nonnegative(lambda_formula(d, ordering)))
    if config.method == "nnls":
        pair_weights = None
        if config.ols_weights == "eta":
            seq = ordering.canonical().order
            n = len(seq)
            pair_weights = {}
            for k in range(n):
                a, b = seq[k], seq[(k + 1) % n]
                pair_weights[(min(a, b), max(a, b))] = 1.0
        return nnls_fit(d, ordering, pair_weights=pair_weights)
    raise nio.InputError(f"unknown estimation method {config.method!r}")


def cmd_nnet(args) -> int:
    config = RunConfig(
        weighting=args.weighting,
        alpha=args.alpha,
        arithmetic="rational" if args.rational else "float",
    )
    d, labels = _read_distances(args.input, config)
    result = run_neighbor_net(d, config.scheme())
    print("ordering:", " ".join(labels[t] for t in result.ordering.order))
    system = WeightedSplitSystem(d.n, {s: 1.0 for s in result.tree_splits})
    if args.estimate != "none":
        config.method = args.estimate
        config.ols_weights = args.ols_weights
        system = _estimated_system(d, result.ordering, config)
    print(f"splits ({len(system)}):")
    _print_splits(system, labels, show_weights=args.estimate != "none")
    if args.nexus:
        with open(args.nexus, "w") as fh:
            fh.write(nio.write_nexus(system, labels, cycle=result.ordering))
        print(f"nexus written to {args.nexus}")
    if args.trace:
        nio.write_trace_jsonl(result.trace, args.trace)
        print(f"trace written to {args.trace}")
    return 0


def cmd_nj(args) -> int:
    config = RunConfig(alpha=args.alpha)
    d, labels = _read_distances(args.input, config)
    splits = neighbor_joining(d, args.alpha)
    print(nio.splits_to_newick(sorted(splits, key=lambda s: sorted(s.block)), labels))
    return 0


def cmd_tsp(args) -> int:
    config = RunConfig(
        weighting=args.weighting,
        alpha=args.alpha,
        rounding=args.round,
        input_format="auto",
    )
    d, labels = _read_distances(args.input, config)
    tour = greedy_tsp(d, config.scheme())
    print("tour:", " ".join(labels[t] for t in tour.ordering.order))
    print("length:", nio.fmt_num(tour.length))
    return 0


def cmd_check(args) -> int:
    config = RunConfig(tolerance=args.tol)
    d, labels = _read_distances(args.input, config)
    tol = args.tol
    fp = first_four_point_violation(d, tol)
    if fp is None:
        print("four-point condition: PASS")
    else:
        taxa = ", ".join(labels[t] for t in fp["taxa"])
        sums = ", ".join(nio.fmt_num(v) for v in fp["sums"])
        print(f"four-point condition: FAIL at ({taxa}); sums {sums}")
    if args.ordering:
        ordering = CircularOrdering(_parse_taxa(args.ordering, labels))
        violation = first_kalmanson_violation(d, ordering, tol)
        if violation is None:
            print("kalmanson conditions: PASS on the supplied ordering")
        else:
            taxa = ", ".join(labels[t] for t in violation["taxa"])
            print(
                f"kalmanson conditions: FAIL at ({taxa}); "
                f"near {nio.fmt_num(violation['near_sum'])}, "
                f"cross {nio.fmt_num(violation['cross_sum'])}, "
                f"wrap {nio.fmt_num(violation['wrap_sum'])}"
            )
            return 0
    else:
        found = find_kalmanson_ordering(d, mode="fast", tol=tol)
        if found is None:
            print("kalmanson ordering: none found by agglomeration-and-verify")
        else:
            print(
                "kalmanson ordering found:",
                " ".join(labels[t] for t in found.order),
            )
    return 0


def cmd_estimate(args) -> int:
    config = RunConfig(
        method=args.method,
        arithmetic="rational" if args.rational else "float",
    )
    config.ols_weights = args.ols_weights
    d, labels = _read_distances(args.input, config)
    if args.ordering:
        ordering = CircularOrdering(_parse_taxa(args.ordering, labels))
    else:
        ordering = run_neighbor_net(d, BalancedTSP()).ordering
        print("ordering (from agglomeration):", " ".join(labels[t] for t in ordering.order))
    system = _estimated_system(d, ordering, config)
    if args.nexus:
        with open(args.nexus, "w") as fh:
            fh.write(nio.write_nexus(system, labels, cycle=ordering))
        print(f"nexus written to {args.nexus}")
    else:
        print(f"splits ({len(system)}):")
        _print_splits(system, labels)
    return 0


def cmd_length(args) -> int:
    config = RunConfig(cap=args.cap, arithmetic="rational" if args.rational else "float")
    d, labels = _read_distances(args.input, config)
    blocks = [
        _parse_taxa(block, labels) for block in args.blocks.split("|") if block.strip()
    ]
    pco = PartialCircularOrdering(blocks)
    value = balanced_length(d, pco, cap=config.cap)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="neighbornet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nnet", help="agglomerate a circular ordering and tree splits")
    p.add_argument("input")
    p.add_argument("--weighting", choices=["balanced-tsp", "tree", "original"], default="balanced-tsp")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--estimate", choices=["none", "formula", "formula-clamped", "nnls"], default="none")
    p.add_argument("--ols-weights", choices=["uniform", "eta"], default="uniform")
    p.add_argument("--nexus", metavar="PATH")
    p.add_argument("--trace", metavar="PATH")
    p.add_argument("--rational", action="store_true")
    p.set_defaults(func=cmd_nnet)

    p = sub.add_parser("nj", help="neighbor-joining splits as Newick")
    p.add_argument("input")
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_nj)

    p = sub.add_parser("tsp", help="greedy tour from the agglomeration")
    p.add_argument("input", help="TSPLIB EUC_2D or PHYLIP distance file")
    p.add_argument("--weighting", choices=["balanced-tsp", "tree", "original"], default="balanced-tsp")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--round", choices=["none", "tsplib"], default="none")
    p.set_defaults(func=cmd_tsp)

    p = sub.add_parser("check", help="four-point and Kalmanson condition report")
    p.add_argument("input")
    p.add_argument("--ordering", help="comma-separated labels or indices")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("estimate", help="split weights for an ordering")
    p.add_argument("input")
    p.add_argument("--ordering", help="comma-separated labels or indices")
    p.add_argument("--method", choices=["formula", "formula-clamped", "nnls"], default="nnls")
    p.add_argument("--ols-weights", choices=["uniform", "eta"], default="uniform")
    p.add_argument("--nexus", metavar="PATH")
    p.add_argument("--rational", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("length", help="balanced length of a partial circular ordering")
    p.add_argument("input")
    p.add_argument("--blocks", required=True, help="e.g. 'A,B|C|D,E' (paths separated by |)")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--rational", action="store_true")
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("enumerate", help="counting identities table")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
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
    except Exception as exc:  # invariant failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
