#!/usr/bin/env python3
"""Enumerate all complete tau-slices of a representation-finite algebra.

Runs the backtracking search over tau-rigid subsets for each requested
algebra (a bundled fixture name or a path to an ``.alg`` file) and prints
the dimension vectors of every slice found, optionally with the shape of
its endomorphism algebra.

Usage:
    python3 scripts/slice_census.py a3 fig1 ex5_tilde
    python3 scripts/slice_census.py my_algebra.alg --endo --max-nodes 256
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tauslice import fixtures as fixdata  # noqa: E402
from tauslice.algebra import CapExceeded  # noqa: E402
from tauslice.artheory import end_algebra, is_hereditary  # noqa: E402
from tauslice.tautilt import find_complete_tau_slices, is_complete_slice  # noqa: E402
from tauslice.formats import parse_algebra_text  # noqa: E402

DEFAULTS = ["a2", "a3", "ex1", "ex2", "fig1", "fig3",
            "ex5_tilde", "ex5_a", "ex5_aprime", "ex5_c"]


def load(spec):
    if spec in fixdata.ALGEBRAS:
        return fixdata.algebra(spec)
    return parse_algebra_text(Path(spec).read_text())


def census(name, a, args):
    try:
        found = find_complete_tau_slices(a, limit=args.limit,
                                         max_nodes=args.max_nodes)
    except CapExceeded as e:
        print(f"{name}: skipped ({e})")
        return
    print(f"{name}: {len(found)} complete tau-slice(s)")
    for k, s in enumerate(found, 1):
        tags = []
        if is_complete_slice(s, max_nodes=args.max_nodes):
            tags.append("complete slice")
        if args.endo:
            e = end_algebra(s.module()).algebra
            arrows = ", ".join(f"{ar.source}->{ar.target}"
                               for ar in e.quiver.arrows)
            tags.append(f"End: {arrows or 'no arrows'}"
                        + ("" if is_hereditary(e) else " (not hereditary)"))
        suffix = f"   [{'; '.join(tags)}]" if tags else ""
        print(f"  {k:2d}. {sorted(s.dim_vectors())}{suffix}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("algebras", nargs="*", default=DEFAULTS,
                    help="fixture names or .alg paths (default: all bundled "
                         "finite-type fixtures)")
    ap.add_argument("--endo", action="store_true",
                    help="also print each slice's endomorphism quiver")
    ap.add_argument("--limit", type=int, default=10000,
                    help="backtracking budget (default 10000)")
    ap.add_argument("--max-nodes", type=int, default=512,
                    help="cap on the module enumeration (default 512)")
    args = ap.parse_args(argv)
    for spec in args.algebras:
        census(spec, load(spec), args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
