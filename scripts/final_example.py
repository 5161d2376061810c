#!/usr/bin/env python3
"""Count minimal Rees-ideal generators of x-degree 3 for the showcase pair.

Both instances have n=3 and column degrees (4, 7); they differ in a single
corner entry, which changes the count of T-degree-4 generators from four to
three.  The counts come from the independent saturation oracle.
"""
import argparse
import pathlib
import time

from rees import oracle
from rees.cli import load_instance

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-t", type=int, default=8,
                    help="largest T-degree scanned (default 8)")
    args = ap.parse_args()

    for name in ("final_example", "final_variant"):
        inp = load_instance(FIXTURES / f"{name}.json")
        start = time.monotonic()
        K = oracle.saturated_ideal(inp, t_max=args.max_t)
        table = oracle.minimal_generator_bidegrees(K, ((3, 3), (1, args.max_t)))
        elapsed = time.monotonic() - start
        marks = sorted(table.marks())
        total = sum(c for _, _, c in marks)
        print(f"{name}: corner entry {inp.phi.rows[0][0]}")
        print(f"  minimal generators at x-degree 3 "
              f"(T-degree up to {args.max_t}): {total}")
        for x, t, count in marks:
            print(f"    bidegree ({x},{t}): {count}")
        print(f"  oracle time {elapsed:.2f}s")
        print()


if __name__ == "__main__":
    main()
