#!/usr/bin/env python3
"""Time the saturation oracle against the bundled instances.

The recursion pipeline produces certified generators in milliseconds; this
script shows what the independent Groebner/saturation route costs on the same
inputs.  Every fixture but table2 saturates in about a second or less; table2
takes about a minute and is skipped unless --all is given.
"""
import argparse
import pathlib
import time

from rees import oracle
from rees.cli import load_instance

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"
FAST = ("quadric_cubic", "almost_linear", "final_example",
        "final_variant", "table1", "table3")
SLOW = ("table2",)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--all", action="store_true",
                    help="include table2, which takes about a minute")
    ap.add_argument("names", nargs="*",
                    help="explicit instance names (default: the fast set)")
    args = ap.parse_args()

    names = tuple(args.names) if args.names else FAST + (SLOW if args.all else ())
    for name in names:
        inp = load_instance(FIXTURES / f"{name}.json")
        start = time.monotonic()
        K = oracle.saturated_ideal(inp)
        elapsed = time.monotonic() - start
        print(f"{name}: n={inp.n} degrees={list(inp.col_degrees)} "
              f"basis size {len(K.generators)}  {elapsed:.2f}s")


if __name__ == "__main__":
    main()
