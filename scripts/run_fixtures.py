#!/usr/bin/env python3
"""Run the built-in fixture scripts and print their reports.

Usage:
    python3 scripts/run_fixtures.py [--format text|json]

Equivalent to piping each `frobval fixtures` script through `frobval run -`,
kept as a one-command demo of the three headline examples: the irrational
monomial valuation (Abhyankar yet not F-finite), the lex valuation
(principal maximal ideal, nontrivial splitting prime), and the
factorial-gap series restriction (discrete, non-Abhyankar, not F-finite).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from frobval.cli import FIXTURE_SCRIPTS, run_script  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--format", choices=["text", "json"], default="text")
    args = ap.parse_args(argv)
    worst = 0
    for name, script in FIXTURE_SCRIPTS.items():
        print(f"=== {name} ===")
        code, out = run_script(script, fmt=args.format)
        for line in out:
            print(line)
        print()
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
