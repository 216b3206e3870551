#!/usr/bin/env python3
"""Run every named verification suite and print one line per suite.

Default bounds finish in a few seconds; --full uses the heavyweight
bounds of the acceptance battery.
"""

import argparse
import sys
import time
from fractions import Fraction

from signcrystal.engine import verify
from signcrystal.params import IRRATIONAL, Params


THIRD = Params(2, Fraction(1, 3), (0, 1))
IRR = Params(3, IRRATIONAL, (0, 1, 2))

# (suite, bounds) for each run, at --full's bounds and at the default ones
FULL_RUNS = [
    ("axioms", {"n": 14}),
    ("confluence", {"n": 10, "trials": 100, "seed": 0}),
    ("confluence", {"n": 15, "trials": 1, "seed": 0}),
    ("comb_lemma", {"n": 12}),
    ("boundary_invariance", {"params": THIRD, "max_boxes": 8}),
    ("boundary_invariance", {"params": IRR, "max_boxes": 8}),
    ("realization_consistency", {"params": THIRD, "max_boxes": 8}),
    ("realization_consistency", {"params": IRR, "max_boxes": 8}),
    ("gl_realization", {"n": 4, "p": 3, "entry_bound": 8}),
    ("gl_realization", {"n": 3, "p": 0, "entry_bound": 6}),
    ("depth_irrational", {"max_boxes": 8}),
]
QUICK_RUNS = [
    ("axioms", {"n": 11}),
    ("confluence", {"n": 8, "trials": 25, "seed": 0}),
    ("comb_lemma", {"n": 10}),
    ("boundary_invariance", {"params": THIRD, "max_boxes": 6}),
    ("realization_consistency", {"params": THIRD, "max_boxes": 6}),
    ("gl_realization", {"n": 3, "p": 3, "entry_bound": 6}),
    ("depth_irrational", {"max_boxes": 8}),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()

    runs = FULL_RUNS if args.full else QUICK_RUNS
    failures = 0
    for suite, bounds in runs:
        started = time.monotonic()
        report = verify(suite, **bounds)
        elapsed = time.monotonic() - started
        status = "pass" if report.passed else "FAIL"
        shown = {k: v for k, v in bounds.items() if k != "params"}
        if "params" in bounds:
            p = bounds["params"]
            shown["params"] = f"ell={p.ell},kappa={p.kappa},s={p.charges}"
        print(f"{status}  {suite:<26} {report.checked:>8} checks  {elapsed:6.2f}s  {shown}")
        if not report.passed:
            failures += 1
            print(f"      counterexample: {report.counterexample}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
