#!/usr/bin/env python3
"""Tabulate depth and support strata for all small multipartitions.

Example:

    python scripts/depth_survey.py --kappa 1/2 --charges 0 --max-boxes 6
    python scripts/depth_survey.py --kappa irrational --charges 0,1 --max-boxes 5
"""

import argparse
from fractions import Fraction

from signcrystal.engine import support
from signcrystal.params import IRRATIONAL, Params
from signcrystal.young import multipartitions_up_to


def parse_kappa(text):
    if text == "irrational":
        return IRRATIONAL
    return Fraction(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa", default="1/2", help="a/b or 'irrational'")
    parser.add_argument("--charges", default="0", help="comma-separated integers")
    parser.add_argument("--max-boxes", type=int, default=6)
    args = parser.parse_args()

    charges = tuple(int(s) for s in args.charges.split(","))
    params = Params(len(charges), parse_kappa(args.kappa), charges)
    memo = {}
    print(f"kappa={args.kappa} charges={charges} e={params.e or 'infinity'}")
    print(f"{'multipartition':<28}{'n':>4}{'depth':>7}  stratum")
    for m in multipartitions_up_to(params.ell, args.max_boxes):
        s = support(params, m, memo)
        if s.j is None:
            stratum = f"i={s.depth}, j in 0..{s.j_max} (undetermined)"
        else:
            stratum = f"i={s.depth}, j={s.j}"
        print(f"{str(m):<28}{m.size:>4}{s.depth:>7}  {stratum}")


if __name__ == "__main__":
    main()
