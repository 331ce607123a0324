#!/usr/bin/env python3
"""Numeric monodromy of the degree-3 curve system versus the printed generators.

Continues a solution basis of the certified scalar ODE around the three
singular points and compares conjugacy invariants (characteristic polynomial
coefficients of each generator and of pairwise products) against the
tabulated matrices.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkzkit.continuation import charpoly, mat_mul, numeric_monodromy
from gkzkit.curves import beukers_generators

BETAS = [
    (Fraction(1, 5), Fraction(1, 3)),
    (Fraction(1, 7), Fraction(2, 5)),
    (Fraction(-1, 4), Fraction(1, 6)),
]


def cp_err(a, b):
    return max(abs(x - y) for x, y in zip(charpoly(a), charpoly(b)))


def main():
    for beta in BETAS:
        res = numeric_monodromy(3, beta)
        printed = beukers_generators(3, beta).matrices
        print(f"\nbeta = ({beta[0]}, {beta[1]})")
        print(f"  trivial loop error: {res.trivial_loop_error:.2e}")
        for i in range(3):
            print(f"  charpoly(gen{i + 1}) error: {cp_err(res.generators[i], printed[i]):.2e}")
        for i in range(3):
            for j in range(i + 1, 3):
                err = cp_err(
                    mat_mul(res.generators[i], res.generators[j]),
                    mat_mul(printed[i], printed[j]),
                )
                print(f"  charpoly(gen{i + 1} gen{j + 1}) error: {err:.2e}")
        det0 = dict(res.invariants)["loop0_det"]
        print(f"  |det| of the loop around the origin: {abs(det0):.12f}")


if __name__ == "__main__":
    main()
