#!/usr/bin/env python3
"""Print the filtration depth of the named generator families.

Small interactive companion to `autfilt verify depth-table`: shows a
handful of concrete members per family with their depth and support.
"""

import argparse

from autfilt import autf, magnus


def row(name, phi, cutoff):
    depth = magnus.johnson_depth(phi, cutoff)
    label = str(depth) if depth is not None else f">={cutoff}"
    support = ",".join(str(i) for i in sorted(autf.minimal_support(phi)))
    print(f"{name:22s} depth={label:>4s} support={{{support}}}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--cutoff", type=int, default=5)
    args = parser.parse_args()
    n, cutoff = args.n, args.cutoff

    print(f"rank n={n}, cutoff {cutoff}")
    row("C(1,2)", autf.make_magnus_C(1, 2, n), cutoff)
    row("M(1,2,3)", autf.make_magnus_M(1, 2, 3, n), cutoff)
    row("T(1;2,3)", autf.make_T(1, (2, 3), n), cutoff)
    row("T(1;2,3,4)", autf.make_T(1, (2, 3, 4), n), cutoff)
    if n >= 5:
        row("T(1;2,3,2,4)", autf.make_T(1, (2, 3, 2, 4), n), cutoff)
        row("S(1,2;i=3,j=4)", autf.make_S((1, 2), 3, 4, n), cutoff)
        row("S(1,2,3;i=4,j=5)", autf.make_S((1, 2, 3), 4, 5, n), cutoff)
    comm = autf.group_commutator(
        autf.make_magnus_C(1, 2, n), autf.make_magnus_M(2, 3, 1, n)
    )
    row("[C(1,2),M(2,3,1)]", comm, cutoff)


if __name__ == "__main__":
    main()
