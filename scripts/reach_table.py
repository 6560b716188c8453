#!/usr/bin/env python3
"""Print the reach for a range of total degrees.

The reach depends only on the total degree, not on the factor dimensions;
the table lists several spaces per degree to make that visible.  The
spaces are those of the selftest's reach-table criterion.
"""

import argparse

from svgeom import SpaceSpec, reach
from svgeom.selftest import REACH_SPACES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    print(f"{'d':>3} {'dims':>14} {'degrees':>14} {'rho1':>12} "
          f"{'rho2':>12} {'reach':>12}  regime")
    for d, entries in REACH_SPACES.items():
        for dims, degrees in entries:
            rep = reach(SpaceSpec(dims, degrees))
            print(f"{d:>3} {str(dims):>14} {str(degrees):>14} "
                  f"{rep.rho1:>12.9f} {rep.rho2:>12.9f} {rep.reach:>12.9f}  "
                  f"{rep.regime}")


if __name__ == "__main__":
    main()
