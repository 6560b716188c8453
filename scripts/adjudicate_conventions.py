#!/usr/bin/env python3
"""Adjudicate the selectable conventions against Monte Carlo oracles.

Three switches are settled empirically:
  1. the sine exponent of the radial tube integral,
  2. the binomial multiplicities in the expected minor sums,
  3. which variance profile reproduces the assembled shape operator.
"""

import argparse

import numpy as np
from scipy import stats as sstats

from svgeom import (
    McConfig,
    SpaceSpec,
    expected_minor_sum,
    mc_minor_sum,
    mc_tube_volume,
    tube_volume,
    variance_profile,
)
from svgeom.matchings import MINOR_MODES
from svgeom.weingarten import (
    PROFILE_NAMES,
    gaussian_weingarten_batch,
    sample_block_matrix_batch,
)


def sigmas(value, reference, std_error):
    return abs(value - reference) / std_error


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=300_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print("== radial exponent (quadratic curve, ambient 2-sphere) ==")
    space = SpaceSpec((1,), (2,))
    for eps in (0.1, 0.3):
        est = mc_tube_volume(space, eps, McConfig(args.samples, args.seed))
        corrected = tube_volume(space, eps, "corrected").volume
        literal = tube_volume(space, eps, "paper").volume
        print(f"  eps={eps}: mc {est.volume:.5f} +/- {est.std_error:.5f} | "
              f"corrected {corrected:.5f} ({sigmas(est.volume, corrected, est.std_error):.1f} SE) | "
              f"literal {literal:.5f} ({sigmas(est.volume, literal, est.std_error):.0f} SE)")

    print("== minor multiplicities (order-two product of circles) ==")
    seg = SpaceSpec((2, 2), (1, 1))
    est = mc_minor_sum(seg, 1, McConfig(args.samples, args.seed))
    for mode in MINOR_MODES:
        value = expected_minor_sum(seg, 1, mode=mode)
        print(f"  {mode:>9}: {value:+.4f} "
              f"({sigmas(est.mean, value, est.std_error):.1f} SE from mc "
              f"{est.mean:+.4f})")

    print("== variance profile, minor level (degree-three curve family) ==")
    cubic = SpaceSpec((2,), (3,))
    est = mc_minor_sum(cubic, 1, McConfig(args.samples, args.seed))
    for name in PROFILE_NAMES:
        value = expected_minor_sum(cubic, 1, variance_profile(name, cubic.degrees))
        print(f"  {name:>10}: {value:+.4f} "
              f"({sigmas(est.mean, value, est.std_error):.1f} SE from mc "
              f"{est.mean:+.4f})")

    print("== variance profile, distribution level (KS on determinants) ==")
    rng = np.random.default_rng(args.seed)
    assembled = np.linalg.det(gaussian_weingarten_batch(cubic, rng, 20_000))
    for name in PROFILE_NAMES:
        profile = variance_profile(name, cubic.degrees)
        direct = np.linalg.det(
            sample_block_matrix_batch(cubic.dims, profile, rng, 20_000))
        pvalue = sstats.ks_2samp(assembled, direct).pvalue
        verdict = "consistent" if pvalue > 0.001 else "rejected"
        print(f"  {name:>10}: KS p = {pvalue:.3g}  -> {verdict}")

    print("== tube volume with the adjudicated profile (quadratic surface) ==")
    quad = SpaceSpec((2,), (2,))
    est = mc_tube_volume(quad, 0.4, McConfig(args.samples, args.seed))
    for name in PROFILE_NAMES:
        value = tube_volume(quad, 0.4,
                            profile=variance_profile(name, quad.degrees)).volume
        print(f"  {name:>10}: {value:.5f} "
              f"({sigmas(est.volume, value, est.std_error):.1f} SE from mc "
              f"{est.volume:.5f})")


if __name__ == "__main__":
    main()
