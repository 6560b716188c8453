"""Command-line interface: every computation behind one subcommand.

Each invocation prints a single JSON document on stdout (logs go to stderr)
and exits 0 on success, 1 on usage errors, 2 on domain errors, and 3 when a
resource guard trips.  The JSON always echoes the resolved configuration so
runs are reproducible.  Only the sampling subcommands (weingarten, mc-det,
mc-tube) take a seed: 42 by default, overridable by the SVGEOM_SEED
environment variable and the --seed flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bw_algebra import SpaceSpec
from .errors import DomainError, ResourceError
from .geodesics_reach import extremal_curvature, reach
from .matchings import (
    MINOR_MODES,
    MatchingProblem,
    expected_minor_sum,
    matching_count,
    matching_determinant,
)
from .montecarlo import McConfig, mc_expected_det, mc_tube_volume
from .selftest import run_all
from .tube import EXPONENT_CONVENTIONS, tube_volume
from .weingarten import (DEFAULT_PROFILE, PROFILE_NAMES,
                         sample_gaussian_weingarten, variance_profile)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text}") from exc


def _default_seed() -> int:
    env = os.environ.get("SVGEOM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"ignoring non-integer SVGEOM_SEED={env!r}", file=sys.stderr)
    return 42


def _add_space_args(sub, required=True):
    sub.add_argument("--dims", type=_int_list, required=required,
                     help="comma-separated factor dims, e.g. 2,2,1,1")
    sub.add_argument("--degrees", type=_int_list, required=required,
                     help="comma-separated factor degrees, e.g. 1,1,1,1")


def _add_common_args(sub, table=False, seed=False):
    if seed:
        sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--json", metavar="PATH", default=None,
                     help="also write the JSON document to PATH")
    if table:
        sub.add_argument("--csv", "--out", dest="csv", metavar="PATH", default=None,
                         help="write tabular output (matrix, histogram, terms) to PATH")


def build_parser() -> _Parser:
    parser = _Parser(prog="svgeom",
                     description="metric geometry of rank-one tensor manifolds")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("reach", help="reach and its two radii")
    _add_space_args(sub)
    _add_common_args(sub)

    sub = subs.add_parser("curvature", help="extremal curvature of curves")
    _add_space_args(sub)
    _add_common_args(sub)

    sub = subs.add_parser("weingarten", help="sample a random shape operator")
    _add_space_args(sub)
    sub.add_argument("--method", choices=("assemble", "direct"), default="assemble")
    sub.add_argument("--profile", choices=PROFILE_NAMES, default="weingarten",
                     help="variance profile for the direct sampler")
    _add_common_args(sub, table=True, seed=True)

    sub = subs.add_parser("dd", help="signed weighted matching sum")
    _add_space_args(sub)
    sub.add_argument("--profile", choices=PROFILE_NAMES, default=DEFAULT_PROFILE)
    _add_common_args(sub)

    sub = subs.add_parser("minors", help="expected principal-minor sum")
    _add_space_args(sub)
    sub.add_argument("--i", type=int, default=1)
    sub.add_argument("--profile", choices=PROFILE_NAMES, default=DEFAULT_PROFILE)
    sub.add_argument("--minor-mode", choices=MINOR_MODES, default="corrected")
    _add_common_args(sub)

    sub = subs.add_parser("tube", help="tube volume around the manifold")
    _add_space_args(sub)
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--exponent-convention", choices=EXPONENT_CONVENTIONS,
                     default="corrected")
    sub.add_argument("--minor-mode", choices=MINOR_MODES, default="corrected")
    sub.add_argument("--profile", choices=PROFILE_NAMES, default=DEFAULT_PROFILE)
    _add_common_args(sub, table=True)

    sub = subs.add_parser("mc-det", help="Monte Carlo expected determinant")
    _add_space_args(sub)
    sub.add_argument("--samples", type=int, default=100_000)
    sub.add_argument("--profile", choices=PROFILE_NAMES, default=DEFAULT_PROFILE)
    _add_common_args(sub, table=True, seed=True)

    sub = subs.add_parser("mc-tube", help="Monte Carlo tube volume")
    _add_space_args(sub)
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--samples", type=int, default=1_000_000)
    _add_common_args(sub, seed=True)

    sub = subs.add_parser("selftest", help="run the acceptance suite")
    sub.add_argument("--full", action="store_true",
                     help="full sample counts instead of the quick versions")
    _add_common_args(sub)
    return parser


def _space(args) -> SpaceSpec:
    return SpaceSpec(args.dims, args.degrees)


def _config_doc(args, seed=None) -> dict:
    doc = {}
    if getattr(args, "dims", None) is not None:
        doc["dims"] = list(args.dims)
    if getattr(args, "degrees", None) is not None:
        doc["degrees"] = list(args.degrees)
    for key in ("profile", "minor_mode", "exponent_convention", "epsilon",
                "samples", "method", "i", "full"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    if seed is not None:
        doc["seed"] = seed
    return doc


def _dispatch(args, seed: int | None) -> dict:
    if args.subcommand == "reach":
        report = reach(_space(args))
        return {"config": _config_doc(args), "rho1": report.rho1,
                "rho2": report.rho2, "reach": report.reach,
                "regime": report.regime}

    if args.subcommand == "curvature":
        ext = extremal_curvature(_space(args))
        return {"config": _config_doc(args),
                "max": ext.max_value, "argmax_theta": list(ext.argmax),
                "min": ext.min_value, "argmin_theta": list(ext.argmin),
                "numeric_max": ext.numeric_max, "numeric_min": ext.numeric_min}

    if args.subcommand == "weingarten":
        space = _space(args)
        profile = variance_profile(args.profile, space.degrees)
        mat = sample_gaussian_weingarten(space, seed, args.method, profile)
        if args.csv:
            mat.to_csv(args.csv)
        return {"config": _config_doc(args, seed),
                "matrix": [[float(x) for x in row] for row in mat.entries]}

    if args.subcommand == "dd":
        profile = variance_profile(args.profile, args.degrees)
        problem = MatchingProblem(args.dims, args.degrees, profile)
        return {"config": _config_doc(args),
                "sizes": list(args.dims), "degrees": list(args.degrees),
                "profile": args.profile,
                "D": matching_determinant(problem),
                "matching_count": matching_count(problem)}

    if args.subcommand == "minors":
        space = _space(args)
        profile = variance_profile(args.profile, space.degrees)
        value = expected_minor_sum(space, args.i, profile, args.minor_mode)
        return {"config": _config_doc(args), "i": args.i, "value": value}

    if args.subcommand == "tube":
        space = _space(args)
        profile = variance_profile(args.profile, space.degrees)
        report = tube_volume(space, args.epsilon, args.exponent_convention,
                             args.minor_mode, profile)
        if args.csv:
            report.terms_csv(args.csv)
        return json.loads(report.to_json()) | {"config": _config_doc(args)}

    if args.subcommand == "mc-det":
        profile = variance_profile(args.profile, args.degrees)
        problem = MatchingProblem(args.dims, args.degrees, profile)
        stats = mc_expected_det(problem, McConfig(args.samples, seed),
                                output=args.csv)
        return {"config": _config_doc(args, seed), "mean": stats.mean,
                "std_error": stats.std_error, "samples": stats.samples,
                "seed": stats.seed,
                "expected": matching_determinant(problem)}

    if args.subcommand == "mc-tube":
        space = _space(args)
        cfg = McConfig(args.samples, seed)
        est = mc_tube_volume(space, args.epsilon, cfg)
        return {"config": _config_doc(args, seed), "volume": est.volume,
                "std_error": est.std_error, "fraction": est.fraction,
                "samples": est.samples, "seed": est.seed}

    if args.subcommand == "selftest":
        results = run_all(full=args.full)
        for res in results:
            print(res.line(), file=sys.stderr)
        return {"config": _config_doc(args),
                "mode": "full" if args.full else "quick",
                "all_passed": all(r.passed for r in results),
                "criteria": [{"name": r.name, "passed": r.passed,
                              "seconds": round(r.seconds, 3),
                              "detail": r.detail} for r in results]}

    raise DomainError(f"unknown subcommand {args.subcommand!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    seed = None
    if "seed" in args:
        seed = args.seed if args.seed is not None else _default_seed()
    try:
        doc = _dispatch(args, seed)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    text = json.dumps(doc, indent=2)
    print(text)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if args.subcommand == "selftest" and not doc["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
