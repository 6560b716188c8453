"""Command-line interface: every computation behind one subcommand.

Each invocation prints a single JSON document on stdout (logs go to stderr)
and exits 0 on success, 1 on usage errors, an unwritable --csv or --json
path among them, 2 on domain errors, and 3 when a resource guard trips.
The JSON always echoes the resolved configuration so runs are reproducible,
and it is strict (RFC 8259): no NaN or Infinity, so the infinite standard
error of a one-sample mc-det prints as null.  Only the sampling subcommands
(weingarten, mc-det, mc-tube) take a seed: 42 by default, set by --seed.

Each subcommand is one entry of `SUBCOMMANDS` (help text, handler, options),
the only place to add a subcommand or an option: the parser, the config echo
and the dispatch all read it.  The table is constant, so one parser, built
at import, serves every call of `main` in a process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

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


def _option(*flags, **spec):
    """The arguments of one `add_argument` call."""
    return flags, spec


_SPACE = (
    _option("--dims", type=_int_list, required=True,
            help="comma-separated factor dims, e.g. 2,2,1,1"),
    _option("--degrees", type=_int_list, required=True,
            help="comma-separated factor degrees, e.g. 1,1,1,1"),
)
_PROFILE = _option("--profile", choices=PROFILE_NAMES, default=DEFAULT_PROFILE)
_MINOR_MODE = _option("--minor-mode", choices=MINOR_MODES, default="corrected")
_EPSILON = _option("--epsilon", type=float, required=True)
_SEED = _option("--seed", type=int, default=42)
_CSV = _option("--csv", metavar="PATH", default=None,
               help="write tabular output (matrix, histogram, terms) to PATH")


def _space(args) -> SpaceSpec:
    return SpaceSpec(args.dims, args.degrees)


def _profile(args):
    return variance_profile(args.profile, args.degrees)


# A handler takes the parsed namespace, writes any --csv with its result's
# own writer (mc-det: `stats.histogram.to_csv`), and returns the document
# after its "config", which is read from the namespace once the handler
# returns: an option the handler resolves in place echoes the value it used.

def _reach(args) -> dict:
    return asdict(reach(_space(args)))


def _curvature(args) -> dict:
    ext = extremal_curvature(_space(args))
    return {"max": ext.max_value, "argmax_theta": list(ext.argmax),
            "min": ext.min_value, "argmin_theta": list(ext.argmin),
            "numeric_max": ext.numeric_max, "numeric_min": ext.numeric_min}


def _weingarten(args) -> dict:
    space = _space(args)
    # The assembled operator has no variance profile to choose.
    if args.method == "assemble":
        if args.profile is not None:
            raise argparse.ArgumentError(None, "--profile applies to --method direct only")
        del args.profile
        profile = None
    else:
        args.profile = args.profile or "weingarten"
        profile = _profile(args)
    mat = sample_gaussian_weingarten(space, args.seed, args.method, profile)
    if args.csv:
        mat.to_csv(args.csv)
    return {"matrix": mat.entries.tolist()}


def _dd(args) -> dict:
    problem = MatchingProblem(args.dims, args.degrees, _profile(args))
    return {"sizes": args.dims, "degrees": args.degrees,
            "profile": args.profile,
            "D": matching_determinant(problem),
            "matching_count": matching_count(problem)}


def _minors(args) -> dict:
    value = expected_minor_sum(_space(args), args.i, _profile(args),
                               args.minor_mode)
    return {"i": args.i, "value": value}


def _tube(args) -> dict:
    report = tube_volume(_space(args), args.epsilon, args.exponent_convention,
                         args.minor_mode, _profile(args))
    if args.csv:
        report.terms_csv(args.csv)
    return report.to_json_dict()


def _mc_det(args) -> dict:
    problem = MatchingProblem(args.dims, args.degrees, _profile(args))
    stats = mc_expected_det(problem, McConfig(args.samples, args.seed))
    if args.csv:
        stats.histogram.to_csv(args.csv)
    # One sample has an infinite standard error, which JSON cannot hold.
    std_error = stats.std_error if math.isfinite(stats.std_error) else None
    return {"mean": stats.mean, "std_error": std_error,
            "samples": stats.samples, "seed": stats.seed,
            "expected": matching_determinant(problem)}


def _mc_tube(args) -> dict:
    est = mc_tube_volume(_space(args), args.epsilon, McConfig(args.samples, args.seed))
    return asdict(est)


def _selftest(args) -> dict:
    # Imported here: only this subcommand needs the largest module.
    from .selftest import run_all
    results = run_all(full=args.full)
    for res in results:
        print(res.line(), file=sys.stderr)
    return {"mode": "full" if args.full else "quick",
            "all_passed": all(r.passed for r in results),
            "criteria": [{"name": r.name, "passed": r.passed,
                          "seconds": round(r.seconds, 3),
                          "detail": r.detail} for r in results]}


class Subcommand(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace], dict]
    options: tuple  # `_option` entries; every subcommand also takes --json


SUBCOMMANDS = {
    "reach": Subcommand("reach and its two radii", _reach, _SPACE),
    "curvature": Subcommand("extremal curvature of curves", _curvature, _SPACE),
    "weingarten": Subcommand("sample a random shape operator", _weingarten, (
        *_SPACE,
        _option("--method", choices=("assemble", "direct"), default="assemble"),
        _option("--profile", choices=PROFILE_NAMES, default=None,
                help="variance profile of --method direct (default: weingarten)"),
        _SEED, _CSV)),
    "dd": Subcommand("signed weighted matching sum", _dd, (*_SPACE, _PROFILE)),
    "minors": Subcommand("expected principal-minor sum", _minors, (
        *_SPACE, _option("--i", type=int, default=1), _PROFILE, _MINOR_MODE)),
    "tube": Subcommand("tube volume around the manifold", _tube, (
        *_SPACE, _EPSILON,
        _option("--exponent-convention", choices=EXPONENT_CONVENTIONS,
                default="corrected"),
        _MINOR_MODE, _PROFILE, _CSV)),
    "mc-det": Subcommand("Monte Carlo expected determinant", _mc_det, (
        *_SPACE, _option("--samples", type=int, default=100_000), _PROFILE,
        _SEED, _CSV)),
    "mc-tube": Subcommand("Monte Carlo tube volume", _mc_tube, (
        *_SPACE, _EPSILON, _option("--samples", type=int, default=1_000_000),
        _SEED)),
    "selftest": Subcommand("run the acceptance suite", _selftest, (
        _option("--full", action="store_true",
                help="full sample counts instead of the quick versions"),)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="svgeom",
                     description="metric geometry of rank-one tensor manifolds")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, entry in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=entry.help)
        for flags, spec in entry.options:
            sub.add_argument(*flags, **spec)
        sub.add_argument("--json", metavar="PATH", default=None,
                         help="also write the JSON document to PATH")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        body = SUBCOMMANDS[args.subcommand].handler(args)
        config = {key: value for key, value in vars(args).items()
                  if key not in ("subcommand", "json", "csv")}
        text = json.dumps({"config": config, **body}, indent=2, allow_nan=False)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    except (argparse.ArgumentError, OSError) as exc:
        print(f"svgeom {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    print(text)
    return 0 if body.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
