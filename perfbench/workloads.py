"""Workload inputs for the svgeom benchmark, generated from a seed.

Each workload is a fixed list of operations (one "pass") that the worker
repeats for the measured time, plus a short warm-up list that belongs to
set-up.  An operation is plain data: the worker turns it into one call of a
public svgeom function, so svgeom only ever sees the generated inputs.

The seed picks radii, Monte Carlo seeds, operation order and, for the CLI
workload, the spaces drawn from fixed pools.  The structure of a pass (which
spaces, how many calls of each kind, how many samples) does not depend on
the seed, so per-operation cost classes stay put and the latency
percentiles land inside a class rather than on a boundary between two.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-tube", "mc-vectorized", "mc-generic", "cli-queries")
PROFILES = ("def-d", "weingarten", "corollary")

# exact-tube: (dims, degrees, radii).  Every space runs under all three
# profiles.  The n = 24 space that costs ~0.5 s per call gets two radii,
# so its six calls are 18 % of the 33 per pass and p90 falls inside them;
# the median falls among the ~5 ms calls on n = 12-24 spaces.
EXACT_TUBE_SPACES = (
    ((6, 6, 6, 6), (1, 1, 1, 1), 2),
    ((8, 8, 8), (1, 1, 2), 1),
    ((3, 3, 3, 3), (2, 2, 2, 2), 1),
    ((12, 12), (1, 1), 1),
    ((4, 4, 4), (1, 1, 1), 1),
    ((8, 8), (2, 1), 1),
    ((6, 6), (2, 2), 1),
    ((5, 5), (1, 1), 1),
    ((4, 4), (1, 2), 1),
    ((2, 2, 2), (1, 2, 1), 1),
)
# Below sqrt(1/2), the smallest radius the library reports as a reach.
EXACT_TUBE_EPS = (0.05, 0.7)

# mc-vectorized: (kind, dims, degrees, extra, samples).  Sample counts are
# chosen so every call costs 0.1-0.25 s on a 2-core x86 box, which lets a
# 20 s run hold well over 100 calls for the p90 rule; the costliest call
# is one of seven, so p90 falls inside its cost class.
MC_VECTORIZED_CALLS = (
    ("mc_tube_volume", (1,), (2,), None, 200_000),
    ("mc_tube_volume", (1,), (2,), None, 200_000),
    ("mc_tube_volume", (3,), (2,), None, 50_000),
    ("mc_tube_volume", (2, 2), (1, 1), None, 50_000),
    ("mc_expected_det", (2, 2, 1, 1), (1, 1, 1, 1), None, 100_000),
    ("mc_minor_sum", (2, 2), (1, 1), 1, 100_000),
    ("mc_minor_sum", (3, 3), (2, 2), 2, 50_000),
)
MC_VECTORIZED_EPS = (0.2, 0.6)

# mc-generic: spaces with no vectorized rank-one path.  Calls per pass and
# samples per call put the three spaces in cost classes that stay apart:
# (1,1,1)/(1,1,1), whose per-sample cost varies most, at ~50 ms per call;
# (1,1)/(2,1) at ~90 ms; (1,)/(3,) at ~240 ms.  The median call then falls
# inside the middle class and p90 inside the last, both of steady cost.
# Radii are drawn from ranges whose expected hit fraction gives each space
# 6-30 hits per pass for the binomial check.
MC_GENERIC_SPACES = (
    # dims, degrees, calls per pass, samples per call, eps range
    ((1, 1, 1), (1, 1, 1), 8, 3, (0.44, 0.50)),
    ((1, 1), (2, 1), 18, 14, (0.25, 0.31)),
    ((1,), (3,), 8, 10, (0.22, 0.30)),
)

# cli-queries: subcommand -> calls per cycle.  mc-tube is the costliest
# query and gets four of 27 slots, so p90 falls inside its cost class; the
# ~2.7 ms queries (reach, dd, minors, weingarten) hold the middle 56 %.
# Queries on drawn spaces use 1 + k % 3 factors in their k-th slot, so the
# curvature optimizer's cost, which grows with the factor count, is the
# same mix under every seed.
CLI_CYCLE = (
    ("reach", 5),
    ("curvature", 3),
    ("weingarten", 4),
    ("dd", 3),
    ("minors", 3),
    ("tube", 3),
    ("mc-det", 2),
    ("mc-tube", 4),
)
CLI_CYCLES_PER_PASS = 2
CLI_DD_POOL = (
    ((2, 2, 1, 1), (1, 1, 1, 1)),
    ((3, 3), (2, 2)),
    ((2, 2), (2, 1)),
    ((4,), (3,)),
    ((2, 2, 2), (1, 2, 3)),
    ((3, 1), (2, 2)),
)
CLI_MINORS_POOL = (
    ((2, 2), (1, 1), 1),
    ((3, 3), (2, 2), 2),
    ((2,), (3,), 1),
    ((2, 1), (2, 3), 1),
    ((4, 4), (1, 2), 2),
)
CLI_TUBE_POOL = (
    ((1,), (2,)),
    ((2,), (2,)),
    ((2, 2), (1, 1)),
    ((3,), (2,)),
    ((4, 4), (1, 2)),
    ((2, 2, 2), (1, 2, 1)),
)
CLI_MC_DET_POOL = (        # 6 x 6 block matrices, one per slot
    ((2, 2, 1, 1), (1, 1, 1, 1)),
    ((3, 3), (2, 1)),
)
CLI_MC_DET_SAMPLES = 2000
CLI_MC_TUBE_POOL = (       # one per slot, ~15 ms each
    ((1,), (2,), 20_000),
    ((2, 2), (1, 1), 5_000),
)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _draw_space(r: int, rng: random.Random) -> tuple[tuple, tuple]:
    """A space with r factors and total degree >= 2 (reach needs it)."""
    while True:
        dims = tuple(rng.randint(1, 3) for _ in range(r))
        degrees = tuple(rng.randint(1, 4) for _ in range(r))
        if sum(degrees) >= 2:
            return dims, degrees


def _exact_tube(rng: random.Random) -> list[dict]:
    ops = []
    for dims, degrees, radii in EXACT_TUBE_SPACES:
        for _ in range(radii):
            eps = rng.uniform(*EXACT_TUBE_EPS)
            for profile in PROFILES:
                ops.append({"kind": "tube_volume", "dims": dims,
                            "degrees": degrees, "eps": eps,
                            "profile": profile,
                            "exponent_convention": "corrected",
                            "minor_mode": "corrected"})
    return ops


def _mc_op(kind, dims, degrees, extra, samples, seed, eps=None) -> dict:
    op = {"kind": kind, "dims": dims, "degrees": degrees,
          "samples": samples, "seed": seed}
    if kind == "mc_tube_volume":
        op["eps"] = eps
    elif kind == "mc_expected_det":
        op["profile"] = "weingarten"
    elif kind == "mc_minor_sum":
        op["i"] = extra
    return op


def _mc_vectorized(rng: random.Random) -> list[dict]:
    return [_mc_op(kind, dims, degrees, extra, samples,
                   rng.randrange(2 ** 31), rng.uniform(*MC_VECTORIZED_EPS))
            for kind, dims, degrees, extra, samples in MC_VECTORIZED_CALLS]


def _mc_generic(rng: random.Random) -> list[dict]:
    ops = []
    for dims, degrees, calls, samples, eps_range in MC_GENERIC_SPACES:
        # One radius per space, so the hits of its calls pool into one
        # binomial count.
        eps = rng.uniform(*eps_range)
        for _ in range(calls):
            ops.append(_mc_op("mc_tube_volume", dims, degrees, None, samples,
                              rng.randrange(2 ** 31), eps))
    return ops


def _cli_argv(sub: str, k: int, rng: random.Random) -> list[str]:
    """Arguments of the k-th `sub` query of a cycle."""
    if sub in ("reach", "curvature"):
        dims, degrees = _draw_space(1 + k % 3, rng)
        return [sub, "--dims", _csv(dims), "--degrees", _csv(degrees)]
    if sub == "weingarten":
        dims, degrees = _draw_space(1 + k % 3, rng)
        return [sub, "--dims", _csv(dims), "--degrees", _csv(degrees),
                "--method", rng.choice(("assemble", "direct")),
                "--seed", str(rng.randrange(2 ** 31))]
    if sub == "dd":
        dims, degrees = rng.choice(CLI_DD_POOL)
        return [sub, "--dims", _csv(dims), "--degrees", _csv(degrees),
                "--profile", rng.choice(PROFILES)]
    if sub == "minors":
        dims, degrees, i = rng.choice(CLI_MINORS_POOL)
        return [sub, "--dims", _csv(dims), "--degrees", _csv(degrees),
                "--i", str(i), "--profile", rng.choice(PROFILES),
                "--minor-mode", rng.choice(("corrected", "paper"))]
    if sub == "tube":
        dims, degrees = rng.choice(CLI_TUBE_POOL)
        return [sub, "--dims", _csv(dims), "--degrees", _csv(degrees),
                "--epsilon", repr(rng.uniform(*EXACT_TUBE_EPS)),
                "--profile", rng.choice(PROFILES),
                "--exponent-convention", "corrected",
                "--minor-mode", "corrected"]
    if sub == "mc-det":
        dims, degrees = CLI_MC_DET_POOL[k % len(CLI_MC_DET_POOL)]
        return [sub, "--dims", _csv(dims), "--degrees", _csv(degrees),
                "--samples", str(CLI_MC_DET_SAMPLES),
                "--profile", rng.choice(PROFILES),
                "--seed", str(rng.randrange(2 ** 31))]
    if sub == "mc-tube":
        dims, degrees, samples = CLI_MC_TUBE_POOL[k % len(CLI_MC_TUBE_POOL)]
        return [sub, "--dims", _csv(dims), "--degrees", _csv(degrees),
                "--epsilon", repr(rng.uniform(*MC_VECTORIZED_EPS)),
                "--samples", str(samples),
                "--seed", str(rng.randrange(2 ** 31))]
    raise ValueError(f"unknown subcommand {sub!r}")


def _cli_queries(rng: random.Random) -> list[dict]:
    ops = []
    for _ in range(CLI_CYCLES_PER_PASS):
        cycle = [(sub, k) for sub, count in CLI_CYCLE for k in range(count)]
        rng.shuffle(cycle)
        ops.extend({"kind": "cli", "argv": _cli_argv(sub, k, rng)}
                   for sub, k in cycle)
    return ops


def _warmup(name: str, ops: list[dict]) -> list[dict]:
    """Set-up calls: fill the lru caches for every space of the workload
    and run each kind of operation once on a tiny input."""
    warm = []
    spaces = []
    for op in ops:
        if "dims" in op and (op["dims"], op["degrees"]) not in spaces:
            spaces.append((op["dims"], op["degrees"]))
    warm.extend({"kind": "normal_split", "dims": d, "degrees": g}
                for d, g in spaces)
    if name == "exact-tube":
        warm.extend({"kind": "tube_volume", "dims": (2,), "degrees": (2,),
                     "eps": 0.3, "profile": p,
                     "exponent_convention": "corrected",
                     "minor_mode": "corrected"} for p in PROFILES)
    elif name.startswith("mc-"):
        seen = set()
        for op in ops:
            key = (op["kind"], op["dims"], op["degrees"])
            if key not in seen:
                seen.add(key)
                warm.append(dict(op, samples=2, seed=0))
    else:
        seen = set()
        for op in ops:
            sub = op["argv"][0]
            if sub not in seen:
                seen.add(sub)
                argv = list(op["argv"])
                if "--samples" in argv:
                    argv[argv.index("--samples") + 1] = "2"
                warm.append({"kind": "cli", "argv": argv})
    return warm


def build(name: str, seed: int) -> dict:
    """The request for one workload: its pass of operations and warm-up."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    ops = {"exact-tube": _exact_tube, "mc-vectorized": _mc_vectorized,
           "mc-generic": _mc_generic, "cli-queries": _cli_queries}[name](rng)
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        op["id"] = f"{name}#{k}"
    return {"workload": name, "seed": seed,
            "import": "svgeom.cli" if name == "cli-queries" else "svgeom",
            "ops": ops, "warmup": _warmup(name, ops)}


def samples_per_pass(ops: list[dict]) -> int:
    """Monte Carlo samples drawn by one pass, counting CLI MC queries."""
    total = 0
    for op in ops:
        if "samples" in op:
            total += op["samples"]
        elif op["kind"] == "cli" and "--samples" in op["argv"]:
            total += int(op["argv"][op["argv"].index("--samples") + 1])
    return total


def reference_keys() -> dict[str, set]:
    """Every closed-form value the output checks look up.

    tube: (dims, degrees, profile) -> coefficients a_i, corrected minors;
    det: (sizes, degrees, profile) -> (D, matching count);
    minor: (dims, degrees, i, profile, mode) -> expected minor sum.
    """
    tube = {(d, g, p) for d, g, _ in EXACT_TUBE_SPACES for p in PROFILES}
    tube |= {(d, g, p) for d, g in CLI_TUBE_POOL for p in PROFILES}
    tube |= {(d, g, "weingarten") for _, d, g, _, _ in MC_VECTORIZED_CALLS}
    tube |= {(d, g, "weingarten") for d, g, _, _, _ in MC_GENERIC_SPACES}
    tube |= {(d, g, "weingarten") for d, g, _ in CLI_MC_TUBE_POOL}
    det = {(d, g, p) for d, g in CLI_DD_POOL + CLI_MC_DET_POOL
           for p in PROFILES}
    det |= {(d, g, "weingarten") for kind, d, g, _, _ in MC_VECTORIZED_CALLS
            if kind == "mc_expected_det"}
    minor = {(d, g, i, p, m) for d, g, i in CLI_MINORS_POOL for p in PROFILES
             for m in ("corrected", "paper")}
    minor |= {(d, g, i, "weingarten", "corrected")
              for kind, d, g, i, _ in MC_VECTORIZED_CALLS
              if kind == "mc_minor_sum"}
    return {"tube": tube, "det": det, "minor": minor}


def reference_key(*parts) -> str:
    """String key of a reference entry, e.g. '6,6,6,6|1,1,1,1|def-d'."""
    return "|".join(_csv(p) if isinstance(p, (tuple, list)) else str(p)
                    for p in parts)
