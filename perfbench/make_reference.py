"""Write reference.json: the closed-form values the output checks compare to.

The table pins the exact curvature coefficients a_i, matching determinants
and expected minor sums of every space the workloads can draw, computed with
explicit conventions (corrected exponent, the named profile, corrected or
literal minors as keyed).  It was generated once from the svgeom version the
benchmark was defined on; regenerate it only when a convention change is
meant to alter these values:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from svgeom import (  # noqa: E402
    MatchingProblem,
    SpaceSpec,
    expected_minor_sum,
    matching_count,
    matching_determinant,
    variance_profile,
)
from svgeom.tube import tube_coefficient  # noqa: E402

from workloads import reference_key, reference_keys  # noqa: E402


def main() -> None:
    keys = reference_keys()
    doc = {"tube": {}, "det": {}, "minor": {}}
    for dims, degrees, profile in sorted(keys["tube"]):
        space = SpaceSpec(dims, degrees)
        prof = variance_profile(profile, degrees)
        doc["tube"][reference_key(dims, degrees, profile)] = [
            tube_coefficient(i, space, prof, "corrected")
            for i in range(space.manifold_dim // 2 + 1)]
    for sizes, degrees, profile in sorted(keys["det"]):
        problem = MatchingProblem(sizes, degrees,
                                  variance_profile(profile, degrees))
        doc["det"][reference_key(sizes, degrees, profile)] = [
            matching_determinant(problem), matching_count(problem)]
    for dims, degrees, i, profile, mode in sorted(keys["minor"]):
        space = SpaceSpec(dims, degrees)
        doc["minor"][reference_key(dims, degrees, i, profile, mode)] = \
            expected_minor_sum(space, i, variance_profile(profile, degrees),
                               mode)
    out = HERE / "reference.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: " + ", ".join(f"{len(v)} {k}" for k, v in doc.items()))


if __name__ == "__main__":
    main()
