import pytest

import svgeom.tube


@pytest.fixture(autouse=True)
def cold_tube_plans():
    """Leave the process-wide tube plans, the only memo of the tube
    coefficients, empty after each test.

    Tests that count exact minor sums, or trace a tube_volume call, in the
    same process then see the same work whatever ran before them.
    """
    yield
    svgeom.tube._tube_plan.cache_clear()
