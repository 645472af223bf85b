import numpy as np
import pytest

from stubborn.checks import _Uniforms

BOUNDS = [(0.0, 1.0), (-0.3, 0.3), (0.1, 5.0), (-2.5, 7.25), (0.2, 0.2000001)]


@pytest.mark.parametrize(
    "seeds",
    [
        range(300),
        # one, two, three and more 32-bit words; more than four words take
        # SeedSequence's second mixing loop
        [2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, 2**96 + 7, 12345678901234567890123,
         2**127 + 5, 2**160 + 17, 2**200 - 1, 3**150],
    ],
    ids=["seeds 0-299", "multi-word seeds"],
)
def test_uniforms_replicate_default_rng(seeds):
    # validate's scenarios, and the seed facts pinned in README and the
    # tests, rest on this: every draw equals numpy's, bit for bit
    for seed in seeds:
        want, got = np.random.default_rng(seed), _Uniforms(seed)
        for i in range(300):
            lo, hi = BOUNDS[i % len(BOUNDS)]
            a, b = want.uniform(lo, hi), got.uniform(lo, hi)
            assert type(b) is float and a == b, (seed, i)
