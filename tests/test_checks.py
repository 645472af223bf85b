import numpy as np
from hypothesis import example, given, settings, strategies as st

from stubborn import checks, dynamics
from stubborn.checks import _Uniforms

MASK = 2**64 - 1
SEEDS = [0, 1, 7, 2024, 2**32, 2**64 - 1]


def splitmix64(z):
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK
    return z ^ z >> 31


def reference_draw(seed, i):
    # draw i: the top 53 bits of the stream constant added to path i's key,
    # mixed again; the key is the engine's, mix(seed + golden * (i + 1))
    key = splitmix64((seed + 0x9E3779B97F4A7C15 * (i + 1)) & MASK)
    return (splitmix64((key + 0xD1B54A32D192ED03) & MASK) >> 11) * 2.0**-53


def draws(seed, n, lo=0.0, hi=1.0):
    rng = _Uniforms(seed)
    return [rng.uniform(lo, hi) for _ in range(n)]


def test_uniforms_are_the_counter_stream():
    # three blocks of words and the start of a fourth, so a refill that
    # restarts the counter or skips a word shows; seeds wrap modulo 2**64,
    # as the suites' seed + 3 does at the top of the seed range
    for seed in SEEDS + [2**64 + 2]:
        got = draws(seed, 3 * checks._DRAW_BLOCK + 5)
        assert got == [reference_draw(seed, i) for i in range(len(got))], seed
    assert draws(2**64 + 2, 300) == draws(2, 300)


def test_uniforms_are_deterministic_per_seed_and_never_repeat():
    for seed in SEEDS:
        first = draws(seed, 1000)
        assert draws(seed, 1000) == first
        assert len(set(first)) == len(first), seed


def test_uniforms_differ_between_seeds():
    streams = {seed: draws(seed, 600) for seed in SEEDS + list(range(2, 7))}
    for a, sa in streams.items():
        for b, sb in streams.items():
            if a < b:
                assert set(sa).isdisjoint(sb), (a, b)


def test_uniforms_fill_the_interval_on_the_53_bit_lattice():
    for seed in SEEDS:
        units = draws(seed, 2000)
        assert all(type(w) is float and 0.0 <= w < 1.0 for w in units)
        assert all((w * 2.0**53).is_integer() for w in units)
        # 2000 draws leave no gap wider than about 1% at either end
        assert min(units) < 0.01 and max(units) > 0.99, seed
        assert abs(sum(units) / len(units) - 0.5) < 0.03, seed
        rng = _Uniforms(seed)
        for i, w in enumerate(units):
            lo, hi = [(0.0, 1.0), (-0.3, 0.3), (0.1, 5.0), (-2.5, 7.25), (0.2, 0.2000001)][i % 5]
            got = rng.uniform(lo, hi)
            assert got == lo + (hi - lo) * w and lo <= got < hi, (seed, i)


def test_uniform_words_are_not_the_engine_words():
    # the words are neither the path keys nor the first pair's words of the
    # same paths, from which the engine draws its noise
    n = 600
    for seed in SEEDS:
        words = {int(w * 2.0**53) for w in draws(seed, n)}
        keys = dynamics._path_keys(seed, 0, n)
        golden = [np.uint64(k * 0x9E3779B97F4A7C15 & MASK) for k in (1, 2)]
        for plane in [keys] + [dynamics._mix64(keys + g) for g in golden]:
            assert words.isdisjoint((plane >> np.uint64(11)).tolist()), seed


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=0)
@example(seed=2**64 - 1)
def test_scenario_suites_pass_at_any_seed(seed):
    # validate runs them at numerics.seed + 1, + 2 and + 3; any seed a
    # config may hold, up to 2**64 - 1, where those wrap
    assert checks.check_finite_differences(seed=seed + 1)["passed"]
    assert checks.check_trivial_root(seed=seed + 2)["passed"]
    assert checks.check_root_residuals(seed=seed + 3)["passed"]
