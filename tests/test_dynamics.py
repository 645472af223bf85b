import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stubborn import dynamics
from stubborn.dynamics import (
    drift,
    diffusion,
    n_steps_for,
    simulate_batch,
    simulate_final,
    step_normals,
)
from stubborn.feynman_kac import FKProblem, fk_estimate
from stubborn.model import ModelParams, PayoffParams
from stubborn.payoff import expected_payoff, expected_payoffs


def test_drift_values():
    assert drift(0.0, 0.0, ModelParams(a=1, sigma1=0, sigma2=0.5)) == 0.0
    assert drift(4.0, 1.0, ModelParams(a=2, sigma1=0, sigma2=0.5)) == 1.0
    assert drift(1.0, 0.5, ModelParams(a=0, sigma1=0, sigma2=0)) == -0.5


def test_diffusion_values():
    assert diffusion(17.3, ModelParams(a=0, sigma1=0.3, sigma2=0)) == 0.3
    assert diffusion(2.0, ModelParams(a=0, sigma1=1, sigma2=0.5)) == 0.0
    assert diffusion(4.0, ModelParams(a=0, sigma1=0.1, sigma2=0.5)) == -1.9


def test_simulate_path_frozen_dynamics():
    frozen = ModelParams(a=0, sigma1=0, sigma2=0)
    states, clamped = simulate_batch(1.0, 0.0, frozen, 0.25, 1.0, 3, 1)
    assert np.array_equal(states[0], np.ones(5))
    assert not clamped[0].any()


def test_simulate_path_deterministic_euler():
    frozen = ModelParams(a=0, sigma1=0, sigma2=0)
    cases = [
        # (x0, u, dt, horizon, states, clamped)
        (1.0, 0.5, 0.25, 1.0, [1.0, 0.875, 0.75, 0.625, 0.5], [False] * 5),
        (1.0, 0.5, 0.1, 0.1, [1.0, 1.0 + (-0.5) * 0.1], [False, False]),
        # the raw update 0.01 - 0.1 goes negative: absorbed at 0 and flagged
        (0.01, 1.0, 0.1, 0.1, [0.01, 0.0], [False, True]),
        # controls outside [0, 1] are clipped: 1.5 acts as 1, -0.5 as 0
        (1.0, 1.5, 0.25, 1.0, [1.0, 0.75, 0.5, 0.25, 0.0], [False] * 5),
        (1.0, -0.5, 0.25, 1.0, [1.0] * 5, [False] * 5),
    ]
    for x0, u, dt, horizon, states, clamped in cases:
        got_states, got_clamped = simulate_batch(x0, u, frozen, dt, horizon, 3, 1)
        assert np.array_equal(got_states[0], states)
        assert np.array_equal(got_clamped[0], clamped)


def test_horizon_must_be_step_multiple():
    with pytest.raises(ValueError, match="integer multiple"):
        n_steps_for(1.0, 0.3)
    with pytest.raises(ValueError, match="dt must be positive"):
        n_steps_for(1.0, 0.0)
    assert n_steps_for(1.0, 0.25) == 4
    assert n_steps_for(1.0, 1e-3) == 1000


def test_bit_reproducibility():
    model = ModelParams(a=0.5, sigma1=0.4, sigma2=0.2)
    p1 = simulate_batch(1.0, 0.0, model, 0.01, 1.0, 77, 1)[0][0]
    p2 = simulate_batch(1.0, 0.0, model, 0.01, 1.0, 77, 1)[0][0]
    assert np.array_equal(p1, p2)
    p3 = simulate_batch(1.0, 0.0, model, 0.01, 1.0, 78, 1)[0][0]
    assert not np.array_equal(p1, p3)


ENGINE_MODEL = ModelParams(a=0.5, sigma1=0.6, sigma2=0.2)
ENGINE_PAYOFF = PayoffParams(
    theta=1.0, alpha1=0.1, alpha2=0.1, alpha3=0.1,
    c=1.0, r=0.5, mu_bar=0.0, omega=1.0, horizon=0.5,
)


# Controls outside [0, 1] on both sides, so every caller runs through the clip.
ENGINE_FK = FKProblem(
    V=lambda s, x, u: 0.3 + 0.1 * x,
    Theta=lambda s, x, u: x - u * u,
    T_term=lambda t, x: np.sqrt(x),
    dynamics=ENGINE_MODEL,
    u=1.2,
    horizon=0.5,
)

ENGINE_CALLS = {
    "simulate_batch": lambda n, seed: simulate_batch(
        0.4, -0.3, ENGINE_MODEL, 0.05, 0.5, seed, n
    ),
    "simulate_final": lambda n, seed: simulate_final(
        0.4, 1.2, ENGINE_MODEL, 0.05, 0.5, seed, n, clamp=False
    ),
    "expected_payoff": lambda n, seed: dataclasses.astuple(
        expected_payoff(0.4, 1.2, ENGINE_MODEL, ENGINE_PAYOFF, 0.05, n, seed)
    ),
    "fk_estimate": lambda n, seed: fk_estimate(ENGINE_FK, 0.1, 0.4, 0.05, n, seed),
}


class ForkSpy:
    """os.fork that counts the forks this process makes."""

    def __init__(self, fork=os.fork):
        self.fork, self.count = fork, 0

    def __call__(self):
        self.count += 1
        return self.fork()


@settings(max_examples=30, deadline=None)
@given(
    n_paths=st.integers(1, 40),
    block=st.integers(1, 8),
    threads=st.sampled_from(["1", "2", "3"]),
    seed=st.integers(0, 2**63),
)
def test_thread_count_independence(n_paths, block, threads, seed):
    """Every engine caller is bit-identical across block sizes and worker counts."""
    for name, call in ENGINE_CALLS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("STUBBORN_THREADS", "1")
            reference = call(n_paths, seed)
            mp.setattr(dynamics, "_BLOCK_PATHS", block)
            forks = ForkSpy()
            mp.setattr(os, "fork", forks)
            mp.setenv("STUBBORN_THREADS", threads)
            blocked = call(n_paths, seed)
        # W workers on two or more blocks of one control fork W - 1 children
        assert forks.count == min(int(threads), -(-n_paths // block)) - 1, name
        for want, got in zip(reference, blocked, strict=True):
            want, got = np.asarray(want), np.asarray(got)
            assert want.dtype == got.dtype, name
            assert np.array_equal(want, got, equal_nan=True), name


@pytest.mark.parametrize(
    "n_paths, n_controls, threads, pool",
    [
        (19, 1, "2", [2]),  # one full block and a partial one
        (9, 1, "2", []),  # a single block runs inline
        (20, 1, "2", [2]),
        (25, 1, "2", [2]),
        (45, 1, "4", [4]),
        (45, 1, "8", [5]),  # never more workers than blocks
        (40, 1, "1", []),
        (30, 4, "2", [2]),  # 16 pairs per block hold 4 paths of 4 controls
        (7, 4, "2", [2]),
        # more rows than paths: 3 paths of 5 controls, and 2 of 6, fork
        # as any other blocks do
        (30, 5, "2", [2]),
        (8, 6, "2", [2]),
    ],
)
def test_thread_fan_out(monkeypatch, n_paths, n_controls, threads, pool):
    """pool lists the worker count of each fan-out; [] means inline."""
    monkeypatch.setattr(dynamics, "_BLOCK_PATHS", 10)
    monkeypatch.setattr(dynamics, "_BLOCK_ELEMS", 16)
    forks = ForkSpy()
    monkeypatch.setattr(os, "fork", forks)
    monkeypatch.setenv("STUBBORN_THREADS", threads)
    # each path records (lo, hi, pid) of the block that ran it; += makes a
    # path run twice show
    seen = dynamics._shared((n_paths, 3), dtype=np.int64)

    def work(lo, hi):
        seen[lo:hi] += (lo, hi, os.getpid())

    dynamics._for_each_chunk(n_paths, work, n_controls)
    assert forks.count == sum(workers - 1 for workers in pool)
    size = min(10, 16 // n_controls)
    blocks = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    assert sorted({(lo, hi) for lo, hi, _ in seen.tolist()}) == blocks
    assert all(lo <= path < hi for path, (lo, hi, _) in enumerate(seen.tolist()))
    # block i runs on worker i % W, worker 0 being this process
    workers = pool[0] if pool else 1
    owners = [int(seen[lo, 2]) for lo, _ in blocks]
    assert len(set(owners)) == workers
    for i, owner in enumerate(owners):
        assert owner == owners[i % workers]
        assert (owner == os.getpid()) == (i % workers == 0)


def raise_at(*failing):
    """A block function that raises ValueError in the blocks starting at failing."""

    def work(lo, hi):
        if lo in failing:
            raise ValueError(f"planted failure in the block at {lo}")

    return work


# 50 paths in blocks of 10 on 3 workers: this process runs the blocks at 0
# and 30, the children those at 10 and 40, and at 20.  printed: the blocks
# whose traceback a child prints (a child stops at its first failure)
@pytest.mark.parametrize("failing, error, message, printed", [
    ((20,), RuntimeError, "1 of 2 engine worker processes failed", (20,)),
    ((40,), RuntimeError, "1 of 2 engine worker processes failed", (40,)),
    ((10, 20), RuntimeError, "2 of 2 engine worker processes failed", (10, 20)),
    ((30,), ValueError, "planted failure in the block at 30", ()),
    ((0, 10, 20, 30, 40), ValueError, "planted failure in the block at 0", (10, 20)),
], ids=["one-child", "child-second-block", "both-children", "parent", "everywhere"])
def test_a_failed_block_fails_the_call_and_leaves_no_child(
    monkeypatch, capfd, failing, error, message, printed
):
    monkeypatch.setattr(dynamics, "_BLOCK_PATHS", 10)
    monkeypatch.setenv("STUBBORN_THREADS", "3")
    with pytest.raises(error, match=message):
        dynamics._for_each_chunk(50, raise_at(*failing))
    with pytest.raises(ChildProcessError):  # no child left to reap
        os.waitpid(-1, os.WNOHANG)
    tracebacks = re.findall(r"ValueError: planted failure in the block at (\d+)", capfd.readouterr().err)
    assert sorted(map(int, tracebacks)) == list(printed)


def test_blocks_run_inline_without_fork(monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK_PATHS", 10)
    monkeypatch.setenv("STUBBORN_THREADS", "3")
    monkeypatch.delattr(os, "fork")
    seen = []
    dynamics._for_each_chunk(25, lambda lo, hi: seen.append((lo, hi)))
    assert seen == [(0, 10), (10, 20), (20, 25)]


def test_default_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("STUBBORN_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert dynamics._worker_count() == 2
    # without an affinity call, the CPU count; at least one worker
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert dynamics._worker_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert dynamics._worker_count() == 1
    monkeypatch.setenv("STUBBORN_THREADS", "3")
    assert dynamics._worker_count() == 3


def test_per_row_start_states_must_match_the_policies():
    steps = dynamics._em_steps([0.1, 0.2], [0.0], ENGINE_MODEL, 0.05, 2, 0, 0, 3)
    with pytest.raises(ValueError, match="2 start states for 1 controls"):
        next(steps)
    with pytest.raises(ValueError, match="start states"):
        expected_payoffs([0.4] * 3, [0.0] * 2, ENGINE_MODEL, ENGINE_PAYOFF, 0.05, 4, 0)


def same_estimate(a, b):
    """PayoffEstimate equality, with a NaN field equal to NaN."""
    return a == b or np.array_equal(
        dataclasses.astuple(a), dataclasses.astuple(b), equal_nan=True
    )


@settings(max_examples=30, deadline=None)
@given(
    controls=st.lists(st.floats(-0.5, 1.5), max_size=24),
    drain_at=st.integers(0, 24),
    starts=st.lists(st.sampled_from([0.0, 0.05, 0.4]), min_size=25, max_size=25),
    per_row=st.booleans(),
    n_paths=st.integers(1, 40),
    block=st.integers(1, 8),
    elems=st.integers(1, 64),
    threads=st.sampled_from(["1", "2"]),
    seed=st.integers(0, 2**63),
)
# three per-row starts in blocks of 4 paths on two threads: reaches the pool
@example(
    controls=[0.3, 0.2], drain_at=1,
    starts=[0.05, 0.4] * 12 + [0.0], per_row=True,
    n_paths=9, block=4, elems=64, threads="2", seed=7,
)
def test_batched_payoffs_equal_single_policy_runs(
    controls, drain_at, starts, per_row, n_paths, block, elems, threads, seed
):
    """expected_payoffs over k controls equals k expected_payoff calls exactly.

    x0 is one start state for all controls or one per control.  The u = 1
    "drain" control drives paths into the clamp; from x0 = 0 it makes every
    path invalid, so the mean is NaN.  With per-row starts the drain row
    always starts at 0.
    """
    drain = drain_at % (len(controls) + 1)
    controls.insert(drain, 1.0)
    starts = starts[: len(controls)]
    if per_row:
        starts[drain] = 0.0
    x0 = starts if per_row else starts[0]
    args = (ENGINE_MODEL, ENGINE_PAYOFF, 0.05, n_paths, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("STUBBORN_THREADS", "1")
        singles = [
            expected_payoff(starts[i] if per_row else x0, u, *args)
            for i, u in enumerate(controls)
        ]
        mp.setattr(dynamics, "_BLOCK_PATHS", block)
        mp.setattr(dynamics, "_BLOCK_ELEMS", elems)
        mp.setenv("STUBBORN_THREADS", threads)
        batched = expected_payoffs(x0, controls, *args)
    assert len(batched) == len(controls)
    for u, want, got in zip(controls, singles, batched):
        assert same_estimate(want, got), (u, want, got)
    if per_row:
        assert math.isnan(batched[drain].mean)


def test_noise_is_random_access():
    # Draw for (seed, path, step) must not depend on which block it is in.
    block = step_normals(9, 0, 100, 3)
    shifted = step_normals(9, 40, 60, 3)
    assert np.array_equal(block[40:], shifted)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    first_path=st.integers(0, 2**40),
    n_paths=st.integers(1, 40),
    first_step=st.integers(0, 7),
    n_steps=st.sampled_from([1, 2, 5, 7, 10]),
    chunk=st.sampled_from(["one", "two", "non-divisor", "longer"]),
)
def test_multi_step_draw_equals_step_normals(
    seed, first_path, n_paths, first_step, n_steps, chunk
):
    """Each row of a several-step draw is that step's `step_normals`, bit for bit.

    The steps from first_step on are drawn in chunks as `_em_steps` does,
    the last cut at n_steps; an odd first_step, chunk or n_steps makes a
    call start or end mid-pair.
    """
    size = {"one": 1, "two": 2, "non-divisor": 3, "longer": n_steps + 4}[chunk]
    keys = dynamics._path_keys(seed, first_path, n_paths)
    rows = []
    for first in range(first_step, first_step + n_steps, size):
        n = min(size, first_step + n_steps - first)
        draw = dynamics._step_draws(keys, first, n)
        assert draw.shape == (n, n_paths)
        rows.extend(draw)
    assert len(rows) == n_steps
    for j, row in enumerate(rows, start=first_step):
        assert np.array_equal(row, step_normals(seed, first_path, n_paths, j)), j


@pytest.mark.parametrize(
    "n_paths, n_controls, n_steps",
    # the path_dump and mc_sweep blocks (32768 // 10000 = 3 and
    # 32768 // 1560 = 21 steps would fit in a call), and an odd step count
    [(10000, 1, 100), (1560, 21, 100), (1560, 21, 21)],
)
def test_engine_computes_each_box_muller_pair_once(monkeypatch, n_paths, n_controls, n_steps):
    pairs = []
    box_muller = dynamics._box_muller

    def counting(u1, u2, cos, sin):
        pairs.append(u1.size)
        return box_muller(u1, u2, cos, sin)

    monkeypatch.setattr(dynamics, "_box_muller", counting)
    model = ModelParams(a=1.0, sigma1=0.3, sigma2=0.1)
    controls = np.linspace(0.0, 1.0, n_controls)
    for _ in dynamics._em_steps(1.0, controls, model, 0.01, n_steps, 42, 0, n_paths):
        pass
    assert sum(pairs) == n_paths * -(-n_steps // 2)


def test_noise_is_standard_normal():
    import scipy.stats

    steps = [step_normals(314, 0, 250_000, j) for j in range(4)]
    # each call returns memory of its own: no later call overwrites a draw
    assert not any(np.shares_memory(a, b) for i, a in enumerate(steps) for b in steps[:i])
    draws = np.concatenate(steps)
    n = len(draws)
    assert abs(draws.mean()) <= 3.5 / math.sqrt(n)
    assert abs(draws.std() - 1.0) <= 3.5 / math.sqrt(2 * n)
    assert abs((draws**3).mean()) <= 3.5 * math.sqrt(15.0 / n)  # skewness moment
    assert abs((draws**4).mean() - 3.0) <= 3.5 * math.sqrt(96.0 / n)
    ks = scipy.stats.kstest(draws[:200_000], "norm")
    assert ks.pvalue > 1e-4, ks

    # the two normals of a pair (steps 2i and 2i+1) are independent: their
    # correlation and the correlation of their squares stay at noise level
    cosines, sines = np.concatenate(steps[0::2]), np.concatenate(steps[1::2])
    pairs = len(cosines)
    assert abs(np.corrcoef(cosines, sines)[0, 1]) <= 4.0 / math.sqrt(pairs)
    assert abs(np.corrcoef(cosines**2, sines**2)[0, 1]) <= 4.0 / math.sqrt(pairs)

    # correlations across pairs and across paths stay at noise level
    across_steps = np.corrcoef(
        step_normals(314, 0, 200_000, 1), step_normals(314, 0, 200_000, 2)
    )[0, 1]
    across_paths = np.corrcoef(
        step_normals(314, 0, 100_000, 5), step_normals(314, 100_000, 100_000, 5)
    )[0, 1]
    assert abs(across_steps) <= 4.0 / math.sqrt(200_000)
    assert abs(across_paths) <= 4.0 / math.sqrt(100_000)


def splitmix64(z):
    """The SplitMix64 finalizer, written out on a uint64 array (wrapping arithmetic)."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def libm_box_muller(u1, u2):
    """Both Box-Muller normals with libm's cos and sin taken directly:
    sqrt(-2 log u1) * cos(2 pi u2) and sqrt(-2 log u1) * sin(2 pi u2)."""
    radius, angle = np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def test_draw_matches_box_muller_with_libm_cos():
    """The engine's draws agree with Box-Muller written with np.cos and np.sin to 1e-15.

    The uniforms come from SplitMix64 written out here: key
    mix(seed + GOLDEN*(path+1)), then mix(key + GOLDEN*(2i+1)) for u1 and
    mix(key + GOLDEN*(2i+2)) for u2 of pair i, each shifted to 53 bits.
    Step 2i is the pair's cosine normal and step 2i+1 its sine normal,
    1e6 draws in all.  Then the transform alone on the edge uniforms
    u2 = 0, 1/4, 1/2 (the pole of tan(pi u2)), 3/4 and 1 - 2^-53, from the
    largest radius down.
    """
    golden, mask, inv53 = 0x9E3779B97F4A7C15, 2**64 - 1, 2.0**-53
    seed, n_paths = 2718, 250_000
    paths = np.arange(1, n_paths + 1, dtype=np.uint64)
    keys = splitmix64(paths * np.uint64(golden) + np.uint64(seed))
    worst = 0.0
    for i in range(2):
        u1 = splitmix64(keys + np.uint64(golden * (2 * i + 1) & mask)) >> np.uint64(11)
        u2 = splitmix64(keys + np.uint64(golden * (2 * i + 2) & mask)) >> np.uint64(11)
        pair = libm_box_muller((u1.astype(np.float64) + 1.0) * inv53, u2.astype(np.float64) * inv53)
        for j, want in zip((2 * i, 2 * i + 1), pair):
            got = step_normals(seed, 0, n_paths, j)
            assert np.isfinite(got).all(), j
            worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-15, worst

    edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
    u1_values = np.array([2.0**-53, 1e-3, 0.5, 1.0])  # radius 8.57 down to 0
    u1, u2 = (a.ravel() for a in np.meshgrid(u1_values, edges))
    want = libm_box_muller(u1, u2)
    got = dynamics._box_muller(u1.copy(), u2.copy(), np.empty_like(u1), np.empty_like(u1))
    for want_normals, got_normals in zip(want, got, strict=True):
        assert np.isfinite(got_normals).all(), got_normals
        assert np.abs(got_normals - want_normals).max() <= 1e-15, got_normals - want_normals


def test_zero_noise_matches_explicit_euler():
    """With sigma1 = sigma2 = 0 the engine's step is (a*dt)*sqrt(x) + (0 - u*dt) + x*1.

    That is the engine's grouping with its noise rows sigma1*sqrt(dt)*w = 0
    and 1 - sigma2*dt - sigma2*sqrt(dt)*w = 1, bit for bit.  From the same
    state it agrees with the explicit Euler step x + drift(x, u)*dt to 1e-14
    relative.
    """
    model = ModelParams(a=0.7, sigma1=0.0, sigma2=0.0)
    u, dt = 0.2, 0.01
    states = simulate_batch(1.0, u, model, dt, 1.0, 0, 1)[0][0]
    x = 1.0
    for k in range(100):
        euler = x + (model.a * math.sqrt(x) - model.sigma2 * x - u) * dt
        x = (model.a * dt) * math.sqrt(x) + (0.0 - u * dt) + x * 1.0
        assert states[k + 1] == x
        assert abs(x - euler) <= 1e-14 * x, k


def test_zero_drift_martingale_mean():
    # a = 0, sigma2 = 0, u = 0: pre-clamp EM mean is exactly x0; the clamped
    # mean carries a small absorption bias which is measured and reported.
    model = ModelParams(a=0.0, sigma1=0.3, sigma2=0.0)
    final_raw, _ = simulate_final(1.0, 0.0, model, 0.01, 1.0, 42, 100_000, clamp=False)
    se = final_raw.std(ddof=1) / math.sqrt(len(final_raw))
    assert abs(final_raw.mean() - 1.0) <= 3.0 * se
    final_clamped, clamp_any = simulate_final(
        1.0, 0.0, model, 0.01, 1.0, 42, 100_000, clamp=True
    )
    bias = final_clamped.mean() - final_raw.mean()
    print(
        f"clamping bias: {bias:.3e} over {int(clamp_any.sum())} clamped paths "
        f"(se {se:.3e})"
    )
    assert bias >= 0.0


def test_linear_mean_law():
    # a = 0, u = 0: E[x_{j+1}] = (1 - sigma2*dt) E[x_j] before clamping.
    model = ModelParams(a=0.0, sigma1=0.2, sigma2=0.3)
    dt, horizon = 0.01, 1.0
    final, _ = simulate_final(1.0, 0.0, model, dt, horizon, 11, 40_000, clamp=False)
    target = (1.0 - model.sigma2 * dt) ** round(horizon / dt)
    se = final.std(ddof=1) / math.sqrt(len(final))
    assert abs(final.mean() - target) <= 3.0 * se


def test_marginal_density_matches_histogram():
    """Chapman-Kolmogorov propagation of the one-step density vs an EM histogram.

    The 10-step marginal is built by iterated quadrature of the Gaussian
    one-step Euler-Maruyama kernel (mean x + drift*dt, variance
    diffusion^2*dt) on a fine grid and compared per bin with a 1e6-path
    simulation: an independent oracle for the simulated marginal law.
    """
    model = ModelParams(a=0.3, sigma1=0.2, sigma2=0.05)
    dt, n_steps, x0 = 0.1, 10, 1.0
    grid = np.linspace(0.3, 2.4, 1682)
    dx = grid[1] - grid[0]

    def kernel_row(x_from: float) -> np.ndarray:
        mean = x_from + drift(x_from, 0.0, model) * dt
        var = diffusion(x_from, model) ** 2 * dt
        return np.exp(-0.5 * (grid - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)

    kernel = np.array([kernel_row(x) for x in grid])  # [from, to]
    weights = np.full(len(grid), dx)
    weights[0] = weights[-1] = dx / 2.0
    dens = kernel_row(x0)  # one step from the exact initial point
    for _ in range(n_steps - 1):
        dens = (dens * weights) @ kernel
    # oracle sanity: the propagated marginal should be normalized
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    final, clamp_any = simulate_final(
        x0, 0.0, model, dt, n_steps * dt, seed=97, n_paths=1_000_000
    )
    assert not clamp_any.any()

    edges = np.linspace(1.05, 1.55, 17)
    counts, _ = np.histogram(final, bins=edges)
    n = len(final)
    # cumulative integral interpolated at the exact bin edges (no grid snap)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
    cdf_at = np.interp(edges, grid, cum)
    for i in range(len(edges) - 1):
        p_bin = float(cdf_at[i + 1] - cdf_at[i])
        frac = counts[i] / n
        se = math.sqrt(max(p_bin * (1 - p_bin), 1e-12) / n)
        assert abs(frac - p_bin) <= 3.0 * se, (
            f"bin {i}: frac {frac:.5f} vs density {p_bin:.5f} (se {se:.2e})"
        )



def reference_step(x, u, model, dt, w, clamp):
    """The Euler-Maruyama step written out in the engine's grouping:
    (a*dt)*sqrt(x) + (sigma1*sqrt(dt)*w - u*dt) + x*(1 - sigma2*dt - sigma2*sqrt(dt)*w)."""
    sqrt_dt = math.sqrt(dt)
    raw = (
        (model.a * dt) * np.sqrt(np.maximum(x, 0.0))
        + ((model.sigma1 * sqrt_dt) * w - u * dt)
        + x * ((1.0 - model.sigma2 * dt) - (model.sigma2 * sqrt_dt) * w)
    )
    hit = raw < 0.0
    return (np.maximum(raw, 0.0) if clamp else raw), hit


def drift_diffusion_step(x, u, model, dt, w):
    """The raw step x + drift(x, u)*dt + diffusion(x)*sqrt(dt)*w, and the sum of
    its terms' magnitudes, which bounds the rounding of any grouping of them."""
    scale = (
        np.abs(x)
        + (model.a * np.sqrt(np.maximum(x, 0.0)) + model.sigma2 * np.abs(x) + u) * dt
        + (model.sigma1 + model.sigma2 * np.abs(x)) * math.sqrt(dt) * np.abs(w)
    )
    return x + drift(x, u, model) * dt + diffusion(x, model) * math.sqrt(dt) * w, scale


@settings(max_examples=40, deadline=None)
@given(
    controls=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=3),
    starts=st.lists(st.sampled_from([-0.05, 0.0, 0.01, 0.4, 2.0]), min_size=3, max_size=3),
    per_row=st.booleans(),
    clamp=st.booleans(),
    a=st.sampled_from([0, 0.5, 2.0]),
    sigma1=st.sampled_from([0, 0.3, 1.5]),
    sigma2=st.sampled_from([0, 0.2, 0.5]),
    dt=st.sampled_from([0.01, 0.05, 0.25]),
    first_path=st.integers(0, 2**40),
    n_paths=st.integers(1, 30),
    block=st.integers(1, 8),
    elems=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
)
# a negative start under the clamp, and a raw recursion that goes below 0
@example(
    controls=[1.0, 0.0], starts=[-0.05, 0.01, 0.0], per_row=True, clamp=True,
    a=0.5, sigma1=1.5, sigma2=0.2, dt=0.25, first_path=7, n_paths=9, block=4,
    elems=24, seed=3,
)
@example(
    controls=[1.0], starts=[0.01, 0.0, 0.0], per_row=False, clamp=False,
    a=2.0, sigma1=1.5, sigma2=0.5, dt=0.25, first_path=0, n_paths=5, block=8,
    elems=24, seed=11,
)
# noise drawn 4 steps per call for full blocks of 4 paths, so the second
# call is cut at step 6; the last block of 1 path draws all 6 steps at once
@example(
    controls=[1.0, 0.0], starts=[-0.05, 0.01, 0.0], per_row=True, clamp=True,
    a=0.5, sigma1=1.5, sigma2=0.2, dt=0.25, first_path=2**40, n_paths=9, block=4,
    elems=16, seed=3,
)
# 5 steps per call for blocks of 3 paths
@example(
    controls=[0.3], starts=[0.4, 0.0, 0.0], per_row=False, clamp=False,
    a=2.0, sigma1=1.5, sigma2=0.5, dt=0.05, first_path=12345, n_paths=7, block=3,
    elems=15, seed=2**64 - 1,
)
# no noise, and the raw update from 0.01 is 0.01 - 0.0125 + 0.0025: the
# drift/diffusion grouping rounds it to -1.7e-18 and clamps, the engine's
# grouping to exactly 0
@example(
    controls=[0.25], starts=[0.01, 0.0, 0.0], per_row=False, clamp=True,
    a=0.5, sigma1=0, sigma2=0, dt=0.05, first_path=0, n_paths=2, block=8,
    elems=24, seed=0,
)
def test_engine_step_equals_written_out_step(
    controls, starts, per_row, clamp, a, sigma1, sigma2, dt, first_path, n_paths,
    block, elems, seed,
):
    """Every block's x_next, hit and sqrt(x) equal the written-out step bit for bit.

    The oracle draws each step through `step_normals`, the definition of
    the stream, from the engine's own state, so each step is checked alone,
    also against the drift/diffusion grouping of the same step.
    """
    model = ModelParams(a=a, sigma1=sigma1, sigma2=sigma2)
    x0 = starts[: len(controls)] if per_row else starts[0]
    u = np.clip(np.asarray(controls, dtype=np.float64), 0.0, 1.0).reshape(-1, 1)
    n_steps = 6
    seen = []

    def work(lo, hi):
        lo, n = first_path + lo, hi - lo
        steps = dynamics._em_steps(x0, controls, model, dt, n_steps, seed, lo, n, clamp=clamp)
        want_next = np.broadcast_to(np.reshape(x0, (-1, 1)), (len(controls), n))
        for j, (s_j, x, u_j, x_next, hit, sq) in enumerate(steps):
            assert s_j == j * dt
            assert np.array_equal(u_j, u)
            assert np.array_equal(x, want_next, equal_nan=True), j
            w = step_normals(seed, lo, n, j)
            want_next, want_hit = reference_step(x, u, model, dt, w, clamp)
            assert np.array_equal(x_next, want_next, equal_nan=True), (j, x_next, want_next)
            assert np.array_equal(hit, want_hit), j
            # the drift/diffusion grouping agrees to 1e-14 of its terms'
            # magnitudes, and clamps the same elements wherever its raw
            # update lies farther than that from 0 (within it, rounding
            # decides the sign in either grouping)
            raw, scale = drift_diffusion_step(x, u, model, dt, w)
            old_next = np.maximum(raw, 0.0) if clamp else raw
            assert (np.abs(x_next - old_next) <= 1e-14 * scale).all(), j
            decided = np.abs(raw) > 1e-14 * scale
            assert np.array_equal(hit[decided], (raw < 0.0)[decided]), j
            assert np.array_equal(sq, np.sqrt(np.maximum(x, 0.0)), equal_nan=True), j
        seen.append((lo, n))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_PATHS", block)
        mp.setattr(dynamics, "_BLOCK_ELEMS", elems)
        mp.setenv("STUBBORN_THREADS", "1")
        dynamics._for_each_chunk(n_paths, work, len(controls))
    assert sum(n for _lo, n in seen) == n_paths
