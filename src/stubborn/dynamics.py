"""Goal-dynamics SDE: drift/diffusion and Euler-Maruyama simulation.

The SDE is dx = (a*sqrt(x) - sigma2*x - u) ds + (sigma1 - sigma2*x) dW,
discretized as x_{j+1} = x_j + mu_j*dt + sigma_j*w_j*sqrt(dt) with one
standard-normal draw per step. States are clamped at 0 (absorb-and-continue)
because sqrt(x) is undefined below 0; clamp events are recorded per step.

Noise is counter-based: the draw for (seed, path_index, step_index) is a
pure function of those three integers (SplitMix64-style bit mixing feeding
a Box-Muller transform), so per-path streams are bit-reproducible and
independent of batch layout, chunking, and thread count.  `step_normals`
defines the stream; the engine computes each path's key
_mix64(seed + GOLDEN*(path+1)) once per block and draws from those keys
several steps per call, as one (S, m) array for S steps of the block's m
paths, with the same operations in the same order on every element, so
each row equals its step's `step_normals` bit for bit.  S = `_draw_steps(m)`
caps a call at `_BLOCK_ELEMS` normals: 2 steps for 16384 paths, 21 for
the 1560-path blocks of a 21-control sweep, every step of an `optimize`
ranking block; the last call is cut at n_steps.  One call per step on
1560 paths was too short (about 17 numpy calls per step) for two
threads to overlap; an uncapped S slowed one thread.

`_em_steps` is the only Euler-Maruyama recursion in the package and
`_for_each_chunk` the only place that splits paths into blocks and threads.
The step runs in place on a few arrays allocated once per block, in the
rounding order of x + drift(x, u)*dt + diffusion(x)*sqrt(dt)*w, with
sqrt(x) and sigma2*x computed once; it yields that sqrt(x), which the
payoff's cost term reuses.  Every output is bit-identical to the step
written with `drift` and `diffusion`.
The simulators here (`simulate_batch` stores whole paths, `simulate_final`
keeps only the final states), `payoff.expected_payoffs` and
`feynman_kac.fk_estimate` are per-step accumulators over those two
functions.  `simulate_final` is the engine's test harness: no command
reaches it, only the moment-law and histogram tests (and the benchmark's
reference script), and it is the package's only caller of
`_em_steps(clamp=False)`.

A control is a constant stubbornness u, as in the paper.  The recursion
has a leading control axis: it steps a (k, n_paths) block for k controls
at once and draws each step's noise once for the block, shared by all k
rows, so comparing controls uses common random numbers literally.
Because the draw depends only on (seed, path, step), every row is
bit-identical to a run of that control alone.  Each row may also start
from its own state (`x0` per row): `optimize` ranks the candidates of
every cell at one s in a single pass that way.

A block holds at most `_BLOCK_PATHS` paths and at most `_BLOCK_ELEMS`
path-control pairs (16384 paths for one or two controls, 1560 for
twenty-one).  Blocks run on worker threads unless a block has more rows
(controls) than paths, as in an `optimize` ranking pass (about 200-280
candidate rows in blocks of 117-159 paths).  A second thread did not
measurably shorten such a pass: `optimize` on the perfbench
`feedback_grid` scenario took a median 0.180 s with this rule and 0.170 s
without it, inside each other's quartiles (0.158-0.197 and 0.163-0.186 s;
16 alternated processes each, min of 3 passes, 2 cores), and the thread
raised peak RSS by 2 MB (35.1 against 37.0 MB), the second block's
working set.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import ModelParams, ParameterError

STEP_TOL = 1e-9

# Paths per block, and path-control pairs per block when several controls
# share one; the pair cap bounds each worker's working set.  Block
# boundaries depend only on n_paths and the number of controls, never on
# the worker count.
_BLOCK_PATHS = 16384
_BLOCK_ELEMS = 32768

_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MASK = 0xFFFFFFFFFFFFFFFF
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53
_TWO_PI = 2.0 * np.pi


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on the uint64 array z; returns z."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _path_keys(seed: int, first_path: int, n_paths: int) -> np.ndarray:
    """The per-path keys of paths [first_path, first_path + n_paths) under seed.

    Step j's draw for a path depends only on its key and j, so an engine
    block computes its keys once and draws every step from them.
    """
    paths = np.arange(first_path, first_path + n_paths, dtype=np.uint64)
    paths += np.uint64(1)
    paths *= _GOLDEN
    paths += np.uint64(seed & _MASK)
    return _mix64(paths)


def _step_draws(keys: np.ndarray, first_step: int, n_steps: int) -> np.ndarray:
    """Standard-normal draws at steps first_step..first_step+n_steps-1.

    Row i of the (n_steps, len(keys)) result holds step first_step+i for
    the paths with these keys.  Box-Muller on two SplitMix64 outputs per
    path and step, computed in place; every element sees the same
    operations as in a one-step draw, so rows do not depend on n_steps.
    """
    steps = range(first_step, first_step + n_steps)
    # Offsets wrap in Python int space; numpy scalar uint64 multiplies would
    # emit spurious overflow warnings.
    odd = np.array([(_GOLDEN_INT * (2 * j + 1)) & _MASK for j in steps], dtype=np.uint64)
    even = np.array([(_GOLDEN_INT * (2 * j + 2)) & _MASK for j in steps], dtype=np.uint64)
    z = _mix64(keys + odd.reshape(-1, 1))
    z >>= np.uint64(11)
    # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
    u1 = z.astype(np.float64)
    u1 += 1.0
    u1 *= _INV53
    np.add(keys, even.reshape(-1, 1), out=z)
    _mix64(z)
    z >>= np.uint64(11)
    u2 = z.astype(np.float64)
    u2 *= _INV53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= _TWO_PI
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def step_normals(seed: int, first_path: int, n_paths: int, step: int) -> np.ndarray:
    """Standard-normal draws for paths [first_path, first_path + n_paths) at one step.

    Pure function of (seed, path_index, step_index); random access in both
    path and step, which is what makes chunked/threaded simulation
    bit-stable.  This is the definition of the noise stream; the engine
    computes the same draws, several steps per call, from keys it keeps
    for a whole block.
    """
    return _step_draws(_path_keys(seed, first_path, n_paths), step, 1)[0]


def drift(x: np.ndarray | float, u: np.ndarray | float, model: ModelParams) -> np.ndarray | float:
    """a*sqrt(x) - sigma2*x - u for a float or an array x."""
    # Read by the f-assembly oracle, the Feynman-Kac stencil and the tests'
    # written-out Euler-Maruyama steps; `_em_steps` inlines its own drift.
    # max(x, 0) keeps the sqrt defined at the negative states that the raw
    # (clamp=False) recursion reaches in those tests.
    return model.a * np.sqrt(np.maximum(x, 0.0)) - model.sigma2 * x - u


def diffusion(x: np.ndarray | float, model: ModelParams) -> np.ndarray | float:
    """sigma1 - sigma2*x (sign may be negative; squared wherever used)."""
    return model.sigma1 - model.sigma2 * x


def n_steps_for(horizon: float, dt: float) -> int:
    """round(horizon/dt), requiring horizon to be an integer multiple of dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n = round(horizon / dt)
    if n < 1 or abs(n * dt - horizon) > STEP_TOL * max(1.0, abs(horizon)):
        raise ValueError(
            f"horizon {horizon} is not a positive integer multiple of dt {dt}"
        )
    return n


def _em_steps(
    x0: float | Sequence[float] | np.ndarray,
    controls: Sequence[float] | np.ndarray,
    model: ModelParams,
    dt: float,
    n_steps: int,
    seed: int,
    first_path: int,
    n_paths: int,
    clamp: bool = True,
) -> Iterator[tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Step paths [first_path, first_path + n_paths) from x0.

    Row i of the (len(controls), n_paths) state block applies the constant
    control controls[i] from x0, or from x0[i] when x0 holds one start
    state per row; every row sees the same noise draw at each step.  Yields
    (j * dt, x_j, u, x_next, hit_j, sqrt_x_j) for j = 0..n_steps-1: j * dt
    is the time since the start, to which a caller starting at s adds s.  u
    is the (len(controls), 1) column of the controls clipped to [0, 1], one
    array for every step; x_j, x_next, hit_j and sqrt_x_j have the block's
    shape, hit_j marks raw updates below 0 and sqrt_x_j is the sqrt(x_j) of
    the drift.  With clamp=False x_next is the raw pre-clamp recursion
    (moment-law validation).  The yielded arrays are read-only to the
    caller.  Later steps reuse their memory, so a caller copies what it
    keeps past the next step; the last x_next stays as it is.
    """
    u = np.clip(np.asarray(controls, dtype=np.float64), 0.0, 1.0).reshape(-1, 1)
    u.flags.writeable = False
    starts = np.asarray(x0, dtype=np.float64)
    if starts.ndim and starts.shape != (len(u),):
        raise ValueError(f"x0 holds {starts.size} start states for {len(u)} controls")
    a, sigma1, sigma2 = model.a, model.sigma1, model.sigma2
    sqrt_dt = math.sqrt(dt)
    keys = _path_keys(seed, first_path, n_paths)
    chunk = _draw_steps(n_paths)
    x = np.empty((len(u), n_paths))
    x[...] = starts.reshape(-1, 1)
    x_next, sq, sx = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    hit = np.empty(x.shape, dtype=bool)
    for j in range(n_steps):
        if j % chunk == 0:
            noise = _step_draws(keys, j, min(chunk, n_steps - j))
        w = noise[j % chunk]
        # The update x + drift(x, u)*dt + diffusion(x)*sqrt(dt)*w in its
        # rounding order, in place.  Clamped states are never negative, so
        # only the raw recursion and a start state need max(x, 0).
        if clamp and j:
            np.sqrt(x, out=sq)
        else:
            np.sqrt(np.maximum(x, 0.0, out=sq), out=sq)
        np.multiply(x, sigma2, out=sx)
        np.multiply(sq, a, out=x_next)
        x_next -= sx
        x_next -= u
        x_next *= dt
        x_next += x
        np.subtract(sigma1, sx, out=sx)
        sx *= sqrt_dt
        sx *= w
        x_next += sx
        np.less(x_next, 0.0, out=hit)
        if clamp:
            np.maximum(x_next, 0.0, out=x_next)
        yield j * dt, x, u, x_next, hit, sq
        x, x_next = x_next, x


def _worker_count() -> int:
    """STUBBORN_THREADS, or the CPUs this process may run on when it is unset or empty.

    The CPU count is the size of the affinity mask where the platform has
    one (so `taskset` and cpusets are honoured), else `os.cpu_count()`.
    Raises ParameterError when STUBBORN_THREADS is set to anything but a
    positive integer in decimal digits.
    """
    env = os.environ.get("STUBBORN_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    if not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ParameterError(f"STUBBORN_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _block_paths(n_controls: int) -> int:
    """Paths per block when n_controls controls share it, at least one.

    The one rule of `_for_each_chunk`; the manifests of `simulate` and
    `sweep` record it as `block_paths`.
    """
    return max(1, min(_BLOCK_PATHS, _BLOCK_ELEMS // n_controls))


def _draw_steps(n_paths: int) -> int:
    """Steps of noise `_em_steps` draws per call for a block of n_paths paths.

    At most `_BLOCK_ELEMS` normals and at least one step per call; the
    manifests of `simulate` and `sweep` record it as `draw_steps`.
    """
    return max(1, _BLOCK_ELEMS // n_paths)


def _for_each_chunk(
    n_paths: int, work: Callable[[int, int], None], n_controls: int = 1
) -> None:
    """Call work(lo, hi) on every fixed block of [0, n_paths).

    A block holds `_block_paths(n_controls)` paths; the last may hold
    fewer.  Blocks run on up to STUBBORN_THREADS threads, or inline
    when there is only one or a block holds fewer paths than controls:
    such a pass measured no faster on threads, which only held a second
    block in memory (see the module docstring).
    Each call must write only the [lo:hi] slice of arrays its caller owns,
    so results do not depend on the worker count.
    """
    size = _block_paths(n_controls)
    blocks = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    workers = min(_worker_count(), len(blocks)) if size >= n_controls else 1
    if workers <= 1:
        for lo, hi in blocks:
            work(lo, hi)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        for fut in [pool.submit(work, lo, hi) for lo, hi in blocks]:
            fut.result()


def simulate_batch(
    x0: float,
    u: float,
    model: ModelParams,
    dt: float,
    horizon: float,
    seed: int,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate n_paths trajectories under the constant control u.

    Returns (states, clamped) matrices, both of shape (n_paths, n_steps+1).
    """
    n_steps = n_steps_for(horizon, dt)
    states = np.empty((n_paths, n_steps + 1), dtype=np.float64)
    clamped = np.zeros((n_paths, n_steps + 1), dtype=bool)
    states[:, 0] = x0

    def work(lo: int, hi: int) -> None:
        steps = _em_steps(x0, [u], model, dt, n_steps, seed, lo, hi - lo)
        for j, (_s, _x, _u, x_next, hit, _sq) in enumerate(steps, start=1):
            states[lo:hi, j] = x_next[0]
            clamped[lo:hi, j] = hit[0]

    _for_each_chunk(n_paths, work)
    return states, clamped


def simulate_final(
    x0: float,
    u: float,
    model: ModelParams,
    dt: float,
    horizon: float,
    seed: int,
    n_paths: int,
    clamp: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Final states and per-path clamp flags without storing trajectories.

    Streaming counterpart of simulate_batch for moment statistics at large
    path counts; memory O(block size) per worker.
    """
    n_steps = n_steps_for(horizon, dt)
    final = np.empty(n_paths)
    clamp_any = np.zeros(n_paths, dtype=bool)

    def work(lo: int, hi: int) -> None:
        block_clamped = clamp_any[lo:hi]
        for _s, _x, _u, x_next, hit, _sq in _em_steps(
            x0, [u], model, dt, n_steps, seed, lo, hi - lo, clamp=clamp
        ):
            block_clamped |= hit[0]
        final[lo:hi] = x_next[0]

    _for_each_chunk(n_paths, work)
    return final, clamp_any
