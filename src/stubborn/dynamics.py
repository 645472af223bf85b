"""Goal-dynamics SDE: drift/diffusion and Euler-Maruyama simulation.

The SDE is dx = (a*sqrt(x) - sigma2*x - u) ds + (sigma1 - sigma2*x) dW,
discretized as x_{j+1} = x_j + mu_j*dt + sigma_j*w_j*sqrt(dt) with one
standard-normal draw per step. States are clamped at 0 (absorb-and-continue)
because sqrt(x) is undefined below 0; clamp events are recorded per step.

Noise is counter-based: the draw for (seed, path_index, step_index) is a
pure function of those three integers (SplitMix64-style bit mixing feeding
a Box-Muller transform), so per-path streams are bit-reproducible and
independent of batch layout, chunking, and worker count.  `step_normals`
defines the stream; the engine computes each path's key
_mix64(seed + GOLDEN*(path+1)) once per block and draws from those keys
several steps per call, as one (S, m) array for S steps of the block's m
paths, with the same operations in the same order on every element, so
each row equals its step's `step_normals` bit for bit.
Steps 2i and 2i+1 share one Box-Muller pair i: the two SplitMix64 words
of pair i give u1 and u2, step 2i takes r*cos(2 pi u2) and step 2i+1
r*sin(2 pi u2), r = sqrt(-2 log u1), two independent normals (Box and
Muller 1958).  Both come from t = tan(pi u2), as r*(1 - t^2)/(1 + t^2)
and r*2t/(1 + t^2): with numpy 2.4 on AVX-512, float64 `np.tan` is SIMD
while `np.cos` and `np.sin` are scalar libm.  A normal costs 9 ns in
16384-path draws and 11 ns in 1560-path x 21-step ones, against 16 and
18 ns when each step took the cosine of a pair of its own (2-vCPU Xeon).
The draws agree with the libm cos and sin forms to 1e-15 absolute.  Where
numpy has no SIMD tan (no AVX-512) it falls back to libm and the gain
shrinks; the bits are reproducible on any one machine, as they already
are with `np.log`'s SIMD dispatch.
S = `_draw_steps(m, n_steps)` caps a call at `_BLOCK_ELEMS` normals and
at the run's steps, and is even below the run's steps: 2 steps for
16384 paths, 20 for the 1560-path blocks of a 21-control sweep, every
step of an `optimize` ranking block; the last call is cut at n_steps.
An even S starts every call on a pair; an odd S would start every other
call in the middle of a pair that the call before had already computed
(670,000 pairs for the 500,000 that 10000 paths x 100 steps need at
S = 3).  A call that starts or ends mid-pair computes that pair whole.
The draw buffers hold the ceil(S/2) pairs a call can touch, so a block
whose S is its odd step count holds one step it never runs (on the
perfbench `feedback_grid` optimize, sizing them by the normals cap alone
raised the process's peak RSS by 0.45 MB).  One step per call made
a perfbench `mc_sweep` sweep slower on worker processes (1.32 against
1.23 s at 1 worker, 0.727 against 0.682 s at 2, medians of 6 alternated
processes on 2 cores), and an uncapped S slowed one worker.

`_em_steps` is the only Euler-Maruyama recursion in the package and
`_for_each_chunk` the only place that splits paths into blocks and
worker processes.  `_workers` is the only place that forks; the other
fan-out through it is `_ordered_map`, on which `simulate` formats
paths.csv.
The step runs in place on a few arrays allocated once per block (its
noise draws too).  Once per path and step it forms the rows
sigma1*sqrt(dt)*w and 1 - sigma2*dt - sigma2*sqrt(dt)*w, then steps every
control's element as
x_next = (a*dt)*sqrt(x) + (sigma1*sqrt(dt)*w - u*dt) + x*(1 - sigma2*dt - sigma2*sqrt(dt)*w)
in that rounding order: nine array operations per element where the
drift/diffusion order x + drift(x, u)*dt + diffusion(x)*sqrt(dt)*w took
thirteen, and within 1e-14 of that order's terms.  It yields sqrt(x),
which the payoff's cost term reuses.  Every output is bit-identical to
the step written out in this grouping.
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
twenty-one).  Blocks run on min(`_worker_count()`, blocks) forked worker
processes, which write what they compute into `_shared` arrays that the
caller allocated, and inline when that number is 1.  An `optimize`
ranking pass (206 and 278 candidate rows in blocks of 159 and 117 paths
on the perfbench `feedback_grid` scenario) forks like any other call,
since running it inline measured no faster (`BENCH_27.json`).  A forked
worker runs only numpy element-wise code on its blocks and leaves by
os._exit.
"""

from __future__ import annotations

import contextlib
import marshal
import math
import mmap
import os
import sys
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence

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


def _mix64(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, in place on the uint64 array z; returns z.

    t, of z's shape and dtype, holds the shifted words; a fresh array
    when it is None.
    """
    t = np.right_shift(z, np.uint64(30), out=t)
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


def _step_draws(
    keys: np.ndarray, first_step: int, n_steps: int, work: np.ndarray | None = None
) -> np.ndarray:
    """Standard-normal draws at steps first_step..first_step+n_steps-1.

    Row i of the (n_steps, len(keys)) result holds step first_step+i for
    the paths with these keys.  Steps 2i and 2i+1 share pair i: two
    SplitMix64 outputs per path give u1 and u2, and `_box_muller` turns
    them into the cosine normal (step 2i) and the sine normal (step
    2i+1).  A call that starts or ends mid-pair computes that pair whole;
    every element sees the same operations whatever the call, so rows do
    not depend on first_step or n_steps.  work is a uint64 array of shape
    (2, >= 2P, len(keys)) for the P pairs the call touches (at most
    n_steps // 2 + 1), which the draw overwrites: plane 0 holds u1 and
    u2, plane 1 the mixed words and then the normals, cosine and sine
    rows interleaved.  The result is a float64 view of plane 1, so plane
    0 is free again once the call returns.  work is a fresh array when it
    is None.
    """
    first_pair = first_step // 2
    n_pairs = (first_step + n_steps - 1) // 2 - first_pair + 1
    if work is None:
        work = np.empty((2, 2 * n_pairs, len(keys)), np.uint64)
    u1, u2 = work[0, :n_pairs].view(np.float64), work[0, n_pairs : 2 * n_pairs].view(np.float64)
    z, t = work[1, :n_pairs], work[1, n_pairs : 2 * n_pairs]
    pairs = range(first_pair, first_pair + n_pairs)
    # Offsets wrap in Python int space; numpy scalar uint64 multiplies would
    # emit spurious overflow warnings.
    odd = np.array([(_GOLDEN_INT * (2 * i + 1)) & _MASK for i in pairs], dtype=np.uint64)
    even = np.array([(_GOLDEN_INT * (2 * i + 2)) & _MASK for i in pairs], dtype=np.uint64)
    _mix64(np.add(keys, odd.reshape(-1, 1), out=z), t)
    z >>= np.uint64(11)
    # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
    u1[...] = z
    u1 += 1.0
    u1 *= _INV53
    _mix64(np.add(keys, even.reshape(-1, 1), out=z), t)
    z >>= np.uint64(11)
    u2[...] = z
    u2 *= _INV53
    normals = work[1, : 2 * n_pairs].view(np.float64)
    interleaved = normals.reshape(n_pairs, 2, len(keys))
    _box_muller(u1, u2, interleaved[:, 0], interleaved[:, 1])
    offset = first_step - 2 * first_pair
    return normals[offset : offset + n_steps]


def _box_muller(
    u1: np.ndarray, u2: np.ndarray, cos: np.ndarray, sin: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both Box-Muller normals of the uniforms u1 in (0, 1] and u2 in [0, 1).

    With r = sqrt(-2 log u1) and t = tan(pi u2), writes
    r*cos(2 pi u2) = (r/(1 + t^2))*(1 - t^2) into cos and
    r*sin(2 pi u2) = (r/(1 + t^2))*(2t) into sin, and returns (cos, sin);
    u1 and u2 are overwritten.  One log, sqrt and tan serve two normals,
    and tan is SIMD where numpy has it while cos and sin are scalar libm
    (see the module docstring).  No step reads one of cos and sin while
    writing the other: numpy copies an operand that may overlap its
    output, and the engine interleaves the two in one buffer.  At
    u2 = 1/2, the pole of tan, t is about 1.6e16, since pi/2 rounds below
    the pole, and the pair is (-r, about 1.2e-16 r).
    """
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= np.pi
    np.tan(u2, out=u2)
    np.add(u2, u2, out=sin)
    u2 *= u2
    np.subtract(1.0, u2, out=cos)
    u2 += 1.0
    u1 /= u2
    cos *= u1
    sin *= u1
    return cos, sin


def step_normals(seed: int, first_path: int, n_paths: int, step: int) -> np.ndarray:
    """Standard-normal draws for paths [first_path, first_path + n_paths) at one step.

    Pure function of (seed, path_index, step_index); random access in both
    path and step, which is what makes chunked and forked simulation
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


def _control_column(controls: Sequence[float] | np.ndarray) -> np.ndarray:
    """The controls clipped to [0, 1], as a read-only (len(controls), 1) column."""
    u = np.clip(np.asarray(controls, dtype=np.float64), 0.0, 1.0).reshape(-1, 1)
    u.flags.writeable = False
    return u


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
    u = _control_column(controls)
    starts = np.asarray(x0, dtype=np.float64)
    if starts.ndim and starts.shape != (len(u),):
        raise ValueError(f"x0 holds {starts.size} start states for {len(u)} controls")
    # The step's constants: a*dt, u*dt per row, and the factors of the
    # noise rows sigma1*sqrt(dt)*w and 1 - sigma2*dt - sigma2*sqrt(dt)*w.
    sqrt_dt = math.sqrt(dt)
    a_dt, u_dt = model.a * dt, u * dt
    shock_scale, decay = model.sigma1 * sqrt_dt, 1.0 - model.sigma2 * dt
    decay_scale = model.sigma2 * sqrt_dt
    keys = _path_keys(seed, first_path, n_paths)
    chunk = _draw_steps(n_paths, n_steps)
    work = np.empty((2, chunk + chunk % 2, n_paths), np.uint64)  # the draws' buffers
    shocks = work[0].view(np.float64)  # the draws' uniforms plane, free between draws
    x = np.empty((len(u), n_paths))
    x[...] = starts.reshape(-1, 1)
    x_next, sq, term = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    hit = np.empty(x.shape, dtype=bool)
    for j in range(n_steps):
        if j % chunk == 0:
            # Once per path and step: the shock row sigma1*sqrt(dt)*w, and
            # the draws become the growth row 1 - sigma2*dt - sigma2*sqrt(dt)*w.
            growths = _step_draws(keys, j, min(chunk, n_steps - j), work)
            np.multiply(growths, shock_scale, out=shocks[: len(growths)])
            growths *= decay_scale
            np.subtract(decay, growths, out=growths)
        shock, growth = shocks[j % chunk], growths[j % chunk]
        # x_next = (a*dt)*sqrt(x) + (shock - u*dt) + x*growth, in that
        # rounding order, in place.  Clamped states are never negative, so
        # only the raw recursion and a start state need max(x, 0).
        if clamp and j:
            np.sqrt(x, out=sq)
        else:
            np.sqrt(np.maximum(x, 0.0, out=sq), out=sq)
        np.multiply(sq, a_dt, out=x_next)
        term[...] = shock  # then in place: faster than a row-minus-column ufunc
        term -= u_dt
        x_next += term
        np.multiply(x, growth, out=term)
        x_next += term
        np.less(x_next, 0.0, out=hit)
        if clamp:
            np.maximum(x_next, 0.0, out=x_next)
        yield j * dt, x, u, x_next, hit, sq
        x, x_next = x_next, x


def _worker_count() -> int:
    """The processes a run may use: STUBBORN_THREADS, else the CPUs it may run on.

    The CPU count, used when STUBBORN_THREADS is unset or empty, is the
    size of the affinity mask where the platform has one (so `taskset`
    and cpusets are honoured), else `os.cpu_count()`.  It is 1 where the
    platform has no os.fork, so every fan-out runs inline there.  Raises
    ParameterError when STUBBORN_THREADS is set to anything but a positive
    integer in decimal digits, also on such a platform.
    """
    env = os.environ.get("STUBBORN_THREADS")
    if env and not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ParameterError(f"STUBBORN_THREADS must be a positive integer, got {env!r}")
    if not hasattr(os, "fork"):
        return 1
    if env:
        return int(env)
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def _block_paths(n_controls: int) -> int:
    """Paths per block when n_controls controls share it, at least one.

    The one rule of `_for_each_chunk`; the manifests of `simulate` and
    `sweep` record it as `block_paths`.
    """
    return max(1, min(_BLOCK_PATHS, _BLOCK_ELEMS // n_controls))


def _draw_steps(n_paths: int, n_steps: int) -> int:
    """Steps of noise `_em_steps` draws per call for a block of n_paths
    paths that runs n_steps steps.

    At most `_BLOCK_ELEMS` normals, at least one step and at most n_steps
    per call, so the draw buffers hold no step the block never runs.  Below
    n_steps the count is even, so every call but the first starts on a
    Box-Muller pair, not in the middle of one that the previous call
    already computed.  The manifests of `simulate` and `sweep` record it as
    `draw_steps`.
    """
    steps = min(n_steps, _BLOCK_ELEMS // n_paths)
    return max(1, steps if steps == n_steps else steps - steps % 2)


def _shared(shape: int | tuple[int, ...], dtype: type = np.float64) -> np.ndarray:
    """A zero-filled array in anonymous shared memory.

    The mapping is MAP_SHARED, so what a forked worker writes into it the
    caller reads; every array an engine block writes goes here.
    """
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _run_child(run: Callable[..., None], *args: object) -> NoReturn:
    """A forked worker: call run(*args), then leave by os._exit.

    Exit status 0 on success, else 1, after printing the traceback of an
    Exception to stderr (none when a pipe's reader has gone: the reader
    reports its own error).  The worker never returns into the caller's
    code: os._exit runs no atexit handler and flushes none of the caller's
    buffers, so only shared arrays and pipes carry anything back.
    """
    status = 1
    try:
        run(*args)
        status = 0
    except BrokenPipeError:
        pass
    except Exception:
        import traceback  # here, not at module level: only a failing worker needs it

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


@contextlib.contextmanager
def _workers(what: str) -> Iterator[Callable[..., None]]:
    """Yield fork(run, *args), which forks a worker running `_run_child(run, *args)`.

    Both fan-outs fork here.  On leaving the block every worker forked in
    it is waited for, also when the block raises; that exception wins over
    a RuntimeError counting the workers that failed.
    """
    pids: list[int] = []

    def fork(run: Callable[..., None], *args: object) -> None:
        pid = os.fork()
        if pid == 0:
            _run_child(run, *args)
        pids.append(pid)

    try:
        yield fork
    finally:
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
    if failed:
        raise RuntimeError(f"{failed} of {len(pids)} {what} worker processes failed")


def _for_each_chunk(
    n_paths: int, work: Callable[[int, int], None], n_controls: int = 1
) -> None:
    """Call work(lo, hi) on every fixed block of [0, n_paths).

    A block holds `_block_paths(n_controls)` paths; the last may hold
    fewer.  With W = min(`_worker_count()`, blocks) >= 2 workers, W - 1
    forked children run blocks[i::W] (i = 1..W-1) while this process runs
    blocks[0::W], then waits for every child (`_workers`); with W = 1 it
    forks none.  n_controls only sizes the blocks.
    Each call must write only the [lo:hi] slice of `_shared` arrays its
    caller owns, so results reach the caller and do not depend on the
    worker count.
    """
    size = _block_paths(n_controls)
    blocks = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    workers = max(1, min(_worker_count(), len(blocks)))

    def share(i: int) -> None:
        for lo, hi in blocks[i::workers]:
            work(lo, hi)

    with _workers("engine") as fork:
        for i in range(1, workers):
            fork(share, i)
        share(0)


@contextlib.contextmanager
def _ordered_map(fn: Callable[..., str], tasks: Sequence[tuple], workers: int) -> Iterator:
    """Yield an iterator over fn(*task) for the tasks in order: the text,
    computed inline, when workers <= 1, else its UTF-8 bytes, computed on
    `workers` forked processes.

    The workers fork on entering the block.  Worker i computes tasks i,
    i + workers, ... and writes each result to its own pipe as a marshal
    record; in place of a result it cannot compute it writes the
    "Type: message" of the exception as a str, which is raised here as a
    RuntimeError when its task comes up.  On leaving the block the pipes
    close, so a worker still writing stops, and every worker is waited
    for (`_workers`).
    """
    if workers <= 1:
        yield (fn(*task) for task in tasks)
        return
    readers: list[BinaryIO] = []

    def send(i: int, pipe: BinaryIO) -> None:
        for reader in readers:  # the worker keeps only its own write end
            reader.close()
        for task in tasks[i::workers]:
            try:
                record = marshal.dumps(fn(*task).encode())
            except Exception as exc:
                pipe.write(marshal.dumps(f"{type(exc).__name__}: {exc}"))
                pipe.flush()
                raise
            pipe.write(record)
            pipe.flush()

    def results() -> Iterator[bytes]:
        for k in range(len(tasks)):
            result = marshal.load(readers[k % workers])
            if isinstance(result, str):
                raise RuntimeError(f"worker process {k % workers} failed on task {k}: {result}")
            yield result

    with _workers("output") as fork:
        try:
            for i in range(workers):
                r, w = os.pipe()
                readers.append(open(r, "rb"))
                with open(w, "wb") as pipe:  # closed here once the worker has it
                    fork(send, i, pipe)
            yield results()
        finally:
            for reader in readers:
                reader.close()


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
    states = _shared((n_paths, n_steps + 1))
    clamped = _shared((n_paths, n_steps + 1), dtype=bool)
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
    final = _shared(n_paths)
    clamp_any = _shared(n_paths, dtype=bool)

    def work(lo: int, hi: int) -> None:
        block_clamped = clamp_any[lo:hi]
        for _s, _x, _u, x_next, hit, _sq in _em_steps(
            x0, [u], model, dt, n_steps, seed, lo, hi - lo, clamp=clamp
        ):
            block_clamped |= hit[0]
        final[lo:hi] = x_next[0]

    _for_each_chunk(n_paths, work)
    return final, clamp_any
