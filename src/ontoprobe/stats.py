"""Rank correlation and cross-sectional Granger causality.

Spearman's rho is the Pearson correlation of average ranks, with
significance from a seeded permutation test rather than the asymptotic
approximation. The Granger F-test compares a restricted autoregression
of y against one augmented with lagged x, over series ordered by
ascending popularity bucket. Both are pure functions of their inputs.

Inside a `worker()` block both are computed in one worker process, which
loads numpy (and scipy.special, unless told otherwise) while the caller
reads its inputs; outside one they are computed in the calling process.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateInputError

# numpy is imported inside the functions that use it, so a stage that
# computes no statistic never loads it.
if TYPE_CHECKING:
    import multiprocessing
    from multiprocessing.connection import Connection

    import numpy as np

# Permutations are processed in blocks so a large n_permutations request
# does not materialize one giant matrix.
_PERMUTATION_BLOCK = 65536


class CorrelationResult(NamedTuple):
    rho: float
    p_value: float
    n_permutations: int
    seed: int


class GrangerResult(NamedTuple):
    f_statistic: float
    p_value: float
    lag: int
    n_effective: int
    df: tuple[int, int]


class _Worker(NamedTuple):
    process: multiprocessing.Process
    conn: Connection


# The worker of the innermost worker() block open in this thread, if any.
_worker: ContextVar = ContextVar("worker", default=None)


def _serve(conn: Connection, caller_end: Connection, libraries: tuple[str, ...]) -> None:
    """The worker process: load `libraries`, then answer `(core, args)`
    requests with `(True, result)` or `(False, exception)` until the
    caller's end of the pipe closes, which it also does when the caller
    dies."""
    import importlib

    caller_end.close()
    # One BLAS thread: the matrices have at most a few dozen rows, and a
    # second thread would only contend with the caller for a core.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    for name in libraries:
        importlib.import_module(name)
    try:
        while True:
            core, args = conn.recv()
            try:
                reply = (True, core(*args))
            except Exception as exc:
                reply = (False, exc)
            conn.send(reply)
    except (EOFError, BrokenPipeError):
        return  # the caller's end is closed


def _start(libraries: tuple[str, ...]) -> _Worker | None:
    """A started worker process and the caller's end of its pipe; None if
    either cannot be made. Each side closes the other side's end."""
    import multiprocessing

    try:
        conn, worker_end = multiprocessing.Pipe()
    except OSError:
        return None
    try:
        process = multiprocessing.Process(target=_serve, args=(worker_end, conn, libraries))
        process.start()
    except (OSError, NotImplementedError):
        conn.close()
        return None
    finally:
        worker_end.close()
    return _Worker(process, conn)


@contextmanager
def worker(libraries: tuple[str, ...] = ("numpy.random", "scipy.special")):
    """Compute `spearman` and `granger_f` in one worker process while the
    block runs.

    The process starts on entry and at once imports `libraries`, so a
    caller that enters before reading its inputs overlaps that cost with
    its reading and never loads them itself. Both statistics need
    numpy.random; only `granger_f` needs scipy.special, which a worker
    left without it imports when first computing one. If the process
    cannot start, or dies, the statistics are computed in the calling
    process. On exit the process is terminated: no request is in flight
    then unless the block raised while waiting for one, and an exit is
    not held up by imports the block did not need. When the caller dies,
    the worker reads the end of its pipe and exits. It starts by the
    platform's default method, which on Linux before Python 3.14 forks
    the caller: enter before starting any thread.
    """
    current = _start(libraries)
    token = _worker.set(current)
    try:
        yield
    finally:
        _worker.reset(token)
        if current is not None:
            current.conn.close()
            current.process.terminate()
            current.process.join()
            current.process.close()


def _compute(core, *args):
    """`core(*args)`, in the worker process if one is open and alive."""
    current = _worker.get()
    if current is not None:
        try:
            current.conn.send((core, args))
            ok, value = current.conn.recv()
        except (OSError, EOFError):
            pass  # the worker died
        else:
            if ok:
                return value
            # Unbound on the way out, or its traceback and this frame form a cycle.
            try:
                raise value
            finally:
                del value
    return core(*args)


def _as_series(name: str, values) -> np.ndarray:
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank (rankdata's "average")."""
    import numpy as np

    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_run = np.r_[True, ordered[1:] != ordered[:-1]]
    # A run of ties over sorted positions [s, e) takes rank (s + 1 + e) / 2.
    bounds = np.r_[np.flatnonzero(new_run), len(values)]
    run = np.cumsum(new_run) - 1
    ranks = np.empty(len(values))
    ranks[order] = 0.5 * (bounds[run] + bounds[run + 1] + 1)
    return ranks


def spearman(x, y, n_permutations: int = 10000, seed: int = 0) -> CorrelationResult:
    """Spearman rank correlation with a two-sided permutation p-value.

    The p-value uses the add-one formula
    (1 + #{|rho_perm| >= |rho_obs|}) / (1 + n_permutations)
    over seeded permutations of y, so it can never be exactly zero.
    """
    return _compute(_spearman, x, y, n_permutations, seed)


def _spearman(x, y, n_permutations: int, seed: int) -> CorrelationResult:
    import numpy as np

    xs = _as_series("x", x)
    ys = _as_series("y", y)
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise ValueError("need at least 3 paired observations")
    if n_permutations < 1:
        raise ValueError("n_permutations must be positive")

    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    xc = rx - rx.mean()
    yc = ry - ry.mean()
    nx = float(np.sqrt(xc @ xc))
    ny = float(np.sqrt(yc @ yc))
    if nx == 0.0 or ny == 0.0:
        raise DegenerateInputError("constant series has no rank variance")
    rho = float((xc @ yc) / (nx * ny))

    # Ranking commutes with permutation, so permuting the centered ranks
    # of y is exactly a permutation test on the raw series.
    rng = np.random.default_rng(seed)
    threshold = abs(rho)
    exceed = 0
    remaining = n_permutations
    while remaining > 0:
        block = min(remaining, _PERMUTATION_BLOCK)
        perms = rng.permuted(np.tile(yc, (block, 1)), axis=1)
        rho_perm = perms @ xc / (nx * ny)
        exceed += int(np.count_nonzero(np.abs(rho_perm) >= threshold))
        remaining -= block
    p_value = (1 + exceed) / (1 + n_permutations)
    return CorrelationResult(rho, p_value, n_permutations, seed)


def _lag_design(series: np.ndarray, lag: int) -> np.ndarray:
    import numpy as np

    # column i holds the series lagged by i+1 steps, rows t = lag..n-1
    n = len(series)
    return np.column_stack([series[lag - i:n - i] for i in range(1, lag + 1)])


def _ols_rss(design: np.ndarray, target: np.ndarray, column_names: list[str]) -> float:
    import numpy as np

    if np.linalg.matrix_rank(design) < design.shape[1]:
        rank = 0
        collinear = []
        for j in range(design.shape[1]):
            r = np.linalg.matrix_rank(design[:, : j + 1])
            if r == rank:
                collinear.append(column_names[j])
            rank = r
        raise DegenerateInputError(f"rank-deficient design matrix; collinear columns: {', '.join(collinear)}")
    beta, *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = target - design @ beta
    return float(residuals @ residuals)


def granger_f(x, y, lag: int = 3) -> GrangerResult:
    """F-test of whether lagged x improves least-squares prediction of y.

    Restricted model: y_t ~ 1 + y_{t-1..t-lag}. Unrestricted adds
    x_{t-1..t-lag}. F = ((RSS_r - RSS_u)/lag) / (RSS_u/(n_eff - 2*lag - 1))
    with n_eff = n - lag usable rows.
    """
    return _compute(_granger_f, x, y, lag)


def _granger_f(x, y, lag: int) -> GrangerResult:
    import numpy as np

    if lag < 1:
        raise ValueError("lag must be at least 1")
    xs = _as_series("x", x)
    ys = _as_series("y", y)
    if len(xs) != len(ys):
        raise ValueError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(ys)
    n_effective = n - lag
    df_den = n_effective - 2 * lag - 1
    if df_den < 1:
        raise ValueError(
            f"series too short for lag {lag}: need at least {3 * lag + 2} observations, got {n}"
        )
    if np.ptp(ys) == 0.0:
        raise DegenerateInputError("y is constant")

    target = ys[lag:]
    ones = np.ones((n_effective, 1))
    y_lags = _lag_design(ys, lag)
    x_lags = _lag_design(xs, lag)
    names_r = ["const"] + [f"y_lag{i}" for i in range(1, lag + 1)]
    names_u = names_r + [f"x_lag{i}" for i in range(1, lag + 1)]

    rss_r = _ols_rss(np.hstack([ones, y_lags]), target, names_r)
    rss_u = _ols_rss(np.hstack([ones, y_lags, x_lags]), target, names_u)
    if rss_u <= 0.0:
        raise DegenerateInputError("unrestricted model fits exactly; F-statistic undefined")
    f_statistic = (max(rss_r - rss_u, 0.0) / lag) / (rss_u / df_den)
    # F survival function; imported here so only the F-test pays for scipy.
    from scipy.special import fdtrc

    p_value = float(fdtrc(lag, df_den, f_statistic))
    return GrangerResult(f_statistic, p_value, lag, n_effective, (lag, df_den))
