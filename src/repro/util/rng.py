"""Deterministic random-stream derivation.

Experiments in this repository must be reproducible run-to-run, yet the
subsystems (channel noise, workload churn, rater sampling, ...) must not
share one global stream — otherwise adding a draw in one module silently
reshuffles every other result.  ``derive_rng`` gives each (seed, label)
pair its own independent ``numpy`` generator.

For population-scale simulation a sequential generator is not enough:
the million-receiver fleet needs draw ``j`` of receiver ``i`` to be a
*pure function* of ``(seed, labels, i, j)``, so that serial, chunked,
and multiprocess sweeps produce bit-identical results regardless of how
the population is partitioned.  ``counter_uniforms``/``counter_normals``
provide that: a Philox-style counter construction (here the splitmix64
mixing function, whose finalizer is a full-avalanche 64-bit hash) that
maps a key plus an absolute counter straight to a variate, vectorised
over numpy arrays of counters.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "derive_rng",
    "derive_key",
    "counter_uniforms",
    "counter_uniform_columns",
    "counter_normals",
]


def derive_key(seed: int, *labels: str | int) -> int:
    """64-bit stream key for ``(seed, labels)``.

    Uses the same SHA-256 path derivation as :func:`derive_rng`, so keys
    inherit its independence guarantees: any change to the seed or to
    any label yields an unrelated key.
    """
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest()[:8], "big")


def derive_rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Return a generator keyed by ``seed`` and a path of ``labels``.

    The same (seed, labels) pair always yields an identical stream; any
    change to either yields a statistically independent one.

    >>> a = derive_rng(7, "channel", 3)
    >>> b = derive_rng(7, "channel", 3)
    >>> float(a.random()) == float(b.random())
    True
    """
    material = derive_key(seed, *labels)
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, material]))


_MASK64 = 0xFFFFFFFFFFFFFFFF
#: splitmix64 constants (Steele, Lea & Flood; passes BigCrush).
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def counter_uniforms(key: int, counters: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates as a pure function of ``(key, counter)``.

    ``counters`` may be any integer array (absolute draw indices); the
    result has the same shape.  Because each variate depends only on the
    key and its own counter, any partitioning of the counter space —
    chunked, reordered, or spread across processes — reproduces the
    exact same values:

    >>> key = derive_key(0, "demo")
    >>> all_at_once = counter_uniforms(key, np.arange(10))
    >>> chunked = np.concatenate(
    ...     [counter_uniforms(key, np.arange(0, 5)),
    ...      counter_uniforms(key, np.arange(5, 10))])
    >>> bool(np.array_equal(all_at_once, chunked))
    True
    """
    x = _splitmix64_states(key, counters)
    return _splitmix64_uniforms(x, np.empty_like(x), np.empty(x.shape))


def counter_uniform_columns(
    key: int, counters: np.ndarray, columns: Iterable[int]
) -> Iterator[np.ndarray]:
    """``counter_uniforms(key, counters + j)`` for each ``j`` of ``columns``.

    The same values as one call per column, for less work: the state of
    ``counters`` is formed once, and column ``j`` adds ``j * gamma`` to
    it (uint64 arithmetic wraps the same either way).  Each yielded
    array is overwritten by the next column, so use it before asking
    for the next:

    >>> key = derive_key(0, "demo")
    >>> base = np.arange(4) * 3
    >>> all(bool(np.array_equal(u, counter_uniforms(key, base + j)))
    ...     for j, u in zip(range(3), counter_uniform_columns(key, base, range(3))))
    True
    """
    base = _splitmix64_states(key, counters)
    x, shifted, out = np.empty_like(base), np.empty_like(base), np.empty(base.shape)
    for j in columns:
        np.add(base, np.uint64(int(j) * int(_SM64_GAMMA) & _MASK64), out=x)
        yield _splitmix64_uniforms(x, shifted, out)


def _splitmix64_states(key: int, counters: np.ndarray) -> np.ndarray:
    """A fresh array of splitmix64 states ``key + counter * gamma``.

    The counter walks the generator's state sequence; the finalizer in
    :func:`_splitmix64_uniforms` is its full-avalanche output hash.
    """
    c = np.asarray(counters, dtype=np.uint64)
    x = np.empty(c.shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        np.multiply(c, _SM64_GAMMA, out=x)
        x += np.uint64(int(key) & _MASK64)
    return x


def _splitmix64_uniforms(
    x: np.ndarray, shifted: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Hash the states ``x`` into ``out`` as [0, 1) uniforms.

    Runs in place: ``x`` and the work array ``shifted`` are overwritten.
    """
    with np.errstate(over="ignore"):
        for shift, mix in ((30, _SM64_MIX1), (27, _SM64_MIX2), (31, None)):
            np.right_shift(x, np.uint64(shift), out=shifted)
            x ^= shifted
            if mix is not None:
                x *= mix
        # Top 53 bits -> float64 mantissa, exactly like numpy's own doubles.
        x >>= np.uint64(11)
    return np.multiply(x, 1.0 / (1 << 53), out=out)


#: Acklam's rational approximation of the inverse normal CDF
#: (relative error < 1.15e-9 over the full open interval).
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e00, 3.754408661907416e00,
)
_ACKLAM_SPLIT = 0.02425


def _inverse_normal_cdf(p: np.ndarray) -> np.ndarray:
    """Vectorised Phi^-1(p) with no scipy dependency (Acklam 2003)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    lo = p < _ACKLAM_SPLIT
    hi = p > 1.0 - _ACKLAM_SPLIT
    mid = ~(lo | hi)

    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = q * num / den
    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(p[lo]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[lo] = num / den
    if np.any(hi):
        q = np.sqrt(-2.0 * np.log(1.0 - p[hi]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        out[hi] = -num / den
    return out


def counter_normals(key: int, counters: np.ndarray) -> np.ndarray:
    """Standard-normal variates as a pure function of ``(key, counter)``.

    Inverse-CDF transform of :func:`counter_uniforms`, so it inherits
    the same partition-invariance.  The uniform is nudged off 0 to keep
    the transform finite.
    """
    u = counter_uniforms(key, counters)
    tiny = 1.0 / (1 << 53)
    return _inverse_normal_cdf(np.maximum(u, tiny))
