"""Gaussian-pointer model of measuring a basis observable between pre- and post-selection.

A position pointer with initial standard deviation ``width`` is shifted by
``coupling * eigenvalue[m]`` conditioned on the intermediate outcome m. The
observable joint density of (pointer reading, final outcome b) is an ordinary
non-negative probability for every pointer width, which is how the negative
and imaginary structure of the underlying joint table stays covered up: wide
pointers read out real weak values, narrow pointers recover projective
statistics, and nothing in between ever exposes a negative density.

Sampling is exact in every regime. Summed over b the joint density is the
Gaussian mixture ``sum_m |<m|a>|^2 N(coupling * eigenvalue[m], width^2)``,
because ``sum_b |b><b|`` is the identity; ``sample`` draws the reading from
that mixture and then b from the discrete conditional ``p(x, b) / p(x)``.

``PointerStatistics`` holds the closed forms of one configuration for every
outcome: the post-selection probability and the conditional mean, computed
from one coefficient matrix and one overlap kernel. It is the one place
where an outcome of probability ``<= TOL`` gets no mean (None).
``post_selection_probability`` and ``conditional_pointer_mean`` build that
record and read one outcome from it, so they return the same numbers.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .kdq import PostSelectionError
from .qcore import TOL, Operator, OrthonormalBasis, StateVector, _spectral_sum, check_index, same_dim

CHUNK = 8192  # fixed sampling chunk; chunk k draws from generator (seed, k)
REACH = 12.0  # quadrature range past each center, in widths; the Gaussian tail beyond is below 1e-32
QUAD_ORDERS = (20, 40)  # Gauss-Legendre orders per piece: the mean and its error estimate


@dataclass(frozen=True)
class PointerConfig:
    """Pointer coupling strength, initial width and measured spectrum."""

    coupling: float
    width: float
    eigenvalue: tuple[float, ...]

    def __post_init__(self) -> None:
        g = float(self.coupling)
        s = float(self.width)
        if not (np.isfinite(g) and g > 0.0):
            raise ValueError(f"coupling must be positive and finite, got {self.coupling}")
        if not (np.isfinite(s) and s > 0.0):
            raise ValueError(f"width must be positive and finite, got {self.width}")
        kappa = tuple(float(k) for k in self.eigenvalue)
        if not kappa or not all(np.isfinite(kappa)):
            raise ValueError("eigenvalue list must be non-empty and finite")
        # The density, the overlap kernel and the sampler square these; an underflow
        # to 0 or an overflow raises or gives wrong numbers.
        if not (np.finfo(float).tiny <= s * s and np.isfinite(8.0 * s * s)):
            raise ValueError(f"width {s:g} is out of range: width**2 must be a finite normal float")
        reach = g * max(abs(k) for k in kappa)
        spread = g * (max(kappa) - min(kappa)) / s
        if not all(np.isfinite(v * v) for v in (g, reach, spread)):
            raise ValueError(
                f"coupling {g:g} is too large for this width and eigenvalue spread: "
                "coupling**2, (coupling*max|kappa|)**2 and (coupling*(max kappa - min kappa)/width)**2 must be finite"
            )
        object.__setattr__(self, "coupling", g)
        object.__setattr__(self, "width", s)
        object.__setattr__(self, "eigenvalue", kappa)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Drawn (pointer reading, final outcome) pairs, one entry per shot.

    Readings and outcome indices are parallel 1-D arrays of equal length, and
    ``len()`` is the shot count. ``b_index`` indexes the final basis the batch
    was drawn for; the batch keeps no labels. A batch holds read-only views
    of the float64 and int64 arrays it is given and does not copy them, so
    the caller's arrays stay writable; other dtypes are converted first. ``sample`` gives
    bit-identical batches for identical (seed, shots, config, scenario) inputs.
    """

    readings: np.ndarray
    b_index: np.ndarray

    def __post_init__(self) -> None:
        readings = np.asarray(self.readings, dtype=float).view()
        b_index = np.asarray(self.b_index, dtype=np.int64).view()
        if readings.ndim != 1 or b_index.shape != readings.shape:
            raise ValueError("readings and b_index must both hold one entry per shot")
        readings.setflags(write=False)
        b_index.setflags(write=False)
        object.__setattr__(self, "readings", readings)
        object.__setattr__(self, "b_index", b_index)

    def __len__(self) -> int:
        return self.readings.size


def observable_from_eigenvalues(basis_m: OrthonormalBasis, eigenvalue: tuple[float, ...]) -> Operator:
    """The measured observable ``sum_m eigenvalue[m] |m><m|``."""
    if len(eigenvalue) != basis_m.dim:
        raise ValueError(f"need {basis_m.dim} eigenvalues, got {len(eigenvalue)}")
    return _spectral_sum(basis_m, np.asarray(eigenvalue, dtype=float))


def _coefficients(
    a: StateVector, basis_m: OrthonormalBasis, basis_b: OrthonormalBasis, cfg: PointerConfig
) -> np.ndarray:
    """``<b|m><m|a>`` with rows b and columns m."""
    dim = same_dim(a.dim, basis_m.dim, basis_b.dim)
    if len(cfg.eigenvalue) != dim:
        raise ValueError(f"config lists {len(cfg.eigenvalue)} eigenvalues for dimension {dim}")
    return (basis_b.matrix.conj() @ basis_m.matrix.T) * (basis_m.matrix.conj() @ a.amp)


def _row(rows: np.ndarray | tuple, b_index: int) -> np.ndarray | float | None:
    # a row of coefficients, or one outcome's entry of a PointerStatistics tuple
    return rows[check_index("b_index", b_index, len(rows))]


def _overlap_kernel(cfg: PointerConfig) -> np.ndarray:
    """Gaussian overlap of pointer wave packets centered per outcome.

    The exponent is squared as one ratio, ``(g * delta / width)**2``, which
    ``PointerConfig`` keeps finite; ``g**2`` alone may underflow while
    ``delta**2`` overflows.
    """
    kappa = np.asarray(cfg.eigenvalue)
    delta = kappa[:, None] - kappa[None, :]
    return np.exp((cfg.coupling * delta / cfg.width) ** 2 * -0.125)  # equals -(...)/8 bit for bit, one pass fewer


@dataclass(frozen=True, init=False)
class PointerStatistics:
    """Closed forms of one pointer configuration, for every final outcome b.

    Built once, by ``PointerStatistics(a, basis_m, basis_b, cfg)``, from one
    coefficient matrix ``<b|m><m|a>`` and one overlap kernel K:
    ``probability[b] = sum_nm c*_n K_nm c_m`` over row c of the coefficients,
    the post-selection probability of b, and ``mean[b]``, the mean pointer
    reading conditioned on b, None where ``probability[b] <= TOL``. Both are
    tuples, and the record is frozen like ``PointerConfig``. The mean weighs K
    with the pair average ``(k_n + k_m) / 2``; each eigenvalue is halved
    before the sum, which therefore cannot overflow.
    ``post_selection_probability`` and ``conditional_pointer_mean`` read their
    outcome from this record.
    """

    probability: tuple[float, ...]
    mean: tuple[float | None, ...]

    def __init__(
        self, a: StateVector, basis_m: OrthonormalBasis, basis_b: OrthonormalBasis, cfg: PointerConfig
    ) -> None:
        rows = _coefficients(a, basis_m, basis_b, cfg)
        kernel = _overlap_kernel(cfg)
        half = 0.5 * np.asarray(cfg.eigenvalue)
        centered = kernel * (half[:, None] + half)
        # lists, not generators: at these sizes the Python overhead is a visible share of a call
        object.__setattr__(self, "probability", tuple([float(complex(c.conj() @ kernel @ c).real) for c in rows]))
        means = [
            None if p <= TOL else float(cfg.coupling * complex(c.conj() @ centered @ c).real / p)
            for c, p in zip(rows, self.probability)
        ]
        object.__setattr__(self, "mean", tuple(means))


def post_selection_probability(
    a: StateVector, basis_m: OrthonormalBasis, basis_b: OrthonormalBasis, cfg: PointerConfig, b_index: int
) -> float:
    """Probability of outcome b after the pointer interaction (closed form)."""
    return _row(PointerStatistics(a, basis_m, basis_b, cfg).probability, b_index)


def conditional_pointer_mean(
    a: StateVector, basis_m: OrthonormalBasis, basis_b: OrthonormalBasis, cfg: PointerConfig, b_index: int
) -> float:
    """Mean pointer reading conditioned on outcome b (closed Gaussian form).

    Wide pointers approach ``coupling * Re`` of the weak value of the
    measured observable; narrow pointers approach the projective average.
    """
    mean = _row(PointerStatistics(a, basis_m, basis_b, cfg).mean, b_index)
    if mean is None:
        raise PostSelectionError(f"post-selection probability ~ 0 for b index {b_index}")
    return mean


def conditional_pointer_mean_quadrature(
    a: StateVector, basis_m: OrthonormalBasis, basis_b: OrthonormalBasis, cfg: PointerConfig, b_index: int
) -> float:
    """Same conditional mean via composite Gauss-Legendre quadrature of the joint density.

    Centers fewer than ``2 * REACH`` widths apart form a cluster. Each cluster is
    integrated in the local coordinate ``u = (x - anchor) / width``, with the anchor
    its lowest center, out to ``REACH`` widths past its outermost centers, over
    pieces split at every center and ``REACH`` widths either side of it. Offsets
    come from eigenvalue differences, so no width is too small for the centers.
    The density is evaluated once on the nodes of both orders in
    ``QUAD_ORDERS``; the higher order gives the mean. Its error estimate is the
    difference of the two means plus the rounding of the summed moment, and a
    ``RuntimeWarning`` reports an estimate above ``1e-8 * max(1, |mean|)``.
    """
    c = _row(_coefficients(a, basis_m, basis_b, cfg), b_index)
    rank = np.argsort(cfg.eigenvalue, kind="stable")
    kappa = np.asarray(cfg.eigenvalue)[rank]
    stacked = np.stack([c.real, c.imag], axis=1)[rank]  # (d, 2): one real matmul gives Re and Im
    gaps = cfg.coupling * np.diff(kappa) / cfg.width
    firsts = np.flatnonzero(np.concatenate([[True], gaps >= 2.0 * REACH]))
    offsets = cfg.coupling * (kappa[None, :] - kappa[firsts, None]) / cfg.width  # (clusters, d), local units

    cluster, lo, hi = [], [], []
    for k, (start, stop) in enumerate(zip(firsts, [*firsts[1:], kappa.size])):
        own = offsets[k, start:stop]
        cuts = np.unique(np.concatenate([own - REACH, own, own + REACH]))
        cluster += [k] * (cuts.size - 1)
        lo.append(cuts[:-1])
        hi.append(cuts[1:])
    cluster = np.asarray(cluster)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    u = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes  # (pieces, nodes)
    amps = np.exp(-0.25 * (u[:, :, None] - offsets[cluster][:, None, :]) ** 2) @ stacked  # (pieces, nodes, 2)
    p = np.sum(amps**2, axis=-1) * (half[:, None] / np.sqrt(2.0 * np.pi))  # density in u, scaled to the piece
    mass = np.sum(p @ weights.T, axis=0)  # one entry per order
    if mass[-1] <= TOL:
        raise PostSelectionError(f"post-selection probability ~ 0 for b index {b_index}")
    anchor = cfg.coupling * kappa[firsts][cluster, None]
    means = np.sum((anchor * p + cfg.width * u * p) @ weights.T, axis=0) / mass
    # Summing x p in floating point adds an error of a few eps * E|x| that the orders
    # share (up to 2 eps * E|x| measured at widths 1e5 to 1e12), so it is added on top.
    magnitude = np.sum(((np.abs(anchor) + cfg.width * np.abs(u)) * p) @ weights[-1]) / mass[-1]
    error = abs(means[-1] - means[0]) + 4.0 * np.finfo(float).eps * magnitude
    if error > 1e-8 * max(1.0, abs(means[-1])):
        warnings.warn(
            f"quadrature mean for b index {b_index} may be off by {error:.2g}: its error estimate"
            f" (orders {QUAD_ORDERS[0]} and {QUAD_ORDERS[-1]} and rounding) exceeds 1e-8 * max(1, |mean|)",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(means[-1])


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] of the two orders in ``QUAD_ORDERS`` side by side, and one weight row per order.

    Each row holds its order's weights at its own nodes and zeros at the other's.
    """
    from numpy.polynomial.legendre import leggauss  # not imported with numpy; kept off the `import kdqlab` path

    (x_low, w_low), (x_high, w_high) = (leggauss(n) for n in QUAD_ORDERS)
    nodes = np.concatenate([x_low, x_high])
    weights = np.block([[w_low, np.zeros_like(w_high)], [np.zeros_like(w_low), w_high]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def sample(
    a: StateVector,
    basis_m: OrthonormalBasis,
    basis_b: OrthonormalBasis,
    cfg: PointerConfig,
    shots: int,
    seed: int,
) -> SampleBatch:
    """Draw (reading, outcome) pairs exactly from the joint pointer density.

    Each shot draws m from ``|<m|a>|^2``, sets the reading ``x = g k_m + width * z``
    with z standard normal, and draws b from ``p(x, b) / p(x)``. Amplitudes are
    taken relative to the drawn center: term n carries ``exp(-d (d + z))`` with
    ``d = g (k_m - k_n) / (2 width)``, at most ``exp(z^2 / 4)`` and 1 for n = m, so
    no width or eigenvalue spread overflows or empties the conditional, and
    outcomes of zero weight are never drawn. Chunk k of ``CHUNK`` shots uses the
    generator derived from (seed, k) and chunks concatenate in order, so the
    batch is a pure function of (seed, shots, config). Each chunk runs in
    contiguous, in-place passes that make the same floating-point operations in
    the same order as the direct form (a column gather, ``exp(-d * (d + z))``
    and a cumulative sum over outcomes), so they change no bit of the batch.
    """
    # bool is an int subclass, but True shots or a False seed is a caller's mistake
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")

    c = _coefficients(a, basis_m, basis_b, cfg)
    dim = len(c)
    stacked = np.concatenate([c.real, c.imag])  # one real matmul yields Re and Im of every amplitude
    cumulative = np.cumsum(np.sum(c.real**2 + c.imag**2, axis=0))  # sum over b of |<b|m><m|a>|^2
    cumulative /= cumulative[-1]
    cumulative[-1] = 1.0
    centers = cfg.coupling * np.asarray(cfg.eigenvalue)
    half_gap = (centers[None, :] - centers[:, None]) / (2.0 * cfg.width)  # [n, m] = (c_m - c_n) / 2w

    readings = np.empty(shots, dtype=float)
    b_index = np.empty(shots, dtype=np.int64)
    for start in range(0, shots, CHUNK):
        count = min(CHUNK, shots - start)
        rng = np.random.default_rng([int(seed), start // CHUNK])
        u = rng.random(count)
        drawn = np.zeros(count, dtype=np.intp)
        for k in range(dim - 1):  # searchsorted(cumulative, u, side="right"), as cumulative[-1] = 1 > u
            drawn += cumulative[k] <= u
        z = rng.standard_normal(count)
        d = half_gap.take(drawn, axis=1)  # (dim, count), C-contiguous
        e = d + z
        e *= d
        np.negative(e, out=e)  # exact, so this is exp(-d * (d + z)) bit for bit
        np.exp(e, out=e)
        amps = stacked @ e
        np.square(amps, out=amps)
        weight = amps[:dim]
        weight += amps[dim:]
        for k in range(1, dim):  # the sequential sum of cumsum(axis=0), one contiguous row at a time
            weight[k] += weight[k - 1]
        b_index[start : start + count] = np.sum(weight <= rng.random(count) * weight[-1], axis=0)
        readings[start : start + count] = centers[drawn] + cfg.width * z
    return SampleBatch(readings, b_index)
