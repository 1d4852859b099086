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
because ``sum_b |b><b|`` is the identity; each shot draws the reading from
that mixture and then b from the discrete conditional ``p(x, b) / p(x)``.
One private chunk generator makes the draw, ``CHUNK`` shots at a time, and
it has two consumers: ``sample`` copies the chunks into one ``SampleBatch``
(9 bytes per shot), and ``sample_moments`` folds each chunk into per-outcome
counts and sums as it is drawn, so its memory does not grow with the shot
count.

``PointerStatistics`` holds the closed forms of one configuration for every
outcome: the post-selection probability and the conditional mean, computed
from one coefficient matrix and one overlap kernel. Centers whose kernel
with their sorted neighbour is at least 1/2 form a cluster, and inside each
cluster the kernel is written as a sum of squares, so neither near
orthogonal post-selection nor a null direction of the kernel cancels large
terms. It is the one place where an outcome of probability ``<= TOL`` gets
no mean (None).
``post_selection_probability`` and ``conditional_pointer_mean`` build that
record and read one outcome from it, so they return the same numbers.

``conditional_pointer_mean_quadrature`` is a second, independent route to
the mean: Gauss-Legendre quadrature of the joint density, in which each
center integrates its own cell out to the midpoints with its neighbours.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .kdq import PostSelectionError
from .qcore import TOL, Operator, OrthonormalBasis, StateVector, _spectral_sum, check_index, same_dim

CHUNK = 8192  # fixed sampling chunk; chunk k draws from generator (seed, k)
REACH = 12.0  # quadrature range past each center, in widths; the Gaussian tail beyond is below 1e-32
QUAD_ORDERS = (24, 40)  # Gauss-Legendre orders per piece: the error estimate's and the mean's


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

    Readings and outcome indices are parallel 1-D arrays whose common length
    is the shot count. ``b_index`` indexes the final basis the batch
    was drawn for; the batch keeps no labels. ``b_index`` must hold
    non-negative integers, and is kept in its own integer dtype: ``uint8``
    from ``sample``. Readings are converted to float64. A batch holds
    read-only views of the arrays it is given and does not copy a float64
    ``readings`` or any integer ``b_index``, so the caller's arrays stay
    writable. ``sample`` gives bit-identical batches for identical (seed,
    shots, config, scenario) inputs.
    """

    readings: np.ndarray
    b_index: np.ndarray

    def __post_init__(self) -> None:
        readings = np.asarray(self.readings, dtype=float).view()
        b_index = np.asarray(self.b_index).view()
        if b_index.dtype.kind not in "iu":  # a cast would truncate floats, and bool is a mask
            raise ValueError(f"b_index must hold non-negative integers, got dtype {b_index.dtype}")
        if readings.ndim != 1 or b_index.shape != readings.shape:
            raise ValueError("readings and b_index must both hold one entry per shot")
        if b_index.dtype.kind == "i" and b_index.size and b_index.min() < 0:
            raise ValueError(f"b_index must hold non-negative integers, got {b_index.min()}")
        readings.setflags(write=False)
        b_index.setflags(write=False)
        object.__setattr__(self, "readings", readings)
        object.__setattr__(self, "b_index", b_index)


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


@dataclass(frozen=True, init=False)
class PointerStatistics:
    """Closed forms of one pointer configuration, for every final outcome b.

    Built once, by ``PointerStatistics(a, basis_m, basis_b, cfg)``, from one
    coefficient matrix ``<b|m><m|a>`` and one overlap kernel
    ``K_nm = exp(-x_nm)``, ``x_nm = (g (k_n - k_m) / width)**2 / 8``:
    ``probability[b] = sum_nm c*_n K_nm c_m`` over row c of the coefficients,
    the post-selection probability of b, and ``mean[b]``, the mean pointer
    reading conditioned on b, None where ``probability[b] <= TOL``. Both are
    tuples, and the record is frozen like ``PointerConfig``. The mean weighs K
    with the pair average ``H_nm = (k_n + k_m) / 2``; each eigenvalue is halved
    before the sum, which therefore cannot overflow. The exponent is squared
    as one ratio, which ``PointerConfig`` keeps finite; ``g**2`` alone may
    underflow while ``(k_n - k_m)**2`` overflows.

    Near orthogonal post-selection, and near a null direction of K, ``c† K c``
    cancels terms of order ``(sum |c|)**2`` down to a small P(b). So the
    centers are split into clusters: sorted by eigenvalue, a new cluster
    starts wherever the kernel between neighbours drops below 1/2. Inside a
    cluster C the kernel is a sum of squares. With ``mu_n = g (k_n - k_mid) / width``,
    the offset from the middle of C, ``K_nm = sum_k v_kn v_km`` for
    ``v_kn = exp(-mu_n**2 / 8) (mu_n / 2)**k / sqrt(k!)``: the Taylor series of
    ``exp(mu_n mu_m / 4)``, as in the Hermite expansion of the fast Gauss
    transform (Greengard & Strain, SIAM J. Sci. Stat. Comput. 12, 79 (1991)).
    So ``c_C† K c_C = sum_k |v_k . c_C|**2``, a sum of non-negative terms, and
    the moment is ``2 Re sum_k conj(v_k . c_C) (v_k . (c_C∘k / 2))``; pairs
    across clusters keep their kernel entries. ``v_kn**2`` is the Poisson
    weight of k at mean ``mu_n**2 / 4``, so each column of v has unit norm and
    no term overflows. The series stops at order ``lam + 12 sqrt(lam) + 40``,
    ``lam = max mu**2 / 4``, where Bernstein's bound puts each column's tail
    below ``e**-72``; as a cluster spans at most ``(d - 1) sqrt(8 ln 2)``
    widths, lam stays below 78 and the order below 230. P(b) is then off by
    at most ``F = 2 d (2d + 8) u / sqrt(P(b))`` relative, ``u = 2**-53``: the
    bound on what rounding the coefficients themselves does to it (9e-10 at
    d = 3 and ``P(b) = TOL``). The mean is off by at most
    ``F (|mean| + g max|k| (1 + sum |c| / sqrt(P(b))))``.
    ``tests/test_oracle.py`` derives both and checks them against mpmath.
    ``post_selection_probability`` and ``conditional_pointer_mean`` read their
    outcome from this record.
    """

    probability: tuple[float, ...]
    mean: tuple[float | None, ...]

    def __init__(
        self, a: StateVector, basis_m: OrthonormalBasis, basis_b: OrthonormalBasis, cfg: PointerConfig
    ) -> None:
        rows = _coefficients(a, basis_m, basis_b, cfg)
        kappa = np.asarray(cfg.eigenvalue)
        kernel = np.exp(-((cfg.coupling * (kappa[:, None] - kappa) / cfg.width) ** 2) * 0.125)
        rank = np.argsort(kappa, kind="stable")
        new = np.concatenate(([True], kernel[rank[:-1], rank[1:]] < 0.5))  # a cluster starts past each kernel < 1/2
        cluster = np.empty(kappa.size, dtype=np.intp)
        cluster[rank] = np.cumsum(new) - 1
        ordered, bounds = kappa[rank], np.flatnonzero(new)  # bounds: the sorted index of each cluster's lowest
        low = ordered[bounds]
        mid = low + 0.5 * (np.maximum.reduceat(ordered, bounds) - low)
        mu = cfg.coupling * (kappa - mid[cluster]) / cfg.width  # offset from the middle of its cluster, in widths
        lam = float(np.max(mu**2)) / 4.0
        order = math.ceil(lam + 12.0 * math.sqrt(lam) + 40.0)
        steps = np.empty((order, kappa.size))
        steps[0] = np.exp(-(mu**2) / 8.0)
        steps[1:] = (0.5 * mu) / np.sqrt(np.arange(1.0, order))[:, None]
        v = np.cumprod(steps, axis=0)  # v[k, n] = exp(-mu_n**2 / 8) (mu_n / 2)**k / sqrt(k!)
        member = np.eye(cluster.max() + 1)[cluster]  # (m, cluster), one-hot
        weights = (v.T[:, :, None] * member[:, None, :]).reshape(kappa.size, -1)  # [n, (k, C)] = v_kn [n in C]
        half = 0.5 * kappa
        s, t = rows @ weights, (rows * half) @ weights  # v_k . c_C and v_k . (c_C k / 2), per (k, C)
        cross = np.where(cluster[:, None] == cluster, 0.0, kernel)  # pairs across clusters keep K
        probability = np.sum(s.real**2 + s.imag**2, axis=1) + np.sum((rows.conj() @ cross) * rows, axis=1).real
        moment = 2.0 * np.sum(s.real * t.real + s.imag * t.imag, axis=1)
        moment += np.sum((rows.conj() @ (cross * (half[:, None] + half))) * rows, axis=1).real
        object.__setattr__(self, "probability", tuple(probability.tolist()))
        means = [None if p <= TOL else cfg.coupling * m / p for m, p in zip(moment.tolist(), self.probability)]
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

    Each center integrates its own cell, in its own coordinate ``u = (x - g k_m) / width``:
    from the midpoint with its lower neighbour to the midpoint with its upper one, capped
    at ``REACH`` widths, as two pieces split at the center. The cells tile the line
    wherever a center lies within ``2 * REACH`` widths of the next, and any gap they leave
    lies more than ``REACH`` widths from every center; coincident centers get pieces of
    zero width. Offsets come from eigenvalue differences, so no width is too small for
    the centers. The density is evaluated once on the nodes of both orders in
    ``QUAD_ORDERS``; the higher order gives the mean. Its error estimate is the
    difference of the two means plus the rounding of the summed moment, and a
    ``RuntimeWarning`` reports an estimate above ``1e-8 * max(1, |mean|)``. That happens
    where ``E|x|`` passes about ``1e7 * max(1, |mean|)``, since the first moment cancels in
    floating point, and where P(b) nears ``TOL``, since the two orders part there.
    """
    c = _row(_coefficients(a, basis_m, basis_b, cfg), b_index)
    rank = np.argsort(cfg.eigenvalue, kind="stable")
    kappa = np.asarray(cfg.eigenvalue)[rank]
    stacked = np.stack([c.real, c.imag], axis=1)[rank]  # (d, 2): one real matmul gives Re and Im
    offsets = cfg.coupling * (kappa[None, :] - kappa[:, None]) / cfg.width  # [n, m]: center m in n's coordinate
    reach = np.minimum(REACH, np.diag(offsets, 1) / 2)  # half the gap to the next center up
    half = 0.5 * np.stack([np.append(REACH, reach), np.append(reach, REACH)], axis=1).ravel()  # below, above
    owner = np.repeat(np.arange(kappa.size), 2)
    nodes, weights = _gauss_legendre()
    u = (np.tile([-1.0, 1.0], kappa.size) * half)[:, None] * (1.0 + nodes)  # (pieces, nodes), owner's coordinate
    amps = np.exp(-0.25 * (u[:, :, None] - offsets[owner][:, None, :]) ** 2) @ stacked  # (pieces, nodes, 2)
    p = np.sum(amps**2, axis=-1) * (half[:, None] / np.sqrt(2.0 * np.pi))  # density in u, scaled to the piece
    mass = np.sum(p @ weights.T, axis=0)  # one entry per order
    if mass[-1] <= TOL:
        raise PostSelectionError(f"post-selection probability ~ 0 for b index {b_index}")
    anchor = cfg.coupling * kappa[owner, None]
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


def _chunks(
    a: StateVector,
    basis_m: OrthonormalBasis,
    basis_b: OrthonormalBasis,
    cfg: PointerConfig,
    shots: int,
    seed: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The draw of ``sample``, one (readings, uint8 outcome index) pair per chunk, in order.

    The arguments are checked on the call; the chunks are drawn as they are
    iterated, so a consumer that folds each one never holds the whole draw.

    Each chunk makes the floating-point operations of ``reference_sample`` in
    ``tests/test_weaksim.py`` in the same order, in passes chosen by measurement
    (best of 7 x 3,000 calls on 8,192 shots, microseconds at d = 3 / 8 / 16, 2
    vCPU shared VM, Python 3.11.7, numpy 2.4.6). Two draws are numpy
    reductions that count comparisons, with the same integer as their direct
    forms: the component draw, ``searchsorted(cumulative, u, side="right")``,
    is ``(cumulative[:-1] <= u).sum(axis=0)`` (14.8 / 39.2 / 78.7 against
    52.5 / 112.6 / 184.3 for ``searchsorted`` and 14.5 / 47.9 / 94.3 for a loop
    over the rows), and the outcome draw, ``sum(weight <= threshold, axis=0)``,
    sums straight into ``uint8`` (9.0 / 29.5 / 33.2 against 11.3 / 46.8 / 56.3
    for the row loop). Three passes stay hand-written, each faster than its
    direct form: the in-place exponent, the cumulative sum over outcomes as a
    loop over contiguous rows (14.3 / 36.0 / 84.0 against 168 / 312 / 788 for
    ``np.cumsum(axis=0)``), and one real matmul for Re and Im of every
    amplitude. The exponent reads the gap stored negated, ``nd = -d``, as
    ``(z - nd) * nd``, which is ``-(d (d + z))`` exactly (33 / 121 at d = 3 / 8
    against 174 / 383 for ``exp(-d * (d + z))``); a zero gap gives ``exp(+-0) = 1``
    either way.

    The conditional draw of b needs none of ``PointerStatistics``' per-cluster
    care, although its weights ``w_b = |A_b|**2``, ``A_b = sum_n c_bn e_n`` with
    ``e_n = exp(-d_n (d_n + z))``, can cancel: each shot compares them with
    their total ``W``, not with P(b). As ``sum_b |b><b| = 1``,
    ``W = sum_n |<n|a>|**2 e_n**2``, and as ``sum_n |<b|n>|**2 = 1``,
    Cauchy-Schwarz gives ``(sum_n |c_bn| e_n)**2 <= W`` for every b. So with
    each term ``c_bn e_n`` off by a relative ``rho`` (about ``(3 + z**2 / 2) u``,
    ``u = 2**-53``, where the exponent is negative; where it is positive the
    term decays faster than its error grows), ``A_b`` is off by at most
    ``eta sqrt(W)``, ``eta = rho + gamma_d``, each weight by about ``2 eta W``,
    their total by d times that, and the running sums that a threshold meets
    by ``gamma_d W`` more. Each shot's conditional probability of every b
    then moves by at most about ``2 (d + 1) eta + 3 gamma_d``, absolute,
    however small P(b) is: 1.5e-13 at d = 16 and ``|z| = 6``, where
    ``eta = (d + 21) u``. A shot's outcome changes with probability at most
    about ``4 d eta = 2.6e-13``, so among ``MAX_SHOTS = 1e8`` shots the
    expected number it changes is below 1e-4. The coefficients' own rounding
    perturbs the inputs, as it does for the closed form. ``tests/test_oracle.py`` draws 2e6 shots at an
    outcome of P(b) = 5.5e-5 near a null direction of the kernel and checks
    every count against ``PointerStatistics``.
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
    neg_gap = (centers[:, None] - centers[None, :]) / (2.0 * cfg.width)  # [n, m] = (c_n - c_m) / 2w = -d

    def draw(start: int) -> tuple[np.ndarray, np.ndarray]:
        count = min(CHUNK, shots - start)
        rng = np.random.default_rng([int(seed), start // CHUNK])
        u = rng.random(count)
        # searchsorted(cumulative, u, side="right"), as cumulative[-1] = 1 > u
        drawn = (cumulative[:-1, None] <= u).sum(axis=0, dtype=np.intp)
        z = rng.standard_normal(count)
        nd = neg_gap.take(drawn, axis=1)  # (dim, count), C-contiguous
        e = z - nd
        e *= nd  # -(d * (d + z)) exactly, so exp(-d * (d + z)) bit for bit
        np.exp(e, out=e)
        amps = stacked @ e
        np.square(amps, out=amps)
        weight = amps[:dim]
        weight += amps[dim:]
        for k in range(1, dim):  # the sequential sum of cumsum(axis=0), one contiguous row at a time
            weight[k] += weight[k - 1]
        threshold = rng.random(count)
        threshold *= weight[-1]
        b_index = (weight <= threshold).sum(axis=0, dtype=np.uint8)  # dim <= MAX_DIM = 16 fits in one byte
        return centers[drawn] + cfg.width * z, b_index

    return map(draw, range(0, shots, CHUNK))


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
    batch is a pure function of (seed, shots, config). Each chunk makes the
    floating-point operations of the direct form (``searchsorted`` for m, a
    column gather, ``exp(-d * (d + z))``, a cumulative sum over outcomes and a
    count of the sums below the threshold for b) in the same order, so no bit
    of the batch depends on how they are written: both draws are numpy
    reductions that count comparisons, and the exponent and the cumulative sum
    are in-place passes over contiguous rows, which measure faster than their
    direct forms (see ``_chunks``). ``b_index`` is ``uint8``, so the batch
    takes 9 bytes per shot.
    """
    chunks = _chunks(a, basis_m, basis_b, cfg, shots, seed)  # checks the arguments before anything is allocated
    readings = np.empty(shots, dtype=float)
    b_index = np.empty(shots, dtype=np.uint8)
    for start, (x, b) in zip(range(0, shots, CHUNK), chunks):
        readings[start : start + x.size] = x
        b_index[start : start + b.size] = b
    return SampleBatch(readings, b_index)


def sample_moments(
    a: StateVector,
    basis_m: OrthonormalBasis,
    basis_b: OrthonormalBasis,
    cfg: PointerConfig,
    shots: int,
    seed: int,
) -> tuple[tuple[int, ...], tuple[float | None, ...]]:
    """Per-outcome shot count and mean reading of the draw ``sample`` makes, in bounded memory.

    Returns ``(count, mean)``, two tuples indexed by b; ``mean[b]`` is None
    where ``count[b]`` is 0. Each chunk is folded with ``np.bincount`` as it is
    drawn, and the chunk sums of each outcome are merged with ``math.fsum``. The
    counts equal ``np.bincount(sample(...).b_index, minlength=dim)``, and each
    mean lies within ``CHUNK * eps`` times the mean of ``|reading|`` of the exact
    mean of the same readings: a chunk sum adds one rounding per reading.
    """
    chunks = _chunks(a, basis_m, basis_b, cfg, shots, seed)
    dim = basis_b.dim
    count = np.zeros(dim, dtype=np.int64)
    sums = np.empty((-(-shots // CHUNK), dim))  # one row per chunk
    for row, (x, b) in zip(sums, chunks):
        count += np.bincount(b, minlength=dim)
        row[:] = np.bincount(b, weights=x, minlength=dim)
    mean = [math.fsum(column) / n if n else None for column, n in zip(sums.T.tolist(), count.tolist())]
    return tuple(count.tolist()), tuple(mean)
