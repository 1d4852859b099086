"""Shared randomized constructors and independent oracles for the test suite."""

from __future__ import annotations

import re
from functools import reduce
from typing import Sequence

import numpy as np

from kdqlab import KDDistribution, Operator, OrthonormalBasis, PointerConfig, StateVector
from kdqlab.qcore import _finite, same_dim

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)  # as _fmt and json.dumps print them


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.normalize(z)


def haar_basis(rng: np.random.Generator, dim: int, prefix: str = "v") -> OrthonormalBasis:
    """Haar-random orthonormal basis via phase-fixed QR."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag)).conj()
    return OrthonormalBasis(
        tuple(f"{prefix}{k}" for k in range(dim)),
        tuple(StateVector(q[:, k]) for k in range(dim)),
    )


def real_haar_basis(rng: np.random.Generator, dim: int, prefix: str = "v") -> OrthonormalBasis:
    """Haar-random real orthogonal basis via sign-fixed QR: every amplitude has imaginary part exactly 0."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diagonal(r))
    return OrthonormalBasis(
        tuple(f"{prefix}{k}" for k in range(dim)),
        tuple(StateVector(q[:, k]) for k in range(dim)),
    )


def entry(dist: KDDistribution, m_label: str, b_label: str) -> complex:
    """The table cell ``<b|m><m|a><a|b>`` named by its two basis labels."""
    return complex(dist.table[dist.basis_m.labels.index(m_label), dist.basis_b.labels.index(b_label)])


def product_trace(ops: Sequence[Operator]) -> complex:
    """Trace of the ordered product ``ops[0] ops[1] ...``: a second route to a table entry.

    The list order is semantically significant (only cyclic rotations leave
    the value unchanged).
    """
    if not ops:
        raise ValueError("product_trace needs at least one operator")
    same_dim(*[op.dim for op in ops])
    # an entry that overflows to inf or nan reaches the trace as inf or nan, or is never read by it
    with np.errstate(over="ignore", invalid="ignore"):
        prod = reduce(lambda acc, op: acc @ op.mat, ops[1:], ops[0].mat)
        return _finite(complex(np.trace(prod)), "product trace")


def pointer_joint_density(
    a: StateVector,
    basis_m: OrthonormalBasis,
    basis_b: OrthonormalBasis,
    cfg: PointerConfig,
    x: float | np.ndarray,
    b_index: int,
) -> float | np.ndarray:
    """Joint density of reading ``x`` and post-selecting outcome ``b_index``: the definition the
    sampler and the quadrature are checked against.

    ``p(x, b) = |sum_m <b|m><m|a> A(x - g k_m)|^2`` with ``A`` the amplitude
    of a mean-zero Gaussian of standard deviation ``width``. Non-negative by
    construction; integrates over x to the outcome probability of b. The
    coefficients ``<b|m><m|a>`` are computed here, not by the package.

    The exponent is squared as one ratio, ``((x - g k_m) / (2 width))**2``. It
    overflows only where its true value is past the float range, so the
    density there is exactly 0, the limit ``exp(-inf)``, with no warning.
    """
    c = (basis_m.matrix @ basis_b.matrix[b_index].conj()) * (basis_m.matrix.conj() @ a.amp)
    centers = cfg.coupling * np.asarray(cfg.eigenvalue)
    prefactor = (2.0 * np.pi * cfg.width**2) ** -0.25
    with np.errstate(over="ignore"):
        ratio = (np.asarray(x, dtype=float)[..., None] - centers) / (2.0 * cfg.width)
        amps = prefactor * np.exp(-(ratio**2))
    density = np.abs(amps @ c) ** 2
    return float(density) if np.isscalar(x) or np.ndim(x) == 0 else density


def chsh_cell_value(m: tuple[int, int], b: tuple[int, int]) -> int:
    """Correlation sum K attributed to one (m, b) cell: the per-cell oracle of ``_CHSH_CELLS``.

    X1 X2 comes from m, Y1 Y2 from b, and the cross terms X1 Y2 and Y1 X2
    from the pairing of the two; the result is always +2 or -2.
    """
    m1, m2 = m
    b1, b2 = b
    return m1 * m2 + m1 * b2 + b1 * m2 - b1 * b2
