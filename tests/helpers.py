"""Shared randomized constructors for the test suite."""

from __future__ import annotations

import re

import numpy as np

from kdqlab import OrthonormalBasis, StateVector

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
