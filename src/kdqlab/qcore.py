"""Dense complex linear algebra for small quantum systems (dim <= 16).

States, operators, labeled orthonormal bases, tensor products, projectors,
Pauli and Bloch-sphere constructors, and ordered product traces. Everything
is an immutable value after construction and every function is pure, so the
whole module is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

TOL = 1e-10
MAX_DIM = 16

# modulus below which an amplitude cannot anchor the canonical global phase
_PHASE_ANCHOR = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


def same_dim(*dims: int) -> int:
    if any(d != dims[0] for d in dims):
        raise DimensionMismatchError(f"dimension mismatch: {dims}")
    return dims[0]


def check_index(name: str, index: int, dim: int) -> int:
    """``index`` if it lies in ``0..dim-1``; a negative index is rejected, not wrapped."""
    if not 0 <= index < dim:
        raise ValueError(f"{name} {index} out of range for dimension {dim}")
    return index


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector.

    The plain constructor accepts an already normalized vector (intermediate
    math such as applying a unitary keeps the norm). ``StateVector.normalize``
    rescales arbitrary amplitudes and fixes the global phase so that the first
    amplitude with modulus above 1e-12 is real and positive; that convention
    only stabilizes printed output and is never relied on by any algorithm.
    """

    amp: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amp, dtype=complex).reshape(-1)
        if not 1 <= arr.size <= MAX_DIM:
            raise ValueError(f"state dimension must be in 1..{MAX_DIM}, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("state amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > TOL:
            raise ValueError(f"state vector is not normalized: sum |amp|^2 = {norm_sq}")
        arr.setflags(write=False)
        object.__setattr__(self, "amp", arr)

    @property
    def dim(self) -> int:
        return int(self.amp.size)

    @classmethod
    def normalize(cls, amplitudes: Iterable[complex]) -> "StateVector":
        """Rescale to unit norm and apply the canonical global phase."""
        arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(arr)):
            raise ValueError("state amplitudes must be finite")
        with np.errstate(over="ignore"):  # finite amplitudes can still square past the float range
            norm = float(np.linalg.norm(arr))
        if not np.isfinite(norm):
            raise ValueError("cannot normalize: the norm of the amplitudes overflows")
        if norm <= _PHASE_ANCHOR:
            raise ValueError("cannot normalize a zero vector")
        arr = arr / norm
        # a unit vector has an amplitude of modulus >= 1/sqrt(size) >= 1/4, far above the anchor
        # threshold, so ``significant`` is never empty
        significant = np.flatnonzero(np.abs(arr) > _PHASE_ANCHOR)
        anchor = arr[significant[0]]
        return cls(arr * (anchor.conjugate() / abs(anchor)))


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix with entries ``mat[row, col] = <row|A|col>``."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
        if not 1 <= arr.shape[0] <= MAX_DIM:
            raise ValueError(f"operator dimension must be in 1..{MAX_DIM}, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return int(self.mat.shape[0])

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim, dtype=complex))

    def __add__(self, other: "Operator") -> "Operator":
        same_dim(self.dim, other.dim)
        return Operator(self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        same_dim(self.dim, other.dim)
        return Operator(self.mat - other.mat)

    def __neg__(self) -> "Operator":
        return Operator(-self.mat)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.mat * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        same_dim(self.dim, other.dim)
        return Operator(self.mat @ other.mat)

    def dagger(self) -> "Operator":
        return Operator(self.mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def apply(self, state: StateVector) -> np.ndarray:
        """Raw amplitudes of ``A|v>`` (not necessarily normalized)."""
        same_dim(self.dim, state.dim)
        return self.mat @ state.amp

    def is_unitary(self) -> bool:
        gram = self.mat.conj().T @ self.mat
        return bool(np.max(np.abs(gram - np.eye(self.dim))) <= TOL)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Complete labeled orthonormal set spanning the whole space.

    ``matrix`` is the read-only stack of the vectors: row i holds the
    amplitudes of basis vector i.
    """

    labels: tuple[str, ...]
    vectors: tuple[StateVector, ...]
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels = tuple(str(lab) for lab in self.labels)
        vectors = tuple(self.vectors)
        if not vectors:
            raise ValueError("basis needs at least one vector")
        dim = vectors[0].dim
        if len(vectors) != dim:
            raise ValueError(f"basis of a {dim}-dimensional space needs {dim} vectors, got {len(vectors)}")
        if len(labels) != len(vectors):
            raise ValueError("one label per basis vector required")
        if len(set(labels)) != len(labels):
            raise ValueError(f"basis labels must be unique, got {labels}")
        for v in vectors:
            same_dim(dim, v.dim)
        mat = np.stack([v.amp for v in vectors])
        gram = mat.conj() @ mat.T
        defect = float(np.max(np.abs(gram - np.eye(dim))))
        if defect > TOL:
            raise ValueError(f"vectors are not orthonormal (max |<v_i|v_j> - delta_ij| = {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis vector labeled {label!r}; have {self.labels}") from None

    @classmethod
    def standard(cls, dim: int, labels: Sequence[str] | None = None) -> "OrthonormalBasis":
        if labels is None:
            labels = tuple(str(k) for k in range(dim))
        eye = np.eye(dim, dtype=complex)
        return cls(tuple(labels), tuple(StateVector(row) for row in eye))


def inner(u: StateVector, v: StateVector) -> complex:
    """Hermitian inner product ``<u|v>`` (conjugate-linear in ``u``)."""
    same_dim(u.dim, v.dim)
    return complex(np.vdot(u.amp, v.amp))


def projector(v: StateVector) -> Operator:
    """Rank-one projector ``|v><v|``."""
    return Operator(np.outer(v.amp, v.amp.conj()))


def expectation(op: Operator, v: StateVector) -> complex:
    """``<v|A|v>``."""
    return complex(np.vdot(v.amp, op.apply(v)))


def tensor_state(u: StateVector, v: StateVector) -> StateVector:
    """Product state with the left factor as the slow index: ``amp[i*v.dim + j] = u_i v_j``."""
    return StateVector(np.kron(u.amp, v.amp))


def tensor_op(a: Operator, b: Operator) -> Operator:
    """Kronecker product with the same index convention as ``tensor_state``."""
    return Operator(np.kron(a.mat, b.mat))


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> Operator:
    """Standard 2x2 Pauli matrix for axis ``"X"``, ``"Y"`` or ``"Z"``."""
    try:
        return Operator(_PAULI[axis.upper()])
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected X, Y or Z") from None


def bloch_state(theta: float, phi: float = 0.0) -> StateVector:
    """Spin-up eigenstate along the Bloch direction (theta, phi).

    Returns ``(cos(theta/2), e^{i phi} sin(theta/2))``, the +1 eigenstate of
    ``cos(theta) Z + sin(theta) cos(phi) X + sin(theta) sin(phi) Y``.
    """
    return StateVector(
        np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex)
    )


def product_trace(ops: Sequence[Operator]) -> complex:
    """Trace of the ordered product ``ops[0] ops[1] ...``.

    The list order is semantically significant (only cyclic rotations leave
    the value unchanged).
    """
    if not ops:
        raise ValueError("product_trace needs at least one operator")
    same_dim(*[op.dim for op in ops])
    prod = reduce(lambda acc, op: acc @ op.mat, ops[1:], ops[0].mat)
    return complex(np.trace(prod))


def complete_basis(seed_vectors: Sequence[StateVector], labels: Sequence[str]) -> OrthonormalBasis:
    """Extend orthonormal seed vectors to a full labeled basis.

    Deterministic Gram-Schmidt over the standard basis vectors in index
    order; seeds keep their positions at the front.
    """
    if not seed_vectors:
        raise ValueError("at least one seed vector required")
    dim = same_dim(*[v.dim for v in seed_vectors])
    if len(labels) != dim:
        raise ValueError(f"need {dim} labels, got {len(labels)}")
    vecs = [np.array(v.amp, dtype=complex) for v in seed_vectors]
    for k in range(dim):
        if len(vecs) == dim:
            break
        cand = np.zeros(dim, dtype=complex)
        cand[k] = 1.0
        for _ in range(2):  # re-orthogonalize once for numerical hygiene
            for w in vecs:
                cand = cand - w * np.vdot(w, cand)
        norm = float(np.linalg.norm(cand))
        if norm > 1e-6:
            vecs.append(cand / norm)
    if len(vecs) != dim:
        raise ValueError("could not complete the basis from standard directions")
    return OrthonormalBasis(tuple(labels), tuple(StateVector(v) for v in vecs))


def post_selection_basis(a: StateVector, b: StateVector, labels: Sequence[str]) -> OrthonormalBasis:
    """Final basis adapted to a preparation-plus-post-selection pair.

    The first vector is ``b`` itself, the second (when the two states are not
    parallel) carries the remainder of the preparation's support, and any
    further vectors are orthogonal to both, so they receive exactly zero
    joint weight.
    """
    same_dim(a.dim, b.dim)
    seeds = [b]
    rest = a.amp - b.amp * complex(np.vdot(b.amp, a.amp))
    if float(np.linalg.norm(rest)) > 1e-6:
        seeds.append(StateVector.normalize(rest))
    return complete_basis(seeds, labels)
