"""Dense complex linear algebra for small quantum systems (dim <= 16).

States, operators, labeled orthonormal bases, tensor products, projectors,
and Pauli and Bloch-sphere constructors. Everything is an immutable value
after construction and every function is pure, so the whole module is safe
for concurrent use. An ``Operator`` is a validated value, not an algebra: the
constructors here build it, and a caller that combines operators computes one
numpy expression on their read-only ``.mat`` and wraps the result once.

A value that no input changes is a read-only module constant, built once at
import and shared, the rule ``scenarios`` follows too: here the Pauli
matrices and ``_IDENTITY``, whose entry n is the complex n x n identity for
n = 0..``MAX_DIM``; the Gram test subtracts it, ``complete_basis`` takes its
candidates from its rows and the scenarios read ``_IDENTITY[4]``. Three
arrays stay outside the rule, each for a reason:
``OrthonormalBasis.standard`` calls ``np.eye(dim)`` because ``dim`` is caller
input, and indexing the table would raise ``IndexError`` for 17, or return a
16 x 16 basis for -1, where a ``ValueError`` is due; ``PointerStatistics``'
one-hot cluster matrix is real and sized by its input; and
``weaksim._gauss_legendre`` is built on first use, because importing
``numpy.polynomial`` costs milliseconds that only a quadrature should pay.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

TOL = 1e-10
MAX_DIM = 16

# modulus below which an amplitude cannot anchor the canonical global phase
_PHASE_ANCHOR = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


def same_dim(*dims: int) -> int:
    if dims.count(dims[0]) != len(dims):
        raise DimensionMismatchError(f"dimension mismatch: {dims}")
    return dims[0]


def check_index(name: str, index: int, dim: int) -> int:
    """``index`` if it is an integer in ``0..dim-1``; a negative index is rejected, not wrapped."""
    # bool is an int subclass, but True as an index is a caller's mistake, and a float is never an index
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {index!r}")
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

    Construction validates in one pass over the amplitudes: the squared norm
    is one real BLAS dot of the amplitudes' float view with itself. An
    overflow reads as inf and a NaN passes through, both without a numpy
    warning, so a NaN, infinite or overflowing amplitude fails the unit-norm
    test. Only then does the finiteness scan run, to choose the message, and
    the sum ``sum |amp|^2`` it reports.
    """

    amp: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amp, dtype=complex).reshape(-1)
        if not 1 <= arr.size <= MAX_DIM:
            raise ValueError(f"state dimension must be in 1..{MAX_DIM}, got {arr.size}")
        flat = arr.view(float)  # (re, im) pairs: the dot is |amp|^2 summed
        if not abs(float(np.vdot(flat, flat)) - 1.0) <= TOL:
            if not np.isfinite(arr).all():
                raise ValueError("state amplitudes must be finite")
            with np.errstate(over="ignore"):  # finite amplitudes can still square past the float range
                norm_sq = float((abs(arr) ** 2).sum())
            raise ValueError(f"state vector is not normalized: sum |amp|^2 = {norm_sq}")
        arr.setflags(write=False)
        object.__setattr__(self, "amp", arr)

    @property
    def dim(self) -> int:
        return int(self.amp.size)

    @classmethod
    def normalize(cls, amplitudes: Iterable[complex]) -> "StateVector":
        """Rescale to unit norm and apply the canonical global phase.

        The norm is ``np.linalg.norm``'s formula, ``sqrt(re.re + im.im)``, bit for bit. Its two
        dots read inf on overflow and pass a NaN through, and their sum is taken in Python floats,
        which overflow to inf too, all without a numpy warning; so one range test on the norm
        accepts, and only a rejected input is scanned, to choose the message.
        """
        arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = math.sqrt(float(np.vdot(arr.real, arr.real)) + float(np.vdot(arr.imag, arr.imag)))
        if not _PHASE_ANCHOR < norm < math.inf:
            if not np.isfinite(arr).all():
                raise ValueError("state amplitudes must be finite")
            if norm > _PHASE_ANCHOR:
                raise ValueError("cannot normalize: the norm of the amplitudes overflows")
            raise ValueError("cannot normalize a zero vector")
        arr = arr / norm
        # a unit vector has an amplitude of modulus >= 1/sqrt(size) >= 1/4, far above the anchor
        # threshold, so some amplitude always qualifies; Python's complex abs is libm's hypot, as numpy's is
        anchor = arr[next(k for k, z in enumerate(arr.tolist()) if abs(z) > _PHASE_ANCHOR)]
        return cls(arr * (anchor.conjugate() / abs(anchor)))


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix with entries ``mat[row, col] = <row|A|col>``, finite and read-only.

    It has no arithmetic: sums and products are taken on ``mat`` and wrapped in a new ``Operator``,
    whose constructor rejects an entry that overflowed to inf or nan.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
        if not 1 <= arr.shape[0] <= MAX_DIM:
            raise ValueError(f"operator dimension must be in 1..{MAX_DIM}, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def dim(self) -> int:
        return int(self.mat.shape[0])

    def apply(self, state: StateVector) -> np.ndarray:
        """Raw amplitudes of ``A|v>`` (not necessarily normalized)."""
        same_dim(self.dim, state.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            image = self.mat @ state.amp
        if not np.isfinite(image).all():
            raise ValueError("operator image of the state overflows")
        return image

    def is_unitary(self) -> bool:
        # finite entries can still overflow the product to inf or nan, which fail the test unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            return _gram_defect(self.mat.conj().T @ self.mat) <= TOL


def _finite(value: complex, what: str) -> complex:
    """``value``, which arithmetic on finite operands gave; a ValueError if it overflowed to inf or nan."""
    if not cmath.isfinite(value):
        raise ValueError(f"{what} overflows")
    return value


# entry n is the read-only complex n x n identity, for n = 0..MAX_DIM
_IDENTITY = tuple(np.eye(n, dtype=complex) for n in range(MAX_DIM + 1))
for _eye in _IDENTITY:
    _eye.setflags(write=False)


def _gram_defect(gram: np.ndarray) -> float:
    """``max |G_ij - delta_ij|`` of a Gram matrix; nan fails ``<= TOL`` like any defect above it."""
    return float(abs(gram - _IDENTITY[len(gram)]).max())


def _spectral_sum(basis: OrthonormalBasis, values: np.ndarray) -> Operator:
    """The operator ``sum_m values[m] |m><m|`` over the basis vectors, as ``(B.T * v) @ B.conj()``."""
    return Operator((basis.matrix.T * values) @ basis.matrix.conj())


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
            if v.amp.size != dim:
                same_dim(dim, v.dim)
        mat = np.array([v.amp for v in vectors])
        defect = _gram_defect(mat.conj() @ mat.T)
        if defect > TOL:
            raise ValueError(f"vectors are not orthonormal (max |<v_i|v_j> - delta_ij| = {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    @classmethod
    def standard(cls, dim: int, labels: Sequence[str]) -> "OrthonormalBasis":
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
    return _finite(complex(np.vdot(v.amp, op.apply(v))), "expectation value")


def tensor_state(u: StateVector, v: StateVector) -> StateVector:
    """Product state with the left factor as the slow index: ``amp[i*v.dim + j] = u_i v_j``.

    Each amplitude is the one product ``u_i v_j``, so the result equals ``np.kron`` bit for bit.
    """
    return StateVector(np.multiply.outer(u.amp, v.amp).reshape(-1))


def tensor_op(a: Operator, b: Operator) -> Operator:
    """Kronecker product with the same index convention as ``tensor_state``, bit for bit ``np.kron``.

    One broadcast multiply: entry ``[i*b.dim + k, j*b.dim + l]`` is ``a_ij b_kl``.
    """
    n = a.dim * b.dim
    # finite factors can still multiply past the float range: numpy stays silent and the constructor
    # rejects the inf entry with "operator entries must be finite"
    with np.errstate(over="ignore", invalid="ignore"):
        return Operator((a.mat[:, None, :, None] * b.mat[None, :, None, :]).reshape(n, n))


# built once: an Operator is immutable, so every caller can share these
_PAULI = {
    "X": Operator([[0, 1], [1, 0]]),
    "Y": Operator([[0, -1j], [1j, 0]]),
    "Z": Operator([[1, 0], [0, -1]]),
}


def pauli(axis: str) -> Operator:
    """Standard 2x2 Pauli matrix for axis ``"X"``, ``"Y"`` or ``"Z"``: one shared, immutable value per axis."""
    try:
        return _PAULI[axis.upper()]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected X, Y or Z") from None


def bloch_state(theta: float, phi: float = 0.0) -> StateVector:
    """Spin-up eigenstate along the Bloch direction (theta, phi).

    Returns ``(cos(theta/2), e^{i phi} sin(theta/2))``, the +1 eigenstate of
    ``cos(theta) Z + sin(theta) cos(phi) X + sin(theta) sin(phi) Y``.
    """
    return StateVector([math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0)])


def complete_basis(seed_vectors: Sequence[StateVector], labels: Sequence[str]) -> OrthonormalBasis:
    """Extend orthonormal seed vectors to a full labeled basis.

    Deterministic Gram-Schmidt over the standard basis vectors in index
    order; the seed vectors themselves keep their positions at the front, and
    only the completion vectors are new. At most ``dim`` seeds are accepted.

    The standard directions always suffice. While k < d orthonormal vectors
    are kept, the residuals of the d standard directions have squared norms
    that sum to d - k >= 1; a direction already taken leaves none and one
    already skipped at most 1e-12, so some candidate still to come has a
    residual of norm at least 1/4, far above the 1e-6 cut. Seeds that are not
    orthonormal void the argument, and ``OrthonormalBasis`` rejects them.
    """
    if not seed_vectors:
        raise ValueError("at least one seed vector required")
    dim = same_dim(*[v.dim for v in seed_vectors])
    if len(seed_vectors) > dim:
        raise ValueError(f"need at most {dim} seed vectors, got {len(seed_vectors)}")
    if len(labels) != dim:
        raise ValueError(f"need {dim} labels, got {len(labels)}")
    vecs = [v.amp for v in seed_vectors]
    for cand in _IDENTITY[dim]:
        if len(vecs) == dim:
            break
        for _ in range(2):  # re-orthogonalize once for numerical hygiene
            for w in vecs:
                cand = cand - w * np.vdot(w, cand)
        norm = float(np.linalg.norm(cand))
        if norm > 1e-6:
            vecs.append(cand / norm)
    return OrthonormalBasis(tuple(labels), (*seed_vectors, *(StateVector(v) for v in vecs[len(seed_vectors) :])))


def post_selection_basis(a: StateVector, b: StateVector, labels: Sequence[str]) -> OrthonormalBasis:
    """Final basis adapted to a preparation-plus-post-selection pair.

    The first vector is ``b`` itself, the second carries the normalized
    remainder ``rest = a - b<b|a>`` where ``|rest| > 1e-6``, and any further
    vectors complete the basis. Where ``|rest| > 1e-6`` they are orthogonal
    to ``a``'s span with ``b``, and their joint weight is rounding alone
    (about ``u**2``). Where ``|rest| <= 1e-6`` the remainder is dropped as
    parallel, so the completion vectors share its weight, ``|rest|**2`` of
    ``a``'s, between them: at most 1e-12, below ``TOL``. Where projecting
    ``a`` off ``b`` cancels more than half the norm (``|rest| < 1/sqrt 2``),
    the remainder is projected off ``b`` a second time, so its rounding
    leaves no ``b`` component that normalizing would blow up (Daniel, Gragg,
    Kaufman & Stewart, Math. Comp. 30, 772 (1976)).
    """
    same_dim(a.dim, b.dim)
    seeds = [b]
    rest = a.amp - b.amp * complex(np.vdot(b.amp, a.amp))
    if float(np.linalg.norm(rest)) < math.sqrt(0.5):
        rest = rest - b.amp * complex(np.vdot(b.amp, rest))
    if float(np.linalg.norm(rest)) > 1e-6:
        seeds.append(StateVector.normalize(rest))
    return complete_basis(seeds, labels)
