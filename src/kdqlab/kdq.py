"""Complex joint quasi-probability engine.

Computes the complex joint table ``P(m,b|a) = <b|m><m|a><a|b>`` over two
bases given a pure preparation, its Born-rule marginals, weak values, the
unitary synthesized from a per-outcome action phase spectrum, the overlap
identity linking the two, half-periodicity detection, negativity summaries,
and direct state reconstruction from the table. The action phase that best
maps ``a`` to b along m is ``arg table[m, b]``. Pure functions over immutable
values throughout.

Declared phases become numbers in one place: ``ActionSpectrum`` keeps them
as given and computes their factors ``e^{-i phase}`` once, which the unitary,
the overlap identity, the half-periodicity test (through their squares) and
the scenario reports all read.
``Transformation`` bundles one transformation of ``a``: the spectrum, its
unitary, its image ``U a`` and both overlaps onto one column b, set once at
construction; ``column(b)`` reads the overlaps of any other column from the
same spectrum and image. The built-in scenario reports and ``kdqlab kd`` read
their overlaps from it, so the rule for when the table's overlap is undefined
lives only in ``overlap_from_kd``. Every index into the table goes through
``qcore.check_index``: a negative index is rejected, not wrapped, and so is a
``bool`` or a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    TOL,
    Operator,
    OrthonormalBasis,
    StateVector,
    _finite,
    _spectral_sum,
    check_index,
    same_dim,
)


class PostSelectionError(ValueError):
    """The outcome b that a quantity is conditioned on has vanishing probability."""


class ReconstructionError(ValueError):
    """The two bases overlap too weakly for direct reconstruction."""


@dataclass(frozen=True)
class ActionSpectrum:
    """Per-outcome action phases attached to a generator eigenbasis.

    ``phase[m]`` is dimensionless (action over hbar), stored as the float it
    was given. ``factor`` is the read-only array of the phase factors
    ``e^{-i phase(m)}``, computed once from those floats, so it is exact up
    to the rounding of ``np.exp`` for any finite phase: every use of the
    spectrum's numbers reads it.
    """

    basis: OrthonormalBasis
    phase: tuple[float, ...]
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        phase = tuple(map(float, self.phase))
        if len(phase) != self.basis.dim:
            raise ValueError(f"need {self.basis.dim} phases, got {len(phase)}")
        if not all(map(math.isfinite, phase)):
            raise ValueError("action phases must be finite")
        factor = np.exp(-1j * np.asarray(phase))
        factor.setflags(write=False)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "factor", factor)


@dataclass(frozen=True, eq=False)
class KDDistribution:
    """Complex joint table ``table[m, b] = <b|m><m|a><a|b>``.

    Construction enforces the defining identities, one check each, in this
    order: the table is d x d; its complex entries are finite and sum to 1
    within ``TOL``; row sums reproduce ``|<m|a>|^2`` and column sums
    ``|<b|a>|^2`` within ``TOL``, which also bounds each sum's imaginary part
    by ``TOL`` and its real part below by ``-TOL``; and no real sum exceeds
    1 + ``TOL``. The row sums and the column sums each add up to 1 with no
    check of their own: either total is ``Re sum T`` summed in another order,
    so it differs from the checked total only by rounding, at most
    ``2 gamma_{d^2} sum |T|`` with ``gamma_n = 1.01 n u`` (Higham 4.2).
    ``prob_m`` and ``prob_b`` are the read-only row and column sums, clamped
    to [0, 1] after those checks pass.

    The checks read the table in one pass of sums: a NaN or infinite entry
    makes the total inf or nan, which fails the sum test, and only then does
    the finiteness scan run, to choose the message. The Born weights come
    from the bases and the state, never from the kernel's factors, so the
    checks still catch a wrong kernel. Each check reduces its defect to one
    number, and only a failed check computes the figures of its message.
    """

    state_a: StateVector
    basis_m: OrthonormalBasis
    basis_b: OrthonormalBasis
    table: np.ndarray
    prob_m: np.ndarray = field(init=False, repr=False)
    prob_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dim = same_dim(self.state_a.dim, self.basis_m.dim, self.basis_b.dim)
        table = np.array(self.table, dtype=complex)
        if table.shape != (dim, dim):
            raise ValueError(f"table must have shape {(dim, dim)}, got {table.shape}")

        # entries may be non-finite, or finite and sum past the float range to inf or nan; the
        # checks below reject both (written so that nan fails them) without a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            total = complex(table.sum())
            # row 0: row sums against |<m|a>|^2; row 1: column sums against |<b|a>|^2
            sums = np.array((table.sum(axis=1), table.sum(axis=0)))
        # the real part first: past the float range, abs of a complex raises OverflowError
        if not (abs(total.real - 1.0) <= TOL and abs(total - 1.0) <= TOL):
            if not np.isfinite(table).all():
                raise ValueError("table entries must be finite")
            raise ValueError(f"table entries must sum to 1, got {total}")

        born = abs(np.array((self.basis_m.matrix, self.basis_b.matrix)).conj() @ self.state_a.amp) ** 2
        if not abs(sums - born).max() <= TOL:
            row_defect, col_defect = abs(sums - born).max(axis=1).tolist()
            raise ValueError(
                f"marginal identities violated (row defect {row_defect:.3e}, column defect {col_defect:.3e})"
            )
        # |Im s| <= |s - born| and born >= 0, so the defect check bounds Im s and -Re s by TOL
        real = sums.real
        if real.max() > 1.0 + TOL:
            raise ValueError(f"marginal outside [0, 1]: {real}")
        probs = real.clip(0.0, 1.0)
        table.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "prob_m", probs[0])
        object.__setattr__(self, "prob_b", probs[1])

    @property
    def dim(self) -> int:
        return self.state_a.dim


@dataclass(frozen=True)
class NegativityReport:
    """Summary of the negative and complex structure of one joint table."""

    total_negativity: float
    min_real: float
    argmin: tuple[str, str]
    max_abs_phase: float


def kd_joint(a: StateVector, basis_m: OrthonormalBasis, basis_b: OrthonormalBasis) -> KDDistribution:
    """Complex joint quasi-probability of outcome pairs (m, b) given ``a``.

    ``table[m, b] = <b|m><m|a><a|b>``; the operator ordering matches a weak
    measurement of m followed by a projective measurement of b.
    """
    same_dim(a.dim, basis_m.dim, basis_b.dim)
    m_mat = basis_m.matrix
    b_mat = basis_b.matrix
    bm = b_mat.conj() @ m_mat.T  # bm[b, m] = <b|m>
    ma = m_mat.conj() @ a.amp  # <m|a>
    ab = a.amp.conj() @ b_mat.T  # <a|b>
    table = bm.T * ma[:, None] * ab[None, :]
    return KDDistribution(a, basis_m, basis_b, table)


def marginals(dist: KDDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Born probabilities (prob_m, prob_b): the table's row and column sums.

    Both are computed, checked and clamped to [0, 1] once, when the
    ``KDDistribution`` is constructed; this returns the stored read-only arrays.
    """
    return dist.prob_m, dist.prob_b


def weak_value(a: StateVector, b: StateVector, op: Operator) -> complex:
    """Weak value ``<b|A|a> / <b|a>`` between preparation and post-selection."""
    same_dim(a.dim, b.dim, op.dim)
    denom = complex(np.vdot(b.amp, a.amp))
    if abs(denom) <= TOL:
        raise PostSelectionError("post-selection is orthogonal to the preparation (|<b|a>| ~ 0)")
    return _finite(complex(np.vdot(b.amp, op.apply(a))) / denom, "weak value")


def unitary_from_actions(spectrum: ActionSpectrum) -> Operator:
    """Unitary generated by the action spectrum: ``U = sum_m e^{-i phase(m)} |m><m|``."""
    return _spectral_sum(spectrum.basis, spectrum.factor)


def _image(a: StateVector, unitary: Operator) -> np.ndarray:
    """``U|a>``, once ``U`` has passed the unitarity check."""
    if not unitary.is_unitary():
        raise ValueError("operator is not unitary within tolerance")
    return unitary.mat @ a.amp  # a unitary cannot take a unit vector past the float range: no guard needed


def overlap_direct(a: StateVector, b: StateVector, unitary: Operator) -> float:
    """Transition probability ``|<b|U|a>|^2``."""
    same_dim(a.dim, b.dim, unitary.dim)
    return float(abs(np.vdot(b.amp, _image(a, unitary))) ** 2)


def overlap_from_kd(dist: KDDistribution, spectrum: ActionSpectrum, b_index: int) -> float:
    """Transition probability after the spectrum's unitary, from the joint table alone.

    ``|sum_m table[m, b] e^{-i phase(m)}|^2 / P(b|a)``; agrees with
    ``overlap_direct`` for the unitary synthesized from the same spectrum.
    Undefined when ``P(b|a)`` vanishes.
    """
    if spectrum.basis is not dist.basis_m and not np.allclose(
        spectrum.basis.matrix, dist.basis_m.matrix, rtol=0.0, atol=TOL
    ):
        raise ValueError("action spectrum basis differs from the joint table's m basis")
    p_b = float(dist.prob_b[check_index("b_index", b_index, dist.dim)])
    if p_b <= TOL:
        raise PostSelectionError(f"P(b|a) ~ 0 for b index {b_index}; the overlap identity is undefined")
    amplitude = complex(dist.table[:, b_index] @ spectrum.factor)
    return float(abs(amplitude) ** 2 / p_b)


class Transformation:
    """Action phases on the table's m basis, applied to ``a`` and read at column b.

    Every attribute is set once, in ``__init__``, from the table: the
    ``spectrum``, its ``unitary`` (checked unitary once) and its ``image``,
    the read-only array ``U a``. Then for its column b: the direct overlap
    ``direct = |<b|U|a>|^2`` (as ``overlap_direct`` computes it), the same
    overlap from the table, ``from_kd`` (None where ``overlap_from_kd`` finds
    it undefined), and ``distance``, the norm of b minus its projection onto
    ``U a`` (sqrt(1 - direct), free of that cancellation). ``column(b)``
    returns ``(direct, from_kd)`` for any column and changes nothing.
    """

    def __init__(self, dist: KDDistribution, phases: tuple[float, ...], b: int) -> None:
        self.spectrum = ActionSpectrum(dist.basis_m, phases)
        self.unitary = unitary_from_actions(self.spectrum)
        self._dist, self.image = dist, _image(dist.state_a, self.unitary)
        self.image.setflags(write=False)
        self.direct, self.from_kd = self.column(b)  # checks b
        self.b, target = b, dist.basis_b.matrix[b]
        rest = target - np.vdot(self.image, target) * self.image  # its norm by np.linalg.norm's formula
        self.distance = math.sqrt(float(rest.real @ rest.real) + float(rest.imag @ rest.imag))

    def column(self, b: int) -> tuple[float, float | None]:
        """``(direct, from_kd)`` at column b, read from the shared spectrum and image."""
        dist = self._dist
        target = dist.basis_b.matrix[check_index("b", b, dist.dim)]
        try:
            from_kd: float | None = overlap_from_kd(dist, self.spectrum, b)
        except PostSelectionError:
            from_kd = None
        return float(abs(np.vdot(target, self.image)) ** 2), from_kd


def is_half_periodic(spectrum: ActionSpectrum) -> bool:
    """True when applying the spectrum's unitary twice is the identity up to phase.

    Equivalent to all pairwise phase differences lying in {0, pi} mod 2 pi: the squared
    factors ``e^{-2i phase(m)}`` all agree.
    """
    doubled = spectrum.factor * spectrum.factor
    return bool(abs(doubled - doubled[0]).max() <= TOL)


def negativity(dist: KDDistribution) -> NegativityReport:
    """Total negative weight, most negative entry, and largest action phase."""
    table = dist.table
    real = table.real
    total = float(np.maximum(0.0, -real).sum())
    mi, bi = divmod(int(real.argmin()), real.shape[1])
    significant = table[abs(table) > TOL]
    # arctan2(imag, real) is np.angle without its wrapper overhead
    max_phase = float(abs(np.arctan2(significant.imag, significant.real)).max()) if significant.size else 0.0
    return NegativityReport(
        total_negativity=total,
        min_real=float(real[mi, bi]),
        argmin=(dist.basis_m.labels[mi], dist.basis_b.labels[bi]),
        max_abs_phase=max_phase,
    )


def reconstruct_state(dist: KDDistribution) -> Operator:
    """Density operator recovered from the joint table over two overlapping bases.

    ``rho = sum_{m,b} table[m, b] / <b|m> |m><b|``; for the pure-state tables
    produced by ``kd_joint`` this returns ``|a><a|``. Requires every cross
    overlap ``<b|m>`` to be bounded away from zero.
    """
    m_mat = dist.basis_m.matrix
    b_mat = dist.basis_b.matrix
    bm = b_mat.conj() @ m_mat.T  # bm[b, m] = <b|m>
    if abs(bm).min() <= TOL:
        b_i, m_i = np.argwhere(np.abs(bm) <= TOL)[0]
        raise ReconstructionError(
            f"<b|m> ~ 0 for (m={dist.basis_m.labels[m_i]!r}, b={dist.basis_b.labels[b_i]!r}); "
            "reconstruction is ill-posed"
        )
    coeff = dist.table / bm.T
    return Operator(m_mat.T @ coeff @ b_mat.conj())
