"""Complex joint quasi-probability engine.

Computes the complex joint table ``P(m,b|a) = <b|m><m|a><a|b>`` over two
bases given a pure preparation, its Born-rule marginals, weak values, the
unitary synthesized from a per-outcome action phase spectrum, the overlap
identity linking the two, per-entry optimal action phases, half-periodicity
detection, negativity summaries, and direct state reconstruction from the
table. Pure functions over immutable values throughout.

``Transformation`` bundles one transformation of ``a``: the spectrum, its
unitary and both overlaps onto one column b, computed once at construction
and never changed after. The built-in scenario reports and ``kdqlab kd`` read
their overlaps from it, so the rule for when the table's overlap is undefined
lives only in ``overlap_from_kd``. Every index into the table goes through
``qcore.check_index``: a negative index is rejected, not wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    TOL,
    Operator,
    OrthonormalBasis,
    StateVector,
    check_index,
    same_dim,
)


class PostSelectionError(ValueError):
    """The outcome b that a quantity is conditioned on has vanishing probability."""


class UndefinedPhaseError(ValueError):
    """Phase requested for an entry with vanishing modulus."""


class ReconstructionError(ValueError):
    """The two bases overlap too weakly for direct reconstruction."""


def reduce_phase(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    reduced = -((-float(phi) + np.pi) % (2.0 * np.pi) - np.pi)
    # the fold above maps the branch point to -pi; push it back to +pi
    if reduced <= -np.pi:
        reduced = np.pi
    return float(reduced)


@dataclass(frozen=True)
class ActionSpectrum:
    """Per-outcome action phases attached to a generator eigenbasis.

    ``phase[m]`` is dimensionless (action over hbar), stored reduced to
    (-pi, pi].
    """

    basis: OrthonormalBasis
    phase: tuple[float, ...]

    def __post_init__(self) -> None:
        phases = tuple(float(p) for p in self.phase)
        if len(phases) != self.basis.dim:
            raise ValueError(f"need {self.basis.dim} phases, got {len(phases)}")
        if not all(np.isfinite(phases)):
            raise ValueError("action phases must be finite")
        object.__setattr__(self, "phase", tuple(reduce_phase(p) for p in phases))


@dataclass(frozen=True, eq=False)
class KDDistribution:
    """Complex joint table ``table[m, b] = <b|m><m|a><a|b>``.

    Construction enforces the defining identities: the complex entries sum
    to 1, row sums reproduce ``|<m|a>|^2`` and column sums ``|<b|a>|^2``
    within tolerance, and each set of sums is real, inside [0, 1] and sums
    to 1. ``prob_m`` and ``prob_b`` are the read-only row and column sums,
    clamped to [0, 1] after those checks pass.
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

        total = complex(table.sum())
        if abs(total - 1.0) > TOL:
            raise ValueError(f"table entries must sum to 1, got {total}")

        # row 0: row sums against |<m|a>|^2; row 1: column sums against |<b|a>|^2
        sums = np.array((table.sum(axis=1), table.sum(axis=0)))
        born = abs(np.array((self.basis_m.matrix, self.basis_b.matrix)).conj() @ self.state_a.amp) ** 2
        row_defect, col_defect = abs(sums - born).max(axis=1).tolist()
        if row_defect > TOL or col_defect > TOL:
            raise ValueError(
                f"marginal identities violated (row defect {row_defect:.3e}, column defect {col_defect:.3e})"
            )
        imag = float(abs(sums.imag).max())
        if imag > TOL:
            raise ValueError(f"marginal has non-vanishing imaginary part {imag:.3e}")
        real = sums.real
        if real.min() < -TOL or real.max() > 1.0 + TOL:
            raise ValueError(f"marginal outside [0, 1]: {real}")
        totals = real.sum(axis=1)
        if abs(totals - 1.0).max() > TOL:
            raise ValueError(f"marginal does not sum to 1: {totals}")
        probs = real.clip(0.0, 1.0)
        table.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "prob_m", probs[0])
        object.__setattr__(self, "prob_b", probs[1])

    @property
    def dim(self) -> int:
        return self.state_a.dim

    def entry(self, m_label: str, b_label: str) -> complex:
        return complex(self.table[self.basis_m.index_of(m_label), self.basis_b.index_of(b_label)])


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
    return complex(np.vdot(b.amp, op.mat @ a.amp)) / denom


def unitary_from_actions(spectrum: ActionSpectrum) -> Operator:
    """Unitary generated by the action spectrum: ``U = sum_m e^{-i phase(m)} |m><m|``."""
    m_mat = spectrum.basis.matrix
    phases = np.exp(-1j * np.asarray(spectrum.phase))
    return Operator((m_mat.T * phases) @ m_mat.conj())


def overlap_direct(a: StateVector, b: StateVector, unitary: Operator) -> float:
    """Transition probability ``|<b|U|a>|^2``."""
    same_dim(a.dim, b.dim, unitary.dim)
    if not unitary.is_unitary():
        raise ValueError("operator is not unitary within tolerance")
    return float(abs(np.vdot(b.amp, unitary.mat @ a.amp)) ** 2)


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
    _, prob_b = marginals(dist)
    p_b = float(prob_b[check_index("b_index", b_index, dist.dim)])
    if p_b <= TOL:
        raise PostSelectionError(f"P(b|a) ~ 0 for b index {b_index}; the overlap identity is undefined")
    amplitude = complex(np.sum(dist.table[:, b_index] * np.exp(-1j * np.asarray(spectrum.phase))))
    return float(abs(amplitude) ** 2 / p_b)


class Transformation:
    """Action phases on the table's m basis, applied to ``a`` and read at column b.

    Built once from the table: the ``spectrum``, its ``unitary``, the direct
    overlap ``direct = |<b|U|a>|^2``, the same overlap from the table,
    ``from_kd`` (None where ``overlap_from_kd`` finds it undefined), and
    ``distance``, the norm of b minus its projection onto ``U a``
    (sqrt(1 - direct), free of that cancellation).
    """

    def __init__(self, dist: KDDistribution, phases: tuple[float, ...], b: int) -> None:
        self.b = check_index("b", b, dist.dim)
        self.spectrum = ActionSpectrum(dist.basis_m, phases)
        self.unitary = unitary_from_actions(self.spectrum)
        self.direct = overlap_direct(dist.state_a, dist.basis_b.vectors[b], self.unitary)
        try:
            self.from_kd: float | None = overlap_from_kd(dist, self.spectrum, b)
        except PostSelectionError:
            self.from_kd = None
        image, target = self.unitary.apply(dist.state_a), dist.basis_b.vectors[b].amp
        self.distance = float(np.linalg.norm(target - np.vdot(image, target) * image))


def optimal_action(dist: KDDistribution, m_index: int, b_index: int) -> float:
    """Action phase (in (-pi, pi]) that best maps ``a`` to outcome b along m.

    This is the argument of the complex table entry; it is undefined when the
    entry's modulus is at noise level.
    """
    m_index, b_index = check_index("m_index", m_index, dist.dim), check_index("b_index", b_index, dist.dim)
    entry = complex(dist.table[m_index, b_index])
    if abs(entry) <= TOL:
        raise UndefinedPhaseError(
            f"entry ({dist.basis_m.labels[m_index]}, {dist.basis_b.labels[b_index]}) has vanishing modulus"
        )
    return float(np.angle(entry))


def is_half_periodic(spectrum: ActionSpectrum) -> bool:
    """True when applying the spectrum's unitary twice is the identity up to phase.

    Equivalent to all pairwise phase differences lying in {0, pi} mod 2 pi.
    """
    doubled = np.exp(-2j * np.asarray(spectrum.phase))
    return bool(np.max(np.abs(doubled - doubled[0])) <= TOL)


def negativity(dist: KDDistribution) -> NegativityReport:
    """Total negative weight, most negative entry, and largest action phase."""
    real = dist.table.real
    total = float(np.sum(np.maximum(0.0, -real)))
    flat_idx = int(np.argmin(real))
    mi, bi = np.unravel_index(flat_idx, real.shape)
    significant = np.abs(dist.table) > TOL
    max_phase = float(np.max(np.abs(np.angle(dist.table[significant])))) if significant.any() else 0.0
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
    small = np.argwhere(np.abs(bm) <= TOL)
    if small.size:
        b_i, m_i = small[0]
        raise ReconstructionError(
            f"<b|m> ~ 0 for (m={dist.basis_m.labels[m_i]!r}, b={dist.basis_b.labels[b_i]!r}); "
            "reconstruction is ill-posed"
        )
    coeff = dist.table / bm.T
    return Operator(m_mat.T @ coeff @ b_mat.conj())
