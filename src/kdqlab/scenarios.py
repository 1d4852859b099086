"""Executable paradox scenarios built on the quasi-probability engine.

Each builder assembles a preparation, an intermediate basis and a final
basis, lets the engine produce the complex joint table, and declares the
transformation behind its paradox as a ``kdq.Transformation``: action phases
on the m basis and the target column b. ``_report`` turns the table, that
transformation, its noun and the builder's published values into
machine-checked ``Check`` records, and adds the checks every transformation
gets: half-periodicity, the overlap identity against the direct overlap and,
where the transformation maps a onto b, the half-periodic law for column b.
Builders contain no arithmetic shortcuts: every number in a report comes from
the engine. Every input that no angle changes is a read-only module constant,
built once at import and shared by every build: the fixed scenarios' states,
bases and check operators (three-box and Cheshire cat from one recipe, equal
weight on d boxes post-selected with a pi phase on the last), Leggett-Garg's
preparation, the Pauli product bases and the Pauli products, Peres-Mermin's
swap eigenbasis, its eight product-context states and the literal swap, and
Bell's CHSH sign vectors, cell values, flip phases, the closed-form table's
parity and sign tables, the K = -2 mask and the seed ``|++>``. No build
re-verifies a constant: what a builder relies on about one, such as the swap
eigenbasis being a joint eigenbasis of X1X2, Y1Y2 and Z1Z2, is checked once,
by a test. Tables, transformations and checks are computed anew on every
call, from per-angle inputs formed directly: Leggett-Garg's two spin bases
are the Bloch states along theta and theta + pi, with no Gram-Schmidt pass,
and its two spin observables are spectral sums over them; Bell's state is the
stabilizers' joint projector applied to the seed. That projector has rank one
at every admissible angle, so the builder runs no check of its own on it: a
wrong construction fails the report's closed-form table check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kdq import (
    KDDistribution,
    NegativityReport,
    Transformation,
    is_half_periodic,
    kd_joint,
    negativity,
    weak_value,
)
from .qcore import (
    TOL,
    Operator,
    OrthonormalBasis,
    StateVector,
    _IDENTITY,
    _spectral_sum,
    bloch_state,
    expectation,
    inner,
    pauli,
    post_selection_basis,
    projector,
    tensor_op,
    tensor_state,
)

DEFAULT_LG_THETA = math.pi / 3  # maximal Leggett-Garg violation (cos = 1/2)
DEFAULT_BELL_THETA = math.pi / 4  # maximal CHSH violation


@dataclass(frozen=True)
class Check:
    """One named comparison of an engine value against its target.

    ``passed`` is derived at construction: the real and the imaginary part of
    ``got`` each lie within ``tolerance`` of those of ``expected``. A boolean
    condition is the check ``Check(name, 1.0, float(condition), 0.0)``.
    """

    name: str
    expected: complex | float
    got: complex | float
    tolerance: float = TOL
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        e, g = complex(self.expected), complex(self.got)
        ok = abs(e.real - g.real) <= self.tolerance and abs(e.imag - g.imag) <= self.tolerance
        object.__setattr__(self, "passed", bool(ok))


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Named paradox run: its joint table ``kd`` and the checks on it.

    ``negativity`` is derived from ``kd`` once, at construction; the
    dimension is ``kd.dim``.
    """

    scenario: str
    kd: KDDistribution
    checks: tuple[Check, ...]
    violated_inequality: str | None = None
    negativity: NegativityReport = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.checks) < 3:
            raise ValueError("a scenario report needs at least three checks")
        object.__setattr__(self, "negativity", negativity(self.kd))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _report(
    scenario: str,
    dist: KDDistribution,
    transform: Transformation,
    noun: str,
    checks: list[Check] | tuple[Check, ...],
    column: dict[str, float] | None = None,
    violated: str | None = None,
) -> ScenarioReport:
    """Scenario report: published column entries, the builder's checks, then the transformation's.

    ``noun`` names the transformation in its half-periodicity check.
    ``column`` maps a check name to the published value of each entry of
    column b, in the order of the m basis. Whenever the half-periodic
    transformation maps a onto b, column b must equal ``e^{i phase(m)} P(m|a) S``
    with ``S = sum_n e^{-i phase(n)} P(n|a)``: its entries are real and their
    signs follow the phases (Hofmann, NJP 13, 103009 (2011)). When b lies at
    distance d from the ray of ``U a``, column b may differ from that law by up
    to 2 d (1 + d), so the law is checked only where d <= TOL / 4.
    """
    col = dist.table[:, transform.b]
    named = (column or {}).items()
    entries = [Check(name, complex(value, 0.0), complex(z)) for (name, value), z in zip(named, col)]
    half = is_half_periodic(transform.spectrum)
    generic = [Check(f"{noun} is half-periodic", 1.0, float(half), 0.0)]
    if transform.from_kd is not None:
        name = "overlap identity agrees with the direct overlap"
        generic.append(Check(name, transform.direct, transform.from_kd))
    if half and transform.distance <= TOL / 4:
        phase = transform.spectrum.factor.conj()  # e^{i phase(m)}
        residual = float(abs(col - phase * dist.prob_m * (dist.prob_m / phase).sum()).max())
        generic.append(Check("column b follows the half-periodic law e^(i phase) P(m|a) S", 0.0, residual))
    return ScenarioReport(scenario, dist, (*entries, *checks, *generic), violated)


# Each scenario's inputs that no angle changes are module constants below, built once at import and shared by
# every build. Their values are immutable and their arrays read-only, so no caller can change them.
_LG_PREPARATION = bloch_state(0.0, 0.0)  # the spin up along 0


def _spin_basis(theta: float) -> OrthonormalBasis:
    """Qubit basis of the +/-1 eigenstates of the spin along (theta, 0): the Bloch states along theta and theta + pi."""
    return OrthonormalBasis(("+1", "-1"), (bloch_state(theta), bloch_state(theta + math.pi)))


def leggett_garg(theta: float) -> ScenarioReport:
    """Coplanar three-direction spin correlation with a half-periodic flip.

    The preparation points along 0, the intermediate spin along ``theta`` and
    the final spin along ``2 theta``. The joint probability of (spin_m = -1,
    spin_b = +1) is computed along three independent routes (expectation
    values, closed form, transformation overlap) and compared with the real
    part of the joint table entry. It is negative for all theta < pi/2 and
    reaches -1/8 at cos(theta) = 1/2.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    dist = kd_joint(_LG_PREPARATION, _spin_basis(theta), _spin_basis(2.0 * theta))
    a, basis_m, basis_b = dist.state_a, dist.basis_m, dist.basis_b
    entry = complex(dist.table[1, 0])  # (spin_m = -1, spin_b = +1)

    # route 1: separate expectation values of the three spin observables
    sigma_m, sigma_b = (_spectral_sum(basis, (1.0, -1.0)) for basis in (basis_m, basis_b))
    p_expectation = 0.25 * (
        1.0
        + expectation(sigma_b, a).real
        - expectation(sigma_m, a).real
        - expectation(Operator(sigma_m.mat @ sigma_b.mat), a).real
    )

    # route 2: closed form for the symmetric coplanar geometry
    p_closed = 0.5 * math.cos(theta) * (math.cos(theta) - 1.0)

    # route 3: half-periodic flip about the m axis; the signed difference of
    # the two joint probabilities is the real transformation amplitude
    flip = Transformation(dist, (0.0, math.pi), 0)
    b_plus = basis_b.vectors[0]
    p_b = float(abs(inner(b_plus, a)) ** 2)
    amplitude = complex(np.vdot(b_plus.amp, flip.image)) * inner(a, b_plus)
    p_transform = 0.5 * (p_b - amplitude.real)

    checks = [
        Check("joint probability via expectation values", p_closed, p_expectation),
        Check("joint probability via transformation overlap", p_closed, p_transform),
        Check("joint probability equals Re of the joint table entry", p_closed, entry.real),
        Check("joint table entry is real", 0.0, entry.imag),
        Check("flip about the m axis maps a onto b", 1.0, flip.direct),
        Check("transformation amplitude modulus", math.sqrt(p_b * flip.direct), abs(amplitude)),
    ]
    violated = "positivity of P(spin_m=-1, spin_b=+1)" if entry.real < -TOL else None
    return _report("leggett-garg", dist, flip, "flip spectrum", checks, violated=violated)


def _boxes(
    labels: tuple[str, ...], final_labels: tuple[str, ...]
) -> tuple[StateVector, StateVector, OrthonormalBasis, OrthonormalBasis]:
    """Equal weight on one box per label, post-selected with a pi phase on the last box.

    Returns a, b, the box basis and the post-selection basis, whose vectors carry ``final_labels``.
    """
    d = len(labels)
    a, b = StateVector.normalize([1.0] * d), StateVector.normalize([1.0] * (d - 1) + [-1.0])
    return a, b, OrthonormalBasis.standard(d, labels), post_selection_basis(a, b, final_labels)


_THREE_BOX = _boxes(("1", "2", "3"), ("b", "rest", "null"))
_BOX1, _BOX3 = (projector(_THREE_BOX[2].vectors[k]) for k in (0, 2))  # the projectors on boxes 1 and 3


def three_box() -> ScenarioReport:
    """Three paths, pre- and post-selected on symmetric superpositions.

    Both the "only box 1" and the "only box 2" inferences hold marginally,
    yet the joint table resolves them with a negative weight on box 3.
    """
    a, b, basis_m, basis_b = _THREE_BOX
    dist = kd_joint(a, basis_m, basis_b)
    flip = Transformation(dist, (0.0, 0.0, math.pi), 0)
    col = dist.table[:, 0]

    checks = (
        Check("post-selection probability P(b|a) = 1/9", 1.0 / 9.0, float(dist.prob_b[0])),
        Check("phase pattern (0, 0, pi) transforms a onto b (overlap identity)", 1.0, flip.from_kd),
        Check("direct overlap after the phase flip", 1.0, flip.direct),
        Check("boxes 2 and 3 cancel", complex(0.0, 0.0), complex(col[1] + col[2])),
        Check("weak value of the box-1 projector", complex(1.0, 0.0), weak_value(a, b, _BOX1)),
        Check("weak value of the box-3 projector", complex(-1.0, 0.0), weak_value(a, b, _BOX3)),
    )
    column = {**{f"P(box {k}, b | a) = 1/9": 1.0 / 9.0 for k in (1, 2)}, "P(box 3, b | a) = -1/9": -1.0 / 9.0}
    return _report("three-box", dist, flip, "phase pattern", checks, column, "positivity of P(box 3, b | a)")


_CHESHIRE_CAT = _boxes(("p1H", "p1V", "p2H", "p2V"), ("b", "rest", "null1", "null2"))
# the projector on path p1
_PATH1 = Operator(projector(_CHESHIRE_CAT[2].vectors[0]).mat + projector(_CHESHIRE_CAT[2].vectors[1]).mat)


def cheshire_cat() -> ScenarioReport:
    """Path-polarization separation in a four-box interferometer.

    One box per (path, polarization) pair. The post-selection is generated
    by a pi phase on (p2, V); conditional weights then place the particle
    entirely in path p1 while the full polarization difference sits in p2.
    """
    a, b, basis_m, basis_b = _CHESHIRE_CAT
    dist = kd_joint(a, basis_m, basis_b)
    flip = Transformation(dist, (0.0, 0.0, 0.0, math.pi), 0)

    p_b = float(dist.prob_b[0])
    col = dist.table[:, 0]
    path1 = float((col[0] + col[1]).real) / p_b
    path2 = float((col[2] + col[3]).real) / p_b
    smile_p2 = float((col[2] - col[3]).real) / p_b
    pol_h = float((col[0] + col[2]).real) / p_b
    pol_v = float((col[1] + col[3]).real) / p_b

    checks = (
        Check("post-selection probability P(b|a) = 1/4", 0.25, p_b),
        Check("conditional weight of path p1", 1.0, path1),
        Check("conditional weight of path p2", 0.0, path2),
        Check("conditional polarization difference in p2", 1.0, smile_p2),
        Check("conditional weight of polarization H", 1.0, pol_h),
        Check("conditional weight of polarization V", 0.0, pol_v),
        Check(
            "path-p1 weight equals the weak value of the p1 projector",
            complex(path1, 0.0),
            weak_value(a, b, _PATH1),
        ),
        Check("pi phase on (p2, V) maps a onto b (overlap identity)", 1.0, flip.from_kd),
    )
    column = {
        "P(p1, H; b | a) = 1/8": 0.125,
        "P(p1, V; b | a) = 1/8": 0.125,
        "P(p2, H; b | a) = 1/8": 0.125,
        "P(p2, V; b | a) = -1/8": -0.125,
    }
    return _report("cheshire-cat", dist, flip, "phase pattern", checks, column, "positivity of P(p2, V; b | a)")


# the +/-1 eigenstates of the X and Y Paulis
_EIGEN = {
    "X": {+1: StateVector.normalize([1.0, 1.0]), -1: StateVector.normalize([1.0, -1.0])},
    "Y": {+1: StateVector.normalize([1.0, 1.0j]), -1: StateVector.normalize([1.0, -1.0j])},
}
# Hardy's a, its path basis and port basis, and the two mixed path/port states (b1, O2) and (O1, b2)
_PORTS, _OUTER = (_EIGEN["X"][+1], _EIGEN["X"][-1]), StateVector([1.0, 0.0])  # the ports c and b, the path O
_HARDY_A = StateVector.normalize([1.0, 1.0, 1.0, 0.0])
_HARDY_PATHS = OrthonormalBasis.standard(4, ("O1O2", "O1I2", "I1O2", "I1I2"))  # products of the paths O, I
_HARDY_PORTS = OrthonormalBasis(
    ("c1c2", "c1b2", "b1c2", "b1b2"), tuple(tensor_state(u, v) for u in _PORTS for v in _PORTS)
)
_B1_OUTER2, _OUTER1_B2 = tensor_state(_PORTS[1], _OUTER), tensor_state(_OUTER, _PORTS[1])


def hardy() -> ScenarioReport:
    """Two crossed interferometers with the double-inner-path amplitude removed.

    Paths are labeled O (outer) and I (inner); output ports are c (original)
    and b (opposite). Finding both particles in the opposite ports has
    probability 1/12 even though each opposite port alone, paired with the
    other particle's outer path, has probability zero.
    """
    dist = kd_joint(_HARDY_A, _HARDY_PATHS, _HARDY_PORTS)
    b_idx = 3  # both particles in the opposite ports
    flip = Transformation(dist, (0.0, math.pi, math.pi, 0.0), b_idx)
    col = dist.table[:, b_idx]

    # mixed path/port events that are directly observable and vanish
    p_b1_outer2 = float(abs(inner(_B1_OUTER2, _HARDY_A)) ** 2)
    p_outer1_b2 = float(abs(inner(_OUTER1_B2, _HARDY_A)) ** 2)

    checks = (
        Check("P(b1, b2 | a) = 1/12", 1.0 / 12.0, float(dist.prob_b[b_idx])),
        Check("outer-1 contributions cancel", complex(0.0, 0.0), complex(col[0] + col[1])),
        Check("outer-2 contributions cancel", complex(0.0, 0.0), complex(col[0] + col[2])),
        Check("P(b1, O2 | a) = 0", 0.0, p_b1_outer2),
        Check("P(O1, b2 | a) = 0", 0.0, p_outer1_b2),
        Check("overlap after the double phase flip = 3/4", 0.75, flip.direct),
        Check(
            "signed joint sum = -sqrt(P(b|a) P(b|U a)) = -1/4",
            complex(-0.25, 0.0),
            complex(np.sum(col * flip.spectrum.factor)),
        ),
    )
    column = {
        "P(O1, O2; b1, b2 | a) = -1/12": -1.0 / 12.0,
        "P(O1, I2; b1, b2 | a) = 1/12": 1.0 / 12.0,
        "P(I1, O2; b1, b2 | a) = 1/12": 1.0 / 12.0,
        "P(I1, I2; b1, b2 | a) = 0": 0.0,
    }
    return _report("hardy", dist, flip, "double flip", checks, column, "positivity of P(O1, O2; b1, b2 | a)")


def _product_basis(first: str, second: str, order: tuple[tuple[int, int], ...]) -> OrthonormalBasis:
    """Two-qubit product basis ``first[s1] (x) second[s2]`` of Pauli eigenstates over the sign pairs in ``order``.

    ``first`` and ``second`` name the axes, "X" or "Y"; each vector is labeled "(s1 s2)", such as "(+1 -1)",
    without a comma, so a CSV row needs no quoting.
    """
    return OrthonormalBasis(
        tuple(f"({s1:+d} {s2:+d})" for s1, s2 in order),
        tuple(tensor_state(_EIGEN[first][s1], _EIGEN[second][s2]) for s1, s2 in order),
    )


# the two-qubit Pauli products, such as X1Y2 under "XY"; the (X1, Y2) product basis that Peres-Mermin's a belongs
# to and the (Y1, X2) one of its b; and the eigenbasis of the two-qubit swap: the antisymmetric state S and the
# three triplet states
_PAULI_PAIRS = {p + q: tensor_op(pauli(p), pauli(q)) for p, q in ("XX", "YY", "ZZ", "XY", "YX")}
_XY_BASIS, _YX_BASIS = (_product_basis(p, q, ((+1, +1), (+1, -1), (-1, +1), (-1, -1))) for p, q in ("XY", "YX"))
_SWAP_BASIS = OrthonormalBasis(
    ("S", "Tx", "Ty", "Tz"),
    tuple(map(StateVector, math.sqrt(0.5) * np.array([[0, 1, -1, 0], [1, 0, 0, -1], [1, 0, 0, 1], [0, 1, 1, 0]]))),
)
# the eight product-context states, one per row, and the literal two-qubit swap, which exchanges |01> and |10>
_CONTEXTS, _LITERAL_SWAP = np.concatenate((_XY_BASIS.matrix, _YX_BASIS.matrix)), _IDENTITY[4][[0, 2, 1, 3]]
for _array in (_CONTEXTS, _LITERAL_SWAP):
    _array.setflags(write=False)


def _eigenvalues_of(op: Operator, vectors: np.ndarray) -> np.ndarray:
    """Eigenvalue of ``op`` on each row of ``vectors``: the real part of ``<v_k|op|v_k>``, one matmul for all rows.

    The builder passes only read-only constants (the swap eigenbasis under X1X2, Y1Y2 and Z1Z2, ``a`` under X1Y2
    and ``b`` under Y1X2), and no input changes them, so the facts that make these quotients eigenvalues are
    checked once, by a test, not on every build: each row is an eigenvector (residual at most 2.2e-16) and
    each quotient is real (imaginary part exactly 0). The report cannot stand in for that test. With the Tx
    and Tz rows rotated into each other, every check still passes at each angle tried from 1e-10 to pi/4,
    where neither row is an eigenvector of X1X2 or Z1Z2 (residual 0.5): both rows are +1 eigenvectors of the
    swap and of Y1Y2 and carry equal weight in column b, so every quotient the report reads keeps its
    product rule. With Tx and Ty rotated, the report still passes at 1e-7. So the check
    "(X1X2)(Y1Y2) = -(Z1Z2) on all four swap eigenvectors" means what it says only through that test.
    """
    images = vectors @ op.mat.T  # row k holds op applied to vector k
    return (vectors.conj() * images).sum(axis=1).real  # <v_k|op|v_k>


def peres_mermin_swap() -> ScenarioReport:
    """Contextual product correlations of two spins, resolved by the swap.

    The preparation fixes (X1, Y2) and the post-selection fixes (Y1, X2); the
    swap that maps one onto the other is half-periodic with the antisymmetric
    state as its pi eigenvector, forcing a -1/8 joint weight on it.
    """
    a, b, basis_m = _XY_BASIS.vectors[0], _YX_BASIS.vectors[0], _SWAP_BASIS
    dist = kd_joint(a, basis_m, _YX_BASIS)
    swap = Transformation(dist, (math.pi, 0.0, 0.0, 0.0), 0)
    col = dist.table[:, 0]

    xx, yy, zz, x1y2, y1x2 = (_PAULI_PAIRS[key] for key in ("XX", "YY", "ZZ", "XY", "YX"))

    # product values on the swap eigenbasis, by direct application: one row per
    # swap eigenvector, columns X1X2, Y1Y2, Z1Z2
    eig = np.stack([_eigenvalues_of(op, basis_m.matrix) for op in (xx, yy, zz)], axis=1)
    corr1_residual = float(np.max(np.abs(eig[:, 0] * eig[:, 1] + eig[:, 2])))

    # the rearranged products form an operator identity with the opposite sign
    corr2 = x1y2.mat @ y1x2.mat
    corr2_residual = float(np.max(np.abs(corr2 - zz.mat)))
    corr1_operator_residual = float(np.max(np.abs(xx.mat @ yy.mat + zz.mat)))
    corr2_on_states = float(np.max(np.abs(_CONTEXTS @ corr2.T - _CONTEXTS @ zz.mat.T)))

    p_b = float(dist.prob_b[0])
    cond_xx, cond_yy, cond_zz = (col.real @ eig / p_b).tolist()
    literal_error = float(np.max(np.abs(swap.unitary.mat - _LITERAL_SWAP)))

    checks = (
        Check("post-selection probability P(b|a) = 1/4", 0.25, p_b),
        Check("(X1X2)(Y1Y2) = -(Z1Z2) on all four swap eigenvectors", 0.0, corr1_residual),
        Check("(X1X2)(Y1Y2) + Z1Z2 vanishes as an operator", 0.0, corr1_operator_residual),
        Check("(X1Y2)(Y1X2) - Z1Z2 vanishes as an operator", 0.0, corr2_residual),
        Check("(X1Y2)(Y1X2) = Z1Z2 on all eight product-context states", 0.0, corr2_on_states),
        Check("S and Tx weights cancel", complex(0.0, 0.0), complex(col[0] + col[1])),
        Check("conditional average of X1X2", 1.0, cond_xx),
        Check("conditional average of Y1Y2", 1.0, cond_yy),
        Check("conditional average of Z1Z2", 1.0, cond_zz),
        Check("preparation has X1Y2 = +1", 1.0, float(_eigenvalues_of(x1y2, a.amp[None])[0])),
        Check("post-selection has Y1X2 = +1", 1.0, float(_eigenvalues_of(y1x2, b.amp[None])[0])),
        Check("swap maps a onto b", 1.0, swap.direct),
        Check("spectrum synthesizes the literal swap", 0.0, literal_error),
    )
    column = {"P(S; b | a) = -1/8": -0.125, **{f"P({label}; b | a) = 1/8": 0.125 for label in ("Tx", "Ty", "Tz")}}
    return _report("peres-mermin", dist, swap, "swap spectrum", checks, column, "context independence of spin products")


_CHSH_ORDER = ((-1, -1), (+1, -1), (-1, +1), (+1, +1))
_CHSH_SIGNS = np.array(_CHSH_ORDER).T  # (2, 4): the first and the second sign of each outcome pair
_CHSH_SIGNS.setflags(write=False)  # shared by every build, as are its views below
_M1, _M2 = _CHSH_SIGNS[:, :, None]  # the X outcome signs of the rows (m), as columns
_B1, _B2 = _CHSH_SIGNS[:, None, :]  # the Y outcome signs of the columns (b), as rows
# K per (m, b) cell: X1 X2 from m, Y1 Y2 from b and the cross terms X1 Y2 and Y1 X2 from their pairing; always +-2
_CHSH_CELLS = _M1 * _M2 + _M1 * _B2 + _B1 * _M2 - _B1 * _B2
_CHSH_FLIP = tuple(math.pi if m == (-1, -1) else 0.0 for m in _CHSH_ORDER)  # pi on (X1, X2) = (-1, -1)
# the closed-form table's parity of each row m, the cells where m and b differ in parity, the sign m1 b2 of each
# cell, the cells of K = -2, and the seed |++> of the Bell state
_CHSH_PARITY, _CHSH_SPLIT, _CHSH_CROSS = _M1 * _M2, _M1 * _M2 != _B1 * _B2, _M1 * _B2
_CHSH_MINUS2 = _CHSH_CELLS == -2
_PLUS_PLUS = np.full(4, 0.5, dtype=complex)
for _array in (_CHSH_CELLS, _CHSH_PARITY, _CHSH_SPLIT, _CHSH_CROSS, _CHSH_MINUS2, _PLUS_PLUS):
    _array.setflags(write=False)
_XX_BASIS, _YY_BASIS = (_product_basis(axis, axis, _CHSH_ORDER) for axis in "XY")  # Bell's rows m and columns b


def _chsh_target(theta: float) -> np.ndarray:
    """Closed-form real parts of the joint table for the tilted pair state.

    ``(1 + m1 m2 sin theta) / 8`` where m and b differ in parity (``m1 m2 != b1 b2``),
    and ``m1 b2 cos theta / 8`` elsewhere.
    """
    return np.where(_CHSH_SPLIT, (1.0 + _CHSH_PARITY * math.sin(theta)) / 8.0, _CHSH_CROSS * math.cos(theta) / 8.0)


def _bell_state(theta: float) -> tuple[StateVector, Operator, Operator]:
    """The unique joint +1 eigenstate of two tilted correlation observables, and the two observables.

    Built by projecting the seed ``|++>`` onto the joint eigenspace and
    normalizing. The construction is not checked here: the observables commute,
    square to 1 and have ``a1 a2 = Z1Z2``, so their joint +1 projector has rank
    one at every theta, and a wrong construction fails the report's own checks
    (the closed-form table, ``<K>``, ``P(K=-2)`` and both correlation conditions).
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    # each stabilizer is one numpy expression on the read-only .mat, wrapped once, as every builder
    # combines operators; the operations and their order, c XY + s XX, c YX - s YY and
    # 0.25 (1 + a1)(1 + a2), fix the bits of the state and of both stabilizers
    a1 = Operator(c * _PAULI_PAIRS["XY"].mat + s * _PAULI_PAIRS["XX"].mat)
    a2 = Operator(c * _PAULI_PAIRS["YX"].mat - s * _PAULI_PAIRS["YY"].mat)
    proj = 0.25 * ((_IDENTITY[4] + a1.mat) @ (_IDENTITY[4] + a2.mat))
    # <++|a1|++> = sin(theta), <++|a2|++> = 0 and a1 a2 = Z1Z2 with <++|Z1Z2|++> = 0, so the
    # projection of |++> has norm^2 (1 + sin(theta)) / 4 >= 1/4 on [0, pi/2]: it never vanishes
    return StateVector.normalize(proj @ _PLUS_PLUS), a1, a2


def bell_scenario(theta: float) -> ScenarioReport:
    """CHSH run: the joint table of the local X outcomes against the local Y outcomes.

    Rows of ``kd`` are labeled by (X1, X2) outcomes, columns by (Y1, Y2). The
    table's largest deviation from the closed-form table, ``<K>`` and
    ``P(K=-2)`` are computed once, as the values of the checks named for them.
    A conditional flip, with a pi phase on (X1, X2) = (-1, -1), onto column
    (+1, +1) is the half-periodic transformation behind the negative cells.

    "P(K=-2) < 0 exactly when <K> > 2" compares two flags, ``k > 2 + TOL``
    and ``p < -TOL / 4``, on sums rounded apart. On the float real parts
    ``r`` of the table, with ``S = sum r`` and ``A = sum |r|``, ``k = 2 S - 4 p``
    holds exactly, so the flags can differ only where the rounded ``k`` lies
    within ``2 |S - 1| + |e_k| + 4 |e_p| + 2 u`` of the rounded threshold
    ``2 + TOL`` (u = 2**-53; the threshold rounds by at most 2 u). A sum of n
    terms, in any order, is off by at most ``gamma_(n-1) < 1.01 (n - 1) u``
    times the sum of their moduli (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 4.2): ``|e_k| <= 2 gamma_15 A``
    over the 16 cells of +-2 r, ``|e_p| <= gamma_7 A`` over the 8 cells of
    K = -2, and the measured sum ``S'`` of the 16 r is off from S by at most
    ``gamma_15 A``. As ``A >= S >= 1 - TOL``, the band
    ``2 |S' - 1| + 92 u A`` holds all of these, and the check also passes
    where ``<K>`` lies in it: there the sums cannot decide the verdict.
    """
    a, a1, a2 = _bell_state(theta)
    dist = kd_joint(a, _XX_BASIS, _YY_BASIS)

    real = dist.table.real
    k_expectation = float((_CHSH_CELLS * real).sum())
    p_k_minus2 = float(real[_CHSH_MINUS2].sum())
    p_minus2_target = 0.5 * (1.0 - math.sin(theta) - math.cos(theta))
    k_target = 2.0 * (math.sin(theta) + math.cos(theta))
    bound_violated = k_expectation > 2.0 + TOL
    negative_mass = p_k_minus2 < -TOL / 4  # <K> - 2 = 2 (S - 1) - 4 P(K=-2): the flags switch together but for rounding
    band = 2.0 * abs(float(real.sum()) - 1.0) + 92 * 2.0**-53 * float(abs(real).sum())
    flags_agree = bound_violated == negative_mass or abs(k_expectation - (2.0 + TOL)) <= band

    b_plus = 3  # b = (+1, +1)
    flip = Transformation(dist, _CHSH_FLIP, b_plus)

    checks = [
        Check("joint table matches the closed-form table", 0.0, float(abs(real - _chsh_target(theta)).max())),
        Check("joint table entries are real", 0.0, float(abs(dist.table.imag).max())),
        Check("<K> = 2 (sin + cos)", k_target, k_expectation),
        Check("P(K=-2) = (1 - sin - cos) / 2", p_minus2_target, p_k_minus2),
        Check("preparation satisfies the first correlation condition", 1.0, expectation(a1, a).real),
        Check("preparation satisfies the second correlation condition", 1.0, expectation(a2, a).real),
        Check("P(K=-2) < 0 exactly when <K> > 2", 1.0, float(flags_agree), 0.0),
    ]
    if flip.from_kd is not None:
        # entries of that column are real, so compensating the single pi phase
        # saturates the triangle bound on the transformed overlap
        optimum = float(abs(dist.table[:, b_plus]).sum()) ** 2 / float(dist.prob_b[b_plus])
        checks.append(Check("conditional flip achieves the optimal overlap onto b=(+1,+1)", optimum, flip.from_kd))
    column = None
    if abs(theta) <= 1e-12:
        values = (-0.125, 0.125, 0.125, 0.125)
        column = {f"theta=0 column entry m={label}": v for label, v in zip(dist.basis_m.labels, values)}
    violated = "CHSH correlation bound |<K>| <= 2" if bound_violated else None
    return _report("bell", dist, flip, "conditional flip spectrum", checks, column, violated)


# name -> (builder, default theta); None marks a scenario without an angle
_BUILDERS = {
    "leggett-garg": (leggett_garg, DEFAULT_LG_THETA),
    "three-box": (three_box, None),
    "cheshire-cat": (cheshire_cat, None),
    "hardy": (hardy, None),
    "peres-mermin": (peres_mermin_swap, None),
    "bell": (bell_scenario, DEFAULT_BELL_THETA),
}
SCENARIO_NAMES = tuple(_BUILDERS)


def build(name: str, theta: float | None = None) -> ScenarioReport:
    """Build a named scenario; ``theta`` only applies to the parametric ones."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}")
    builder, default = _BUILDERS[name]
    if default is None:
        if theta is not None:
            raise ValueError(f"scenario {name!r} takes no angle parameter")
        return builder()
    return builder(default if theta is None else theta)
