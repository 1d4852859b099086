"""The published values in exact arithmetic: an oracle that rounds nothing.

sympy builds each table from its builder's recipe, with every number an exact algebraic number:

- Leggett-Garg at pi/3: ``a`` is the Bloch state along 0, the m basis holds the Bloch states along
  theta and theta + pi, and the b basis those along 2 theta and 2 theta + pi.
- Bell at pi/4: the two stabilizers ``c X1Y2 + s X1X2`` and ``c Y1X2 - s Y1Y2``, the projector
  ``(1 + a1)(1 + a2) / 4``, the seed ``|++>`` projected by it, and the X and Y product bases in
  ``_CHSH_ORDER``. The table is divided by the projected seed's squared norm, not built from the
  normalized state: that is the same table, and it keeps every entry in Q(sqrt 2, i).
- Three-box and Cheshire cat: equal weight on d = 3 and 4 boxes, post-selected with a pi phase on
  the last box; the m basis is the boxes, and the b basis is ``post_selection_basis``'s: b, the
  normalized remainder of a, and the standard vectors in index order, each made orthogonal to all
  before it (Gram-Schmidt, as ``complete_basis`` does).
- Hardy: ``a = (1, 1, 1, 0) / sqrt 3`` on the paths, and the b basis the products of the X
  eigenstates, the ports c (+1) and b (-1).
- Peres-Mermin: ``a = |X+> (x) |Y+>``, the m basis the swap's eigenbasis, and the b basis the
  (Y1, X2) product basis.

The published values are then identities: the Leggett-Garg cell (spin_m = -1, spin_b = +1) is
-1/8; Bell's ``<K>`` is 2 sqrt 2 and ``P(K = -2)`` is (1 - sqrt 2) / 2; the columns b of three-box,
Cheshire cat, Hardy and Peres-Mermin and their ``P(b|a)`` are the rationals the builders check, and
Hardy's signed sum is -1/4. The engine's float tables lie within ``(3d + 16) u`` of the exact ones,
``u = 2**-53``. That is ``test_oracle``'s bound for the kernel's rounding on float inputs; it holds
here too, where the inputs' own rounding (cos, sin and the normalization) comes on top.
"""
import math

import pytest

from helpers import chsh_cell_value
from kdqlab import bell_scenario, build, leggett_garg
from kdqlab.scenarios import _CHSH_ORDER

sp = pytest.importorskip("sympy")

U = 2.0**-53
PM_ORDER = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
# the published column b of each scenario without an angle, its index and P(b|a)
PUBLISHED = {
    "three-box": (0, [sp.Rational(1, 9), sp.Rational(1, 9), sp.Rational(-1, 9)], sp.Rational(1, 9)),
    "cheshire-cat": (0, [sp.Rational(1, 8)] * 3 + [sp.Rational(-1, 8)], sp.Rational(1, 4)),
    "hardy": (3, [sp.Rational(-1, 12), sp.Rational(1, 12), sp.Rational(1, 12), 0], sp.Rational(1, 12)),
    "peres-mermin": (0, [sp.Rational(-1, 8)] + [sp.Rational(1, 8)] * 3, sp.Rational(1, 4)),
}
X = sp.Matrix([[0, 1], [1, 0]])
Y = sp.Matrix([[0, -sp.I], [sp.I, 0]])
EIGEN = {
    "X": {+1: sp.Matrix([1, 1]) / sp.sqrt(2), -1: sp.Matrix([1, -1]) / sp.sqrt(2)},
    "Y": {+1: sp.Matrix([1, sp.I]) / sp.sqrt(2), -1: sp.Matrix([1, -sp.I]) / sp.sqrt(2)},
}


def canonical(value):
    """``value`` with its denominators rationalized and expanded: zero exactly when it equals zero."""
    return sp.expand(sp.radsimp(sp.expand(value)))


def braket(u, v):
    return (u.H * v)[0]


def exact_table(a, basis_m, basis_b):
    """``<b|m><m|a><a|b> / <a|a>`` for column vectors: the joint table of the normalized ``a``."""
    norm_sq = braket(a, a)
    return [[canonical(braket(b, m) * braket(m, a) * braket(a, b) / norm_sq) for b in basis_b] for m in basis_m]


def bloch(theta):
    return sp.Matrix([sp.cos(theta / 2), sp.sin(theta / 2)])


def product_basis(axis):
    return [sp.kronecker_product(EIGEN[axis][s1], EIGEN[axis][s2]) for s1, s2 in _CHSH_ORDER]


def gram_schmidt(seeds, dim):
    """The unit seeds, then each standard vector made orthogonal to every vector before it and normalized, in
    index order, until ``dim`` vectors are found."""
    vectors = list(seeds)
    for k in range(dim):
        if len(vectors) == dim:
            break
        cand = sp.eye(dim)[:, k]
        cand = cand - sum((braket(w, cand) * w for w in vectors), sp.zeros(dim, 1))
        if braket(cand, cand) != 0:
            vectors.append(cand / sp.sqrt(canonical(braket(cand, cand))))
    return vectors


def boxes(d):
    """Equal weight on d boxes, post-selected with a pi phase on the last: a, the box basis and the b basis."""
    a = sp.ones(d, 1)
    b = sp.Matrix([1] * (d - 1) + [-1]) / sp.sqrt(d)
    rest = a - b * braket(b, a)
    return a, [sp.eye(d)[:, k] for k in range(d)], gram_schmidt([b, rest / sp.sqrt(braket(rest, rest))], d)


def fixed_tables():
    """The exact tables of the four scenarios without an angle."""
    ports = [EIGEN["X"][+1], EIGEN["X"][-1]]
    swap = [sp.Matrix(v) / sp.sqrt(2) for v in ([0, 1, -1, 0], [1, 0, 0, -1], [1, 0, 0, 1], [0, 1, 1, 0])]
    yx_basis = [sp.kronecker_product(EIGEN["Y"][s1], EIGEN["X"][s2]) for s1, s2 in PM_ORDER]
    return {
        "three-box": exact_table(*boxes(3)),
        "cheshire-cat": exact_table(*boxes(4)),
        "hardy": exact_table(
            sp.Matrix([1, 1, 1, 0]),
            [sp.eye(4)[:, k] for k in range(4)],
            [sp.kronecker_product(u, v) for u in ports for v in ports],
        ),
        "peres-mermin": exact_table(sp.kronecker_product(EIGEN["X"][+1], EIGEN["Y"][+1]), swap, yx_basis),
    }


def bell_table(theta):
    c, s = sp.cos(theta), sp.sin(theta)
    a1 = c * sp.kronecker_product(X, Y) + s * sp.kronecker_product(X, X)
    a2 = c * sp.kronecker_product(Y, X) - s * sp.kronecker_product(Y, Y)
    seed = (sp.eye(4) + a1) * (sp.eye(4) + a2) / 4 * sp.Matrix([1, 1, 1, 1]) / 2
    return exact_table(seed, product_basis("X"), product_basis("Y"))


def max_error(table, exact):
    """The largest distance between a float table's entries and the exact ones, to 40 digits."""
    errors = [
        sp.N(abs(sp.Float(z.real, 40) + sp.I * sp.Float(z.imag, 40) - e), 40)
        for z, e in zip(table.ravel().tolist(), (e for row in exact for e in row))
    ]
    return float(max(errors))


@pytest.fixture(scope="module")
def leggett_garg_exact():
    theta = sp.pi / 3
    return exact_table(bloch(0), [bloch(theta), bloch(theta + sp.pi)], [bloch(2 * theta), bloch(2 * theta + sp.pi)])


@pytest.fixture(scope="module")
def fixed_exact():
    return fixed_tables()


@pytest.fixture(scope="module")
def bell_exact():
    return bell_table(sp.pi / 4)


def test_leggett_garg_cell_is_exactly_minus_one_eighth(leggett_garg_exact):
    assert leggett_garg_exact[1][0] == sp.Rational(-1, 8)


def test_leggett_garg_table_within_the_entry_bound(leggett_garg_exact):
    assert max_error(leggett_garg(math.pi / 3).kd.table, leggett_garg_exact) <= (3 * 2 + 16) * U


def test_bell_published_values_are_exact(bell_exact):
    order = list(enumerate(_CHSH_ORDER))
    cells = [(chsh_cell_value(m, b), bell_exact[i][j]) for i, m in order for j, b in order]
    assert all(sp.im(value) == 0 for _, value in cells)
    assert canonical(sum(k * value for k, value in cells) - 2 * sp.sqrt(2)) == 0
    assert canonical(sum(value for k, value in cells if k == -2) - (1 - sp.sqrt(2)) / 2) == 0


def test_bell_table_within_the_entry_bound(bell_exact):
    assert max_error(bell_scenario(math.pi / 4).kd.table, bell_exact) <= (3 * 4 + 16) * U


def test_the_comparison_is_live(bell_exact):
    # an entry moved by 1e-14, above the bound, shows as an error of that size
    table = bell_scenario(math.pi / 4).kd.table.copy()
    table[0, 3] += 1e-14
    assert max_error(table, bell_exact) == pytest.approx(1e-14, rel=1e-3)


@pytest.mark.parametrize("name", PUBLISHED)
def test_published_column_and_post_selection_probability_are_exact(fixed_exact, name):
    b, column, p_b = PUBLISHED[name]
    exact_column = [row[b] for row in fixed_exact[name]]
    assert exact_column == column
    assert canonical(sum(exact_column)) == p_b


def test_hardy_signed_sum_is_exactly_minus_one_quarter(fixed_exact):
    # the double flip's phases (0, pi, pi, 0) weigh column b1b2 by e^(-i phase(m)) = (1, -1, -1, 1)
    column = [row[3] for row in fixed_exact["hardy"]]
    assert canonical(sum(sign * value for sign, value in zip((1, -1, -1, 1), column))) == sp.Rational(-1, 4)


@pytest.mark.parametrize("name", PUBLISHED)
def test_fixed_table_within_the_entry_bound(fixed_exact, name):
    table = build(name).kd.table
    assert max_error(table, fixed_exact[name]) <= (3 * len(table) + 16) * U
