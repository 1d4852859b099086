"""Leggett-Garg at pi/3 and Bell at pi/4 in exact arithmetic: an oracle that rounds nothing.

sympy builds each table from its builder's recipe, with every number an exact algebraic number:

- Leggett-Garg: ``a`` is the Bloch state along 0, the m basis holds the Bloch states along theta
  and theta + pi, and the b basis those along 2 theta and 2 theta + pi.
- Bell: the two stabilizers ``c X1Y2 + s X1X2`` and ``c Y1X2 - s Y1Y2``, the projector
  ``(1 + a1)(1 + a2) / 4``, the seed ``|++>`` projected by it, and the X and Y product bases in
  ``_CHSH_ORDER``. The table is divided by the projected seed's squared norm, not built from the
  normalized state: that is the same table, and it keeps every entry in Q(sqrt 2, i).

The published values are then identities: the Leggett-Garg cell (spin_m = -1, spin_b = +1) is
-1/8, and Bell's ``<K>`` is 2 sqrt 2 and ``P(K = -2)`` is (1 - sqrt 2) / 2. The engine's float
tables lie within ``(3d + 16) u`` of the exact ones, ``u = 2**-53``. That is ``test_oracle``'s
bound for the kernel's rounding on float inputs; it holds here too, where the inputs' own rounding
(cos, sin and the normalization) comes on top.
"""

import math

import pytest

from helpers import chsh_cell_value
from kdqlab import bell_scenario, leggett_garg
from kdqlab.scenarios import _CHSH_ORDER

sp = pytest.importorskip("sympy")

U = 2.0**-53
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
