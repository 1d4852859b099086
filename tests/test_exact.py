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

Bell's closed-form table ``_chsh_target`` is the exact table at pi/4 and pi/6, cell by cell. On each
published column b, with ``P = P(b|a)``, ``N_b`` the column's negative weight and
``O*_b = (sum_m |T[m,b]|)**2 / P``, three exact identities hold:

- ``N_b = (sum_m |T[m,b]| - P) / 2 = sqrt P (sqrt O*_b - sqrt P) / 2`` on all six columns;
- ``N_b = min(P+, P-) |P+ - P-|``, with ``P+`` and ``P-`` the Born weights of the m vectors on which the
  builder's transformation puts the phase 0 and pi, wherever that transformation maps a onto b: Leggett-Garg,
  three-box, Cheshire cat and Peres-Mermin. Hardy's and Bell's maps miss b, and there the law fails;
- ``v_c = min over the negative cells of q / (q - Re T)``, ``q = |<b|m>|**2 / d`` the cell of the maximally
  mixed state, is ``1 / (1 + d sqrt P)`` for those four; Hardy's is 3/7 and Bell's sqrt 2 - 1.

On a qubit every cell ``T = <b|m><m|a><a|b>`` is a Bargmann invariant (ROADMAP item 20). With Bloch vectors
read from states built by ``bloch_state``'s formula, ``N = n_a.(n_m x n_b)`` and
``D = 1 + n_a.n_m + n_m.n_b + n_b.n_a``, two tilted triples satisfy ``Im T D + Re T N = 0`` (the phase of T is
``-Omega/2``, with ``tan(Omega/2) = N / D``), ``|T|**2 = prod (1 + n.n') / 2`` over the three pairs, and Re T
has the sign of D, exactly.
"""
import math

import pytest

from helpers import chsh_cell_value
from kdqlab import bell_scenario, build, leggett_garg
from kdqlab.scenarios import _CHSH_ORDER, _chsh_target

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
# each builder's transformation: the index of its column b and the m indices that carry the phase pi
FLIPS = {
    "leggett-garg": (0, {1}),
    "three-box": (0, {2}),
    "cheshire-cat": (0, {3}),
    "hardy": (3, {1, 2}),
    "peres-mermin": (0, {0}),
    "bell": (3, {0}),
}
# the published negative weight of each column b
NEGATIVITY = {
    "leggett-garg": sp.Rational(1, 8),
    "three-box": sp.Rational(1, 9),
    "cheshire-cat": sp.Rational(1, 8),
    "hardy": sp.Rational(1, 12),
    "peres-mermin": sp.Rational(1, 8),
    "bell": sp.sqrt(2) / 16,
}
MAPS_ONTO_B = ["leggett-garg", "three-box", "cheshire-cat", "peres-mermin"]
X = sp.Matrix([[0, 1], [1, 0]])
Y = sp.Matrix([[0, -sp.I], [sp.I, 0]])
Z = sp.Matrix([[1, 0], [0, -1]])
# two tilted Bloch triples (a, m, b), each direction as (theta, phi), and the first one's N, D and T
TILTED = [
    ((sp.pi / 3, 0), (sp.pi / 2, sp.pi / 2), (sp.pi / 2, 0)),
    ((sp.pi / 3, 0), (sp.pi / 2, sp.pi / 3), (sp.pi / 4, 2 * sp.pi / 3)),
]
FIRST_TILTED = (sp.Rational(-1, 2), 1 + sp.sqrt(3) / 2, sp.Rational(1, 4) + sp.sqrt(3) / 8 + sp.I / 8)
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


def bloch_state_exact(theta, phi):
    """``bloch_state``'s formula, ``(cos(theta/2), e^(i phi) sin(theta/2))``, in exact arithmetic."""
    return sp.Matrix([sp.cos(theta / 2), sp.exp(sp.I * phi) * sp.sin(theta / 2)])


def complex_canonical(value):
    """``canonical`` after writing every ``e^(i phi)`` as ``cos phi + i sin phi``."""
    return canonical(sp.expand_complex(value))


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


def leggett_garg_inputs(theta):
    return bloch(0), [bloch(theta), bloch(theta + sp.pi)], [bloch(2 * theta), bloch(2 * theta + sp.pi)]


def fixed_inputs():
    """The (unnormalized) a, the m basis and the b basis of the four scenarios without an angle."""
    ports = [EIGEN["X"][+1], EIGEN["X"][-1]]
    swap = [sp.Matrix(v) / sp.sqrt(2) for v in ([0, 1, -1, 0], [1, 0, 0, -1], [1, 0, 0, 1], [0, 1, 1, 0])]
    yx_basis = [sp.kronecker_product(EIGEN["Y"][s1], EIGEN["X"][s2]) for s1, s2 in PM_ORDER]
    return {
        "three-box": boxes(3),
        "cheshire-cat": boxes(4),
        "hardy": (
            sp.Matrix([1, 1, 1, 0]),
            [sp.eye(4)[:, k] for k in range(4)],
            [sp.kronecker_product(u, v) for u in ports for v in ports],
        ),
        "peres-mermin": (sp.kronecker_product(EIGEN["X"][+1], EIGEN["Y"][+1]), swap, yx_basis),
    }


def bell_inputs(theta):
    c, s = sp.cos(theta), sp.sin(theta)
    a1 = c * sp.kronecker_product(X, Y) + s * sp.kronecker_product(X, X)
    a2 = c * sp.kronecker_product(Y, X) - s * sp.kronecker_product(Y, Y)
    seed = (sp.eye(4) + a1) * (sp.eye(4) + a2) / 4 * sp.Matrix([1, 1, 1, 1]) / 2
    return seed, product_basis("X"), product_basis("Y")


def bell_table(theta):
    return exact_table(*bell_inputs(theta))


def column(table, b):
    """Column b's entries, ``P(b|a)``, its negative weight ``N_b`` and ``sum_m |T[m,b]|``."""
    entries = [row[b] for row in table]
    negative = sum(-sp.re(value) for value in entries if sp.re(value) < 0)
    return entries, canonical(sum(entries)), canonical(negative), canonical(sum(abs(value) for value in entries))


def flip_weights(table, name):
    """``P+`` and ``P-``, the Born weights of the m vectors with the phase 0 and pi, and the overlap
    ``|<b|U|a>|**2 = |sum_m e^(i phase(m)) T[m,b]|**2 / P(b|a)`` that the transformation reaches."""
    b, flipped = FLIPS[name]
    born = [canonical(sum(row)) for row in table]  # P(m|a): a row of the joint table sums to it
    minus = canonical(sum(born[m] for m in flipped))
    entries, p_b, _, _ = column(table, b)
    signed = sum(-value if m in flipped else value for m, value in enumerate(entries))
    return canonical(1 - minus), minus, canonical(abs(signed) ** 2 / p_b)


def max_error(table, exact):
    """The largest distance between a float table's entries and the exact ones, to 40 digits."""
    errors = [
        sp.N(abs(sp.Float(z.real, 40) + sp.I * sp.Float(z.imag, 40) - e), 40)
        for z, e in zip(table.ravel().tolist(), (e for row in exact for e in row))
    ]
    return float(max(errors))


@pytest.fixture(scope="module")
def default_inputs():
    """Each scenario's exact a, m basis and b basis at its default angle."""
    return {"leggett-garg": leggett_garg_inputs(sp.pi / 3), **fixed_inputs(), "bell": bell_inputs(sp.pi / 4)}


@pytest.fixture(scope="module")
def default_tables(default_inputs):
    return {name: exact_table(*inputs) for name, inputs in default_inputs.items()}


@pytest.fixture(scope="module")
def leggett_garg_exact(default_tables):
    return default_tables["leggett-garg"]


@pytest.fixture(scope="module")
def fixed_exact(default_tables):
    return {name: default_tables[name] for name in PUBLISHED}


@pytest.fixture(scope="module")
def bell_exact(default_tables):
    return default_tables["bell"]


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


@pytest.mark.parametrize("theta", [sp.pi / 4, sp.pi / 6], ids=["pi/4", "pi/6"])
def test_chsh_target_is_the_exact_table(bell_exact, theta):
    exact = bell_exact if theta == sp.pi / 4 else bell_table(theta)
    for (m1, m2), row in zip(_CHSH_ORDER, exact):
        for (b1, b2), value in zip(_CHSH_ORDER, row):
            split = m1 * m2 != b1 * b2
            target = (1 + m1 * m2 * sp.sin(theta)) / 8 if split else m1 * b2 * sp.cos(theta) / 8
            assert canonical(value - target) == 0
    # theta rounds by at most u/2, libm's sin and cos lie within an ulp (u below 1) and 1 + sin rounds by at most
    # u: at most 2.5 u before the exact division by 8
    assert max_error(_chsh_target(float(theta)), exact) <= U / 2


@pytest.mark.parametrize("name", NEGATIVITY)
def test_column_negativity_is_half_the_excess_of_its_absolute_sum(default_tables, name):
    _, p_b, negative, absolute = column(default_tables[name], FLIPS[name][0])
    best_overlap = absolute**2 / p_b  # O*_b
    assert negative == NEGATIVITY[name]
    assert canonical(negative - (absolute - p_b) / 2) == 0
    assert canonical(negative - sp.sqrt(p_b) * (sp.sqrt(best_overlap) - sp.sqrt(p_b)) / 2) == 0


@pytest.mark.parametrize("name", MAPS_ONTO_B)
def test_half_periodic_column_negativity_is_min_times_difference(default_tables, name):
    plus, minus, overlap = flip_weights(default_tables[name], name)
    assert overlap == 1  # the transformation maps a onto b
    assert canonical(sp.Min(plus, minus) * abs(plus - minus) - NEGATIVITY[name]) == 0


@pytest.mark.parametrize(
    "name, overlap, law",
    [("hardy", sp.Rational(3, 4), sp.Rational(1, 9)), ("bell", (2 + sp.sqrt(2)) / 4, sp.Rational(1, 16))],
)
def test_the_law_fails_where_the_map_misses_b(default_tables, name, overlap, law):
    plus, minus, reached = flip_weights(default_tables[name], name)
    assert canonical(reached - overlap) == 0
    assert canonical(sp.Min(plus, minus) * abs(plus - minus) - law) == 0
    assert law != NEGATIVITY[name]


@pytest.mark.parametrize(
    "name, threshold",
    [
        ("leggett-garg", sp.Rational(1, 2)),
        ("three-box", sp.Rational(1, 2)),
        ("cheshire-cat", sp.Rational(1, 3)),
        ("peres-mermin", sp.Rational(1, 3)),
        ("hardy", sp.Rational(3, 7)),
        ("bell", sp.sqrt(2) - 1),
    ],
)
def test_critical_visibility(default_inputs, default_tables, name, threshold):
    _, basis_m, basis_b = default_inputs[name]
    table, dim = default_tables[name], len(basis_m)
    ratios = []
    for m, row in zip(basis_m, table):
        for b, value in zip(basis_b, row):
            if sp.re(value) < 0:
                mixed = canonical(abs(braket(b, m)) ** 2 / dim)  # the cell of the maximally mixed state
                ratios.append(canonical(mixed / (mixed - sp.re(value))))
    assert canonical(min(ratios, key=float) - threshold) == 0
    formula = 1 / (1 + dim * sp.sqrt(column(table, FLIPS[name][0])[1]))
    assert (canonical(formula - threshold) == 0) == (name in MAPS_ONTO_B)


@pytest.mark.parametrize("triple", TILTED, ids=["first", "second"])
def test_every_qubit_cell_is_a_bargmann_invariant(triple):
    a, m, b = (bloch_state_exact(*angles) for angles in triple)
    n_a, n_m, n_b = (sp.Matrix([complex_canonical(braket(v, P * v)) for P in (X, Y, Z)]) for v in (a, m, b))
    numerator = complex_canonical(n_a.dot(n_m.cross(n_b)))
    denominator = complex_canonical(1 + n_a.dot(n_m) + n_m.dot(n_b) + n_b.dot(n_a))
    cell = complex_canonical(braket(b, m) * braket(m, a) * braket(a, b))
    real, imag = complex_canonical(sp.re(cell)), complex_canonical(sp.im(cell))
    assert complex_canonical(imag * denominator + real * numerator) == 0
    modulus_sq = sp.prod([(1 + p.dot(q)) / 2 for p, q in ((n_a, n_m), (n_m, n_b), (n_b, n_a))])
    assert complex_canonical(real**2 + imag**2 - modulus_sq) == 0
    assert sp.sign(real) == sp.sign(denominator) != 0
    if triple == TILTED[0]:
        assert [complex_canonical(v - e) for v, e in zip((numerator, denominator, cell), FIRST_TILTED)] == [0, 0, 0]
