"""``kd_joint`` against an oracle that shares none of numpy's arithmetic: mpmath at 50 digits.

The oracle reads each input as given, as exact binary floats, and computes the joint table
``<b|m><m|a><a|b>`` and its row and column sums from them at 50 digits. Its error is far below
one float ulp, so the difference measures the float kernel's rounding alone. Each test states its
bound, with ``u = 2**-53`` the unit roundoff:

- A table entry is a product of three complex dot products of length d over vectors of norm 1
  (up to a few u). Each dot product is off by at most ``gamma_(d+2) ~ (d + 2) u`` (Higham,
  *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.6), and each of the two
  complex products adds at most ``sqrt(2) gamma_2 < 3 u``. An entry is therefore off by at most
  ``(3d + 12) u``; the bound below allows ``(3d + 16) u``, which leaves 4 u for second-order terms
  and for the norms.
- A marginal sums d entries whose moduli add up to at most 1, so it is off by at most d times the
  entry bound plus ``d u`` of summation error. The clip to [0, 1] moves no value farther from the
  equally clipped oracle value.
"""

import numpy as np
import pytest

from helpers import haar_basis, random_state
from kdqlab import SCENARIO_NAMES, build, kd_joint

mpmath = pytest.importorskip("mpmath")

U = 2.0**-53
DIGITS = 50


def entry_bound(dim):
    return (3 * dim + 16) * U


def marginal_bound(dim):
    return dim * entry_bound(dim) + dim * U


def oracle(dist):
    """The exact table of ``dist``'s inputs to 50 digits, with its real row and column sums clipped to [0, 1]."""
    with mpmath.workdps(DIGITS):
        a = [mpmath.mpc(complex(z)) for z in dist.state_a.amp]
        m = [[mpmath.mpc(complex(z)) for z in row] for row in dist.basis_m.matrix]
        b = [[mpmath.mpc(complex(z)) for z in row] for row in dist.basis_b.matrix]

        def braket(u, v):
            return mpmath.fsum(mpmath.conj(x) * y for x, y in zip(u, v))

        ma = [braket(row, a) for row in m]
        ab = [braket(a, row) for row in b]
        table = [[braket(bj, mi) * ma[i] * ab[j] for j, bj in enumerate(b)] for i, mi in enumerate(m)]
        rows = [mpmath.fsum(row).real for row in table]
        cols = [mpmath.fsum(col).real for col in zip(*table)]
        return table, [min(max(p, 0), 1) for p in rows], [min(max(p, 0), 1) for p in cols]


def max_errors(dist):
    """The largest error of ``dist``'s table entries and of its marginals against the oracle."""
    table, prob_m, prob_b = oracle(dist)
    with mpmath.workdps(DIGITS):
        exact = [t for row in table for t in row]
        entries = max(abs(mpmath.mpc(z) - t) for z, t in zip(dist.table.ravel().tolist(), exact))
        got = [*dist.prob_m.tolist(), *dist.prob_b.tolist()]
        marginals = max(abs(mpmath.mpf(p) - q) for p, q in zip(got, prob_m + prob_b))
        return float(entries), float(marginals)


def assert_within_bounds(dist):
    entries, marginals = max_errors(dist)
    assert entries <= entry_bound(dist.dim)
    assert marginals <= marginal_bound(dist.dim)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_tables_against_the_oracle(name):
    assert_within_bounds(build(name).kd)


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("seed", range(4))
def test_haar_tables_against_the_oracle(dim, seed):
    rng = np.random.default_rng(1000 * dim + seed)
    assert_within_bounds(kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b")))


def test_the_oracle_sees_a_moved_entry():
    # the comparison is live: an entry moved by 1e-14, above the bound, shows as an error of that size
    dist = build("three-box").kd
    table = dist.table.copy()
    table[0, 0] += 1e-14
    entries, _ = max_errors(type(dist)(dist.state_a, dist.basis_m, dist.basis_b, table))
    assert abs(entries - 1e-14) <= entry_bound(dist.dim)
