import hypothesis.strategies as strat
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from robinsplit.errors import ConfigurationError, SingularSystemError
from robinsplit.linalg import factorize, finalize_csr, gmres

from oracles import eliminate_dirichlet


def test_identity_solve():
    a = sp.eye(5, format="csr")
    b = np.arange(5.0)
    np.testing.assert_allclose(factorize(a).solve(b), b)


def test_hand_elimination_2x2():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = factorize(a).solve(np.array([5.0, 10.0]))
    np.testing.assert_allclose(x, [1.0, 3.0], atol=1e-14)


def test_diagonal_solve():
    d = np.array([2.0, 4.0, 0.5])
    a = sp.diags(d).tocsr()
    b = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(factorize(a).solve(b), 1.0 / d)


def test_zero_matrix_singular():
    a = sp.csr_matrix((3, 3))
    with pytest.raises(SingularSystemError) as info:
        factorize(a)
    assert info.value.pivot_index == 0


@pytest.mark.parametrize(
    "dense, index",
    [
        ([[0.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]], 2),
        ([[1.0, 0.0, 1.0], [1.0, 0.0, 2.0], [3.0, 0.0, 1.0]], 1),
    ],
    ids=["row-before-column", "column"],
)
def test_empty_row_or_column_reports_its_index(dense, index):
    with pytest.raises(SingularSystemError, match="empty row or column") as info:
        factorize(sp.csr_matrix(dense))
    assert info.value.pivot_index == index


def test_rank_deficient_reports_pivot():
    # last row duplicates the first; elimination dies at the final pivot
    dense = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    with pytest.raises(SingularSystemError) as info:
        factorize(sp.csr_matrix(dense))
    assert info.value.pivot_index == 2


def test_nonsquare_rejected():
    with pytest.raises(ConfigurationError):
        factorize(sp.csr_matrix(np.ones((2, 3))))


def test_non_finite_solve_is_singular():
    # SuperLU takes the denormal pivot without complaint; its solve gives inf
    fact = factorize(sp.diags([1.0, 1e-320]))
    with pytest.raises(SingularSystemError):
        fact.solve([1.0, 1.0])


def test_gmres_refuses_rhs_without_finite_norm():
    # each entry is finite, but the norm overflows: scipy's stopping
    # tolerance would then be inf and accept x = 0
    applied = []

    def identity(x):
        applied.append(x)
        return x

    with pytest.raises(SingularSystemError, match="norm inf, not finite"):
        gmres(identity, np.full(4, 1e200), identity)
    assert applied == []


def test_rhs_dimension_mismatch():
    fact = factorize(sp.eye(4, format="csr"))
    with pytest.raises(ValueError):
        fact.solve(np.ones(5))


def test_random_spd_against_dense():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(50, 50))
    a = g @ g.T + 50.0 * np.eye(50)
    b = rng.normal(size=50)
    x_dense = np.linalg.solve(a, b)
    x_sparse = factorize(sp.csr_matrix(a)).solve(b)
    np.testing.assert_allclose(x_sparse, x_dense, atol=1e-10)


def test_solve_residual_bound():
    rng = np.random.default_rng(3)
    a = sp.random(80, 80, density=0.1, format="csr", random_state=5)
    a = a + sp.diags(np.full(80, 80.0))
    b = rng.normal(size=80)
    x = factorize(a).solve(b)
    res = np.max(np.abs(a @ x - b))
    bound = 1e-10 * (
        np.max(np.abs(a.toarray()).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b))
    )
    assert res <= bound


def test_repeated_solves_bitwise_identical():
    rng = np.random.default_rng(2)
    a = sp.csr_matrix(rng.normal(size=(20, 20)) + 20.0 * np.eye(20))
    fact = factorize(a)
    b = rng.normal(size=20)
    x1 = fact.solve(b)
    x2 = fact.solve(b)
    assert np.array_equal(x1, x2)


def test_factorization_determinism_across_instances():
    rng = np.random.default_rng(9)
    dense = rng.normal(size=(30, 30)) + 30.0 * np.eye(30)
    b = rng.normal(size=30)
    x1 = factorize(sp.csr_matrix(dense)).solve(b)
    x2 = factorize(sp.csr_matrix(dense)).solve(b)
    assert np.array_equal(x1, x2)


def test_finalize_csr_canonical_form():
    coo = sp.coo_matrix(
        (np.array([1.0, 2.0, -2.0, 3.0]), (np.array([0, 1, 1, 0]), np.array([1, 0, 0, 1]))),
        shape=(2, 2),
    )
    m = finalize_csr(coo)
    assert m.nnz == 1  # duplicates summed to zero are dropped
    assert m[0, 1] == 4.0


def test_eliminate_dirichlet():
    a = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))
    mask = np.array([True, False, False])
    out = eliminate_dirichlet(a, mask).toarray()
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    np.testing.assert_allclose(out, expected)


def test_block_solve_round_trip():
    # a 2x2 block saddle-ish system, checked against a dense solve
    rng = np.random.default_rng(21)
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    c = rng.normal(size=(6, 3))
    matrix = sp.bmat([[sp.csr_matrix(a), sp.csr_matrix(c)], [-sp.csr_matrix(c.T), sp.eye(3)]])
    rhs = np.concatenate([np.ones(6), np.full(3, 2.0)])
    dense = np.block([[a, c], [-c.T, np.eye(3)]])
    expected = np.linalg.solve(dense, rhs)
    got = factorize(matrix).solve(rhs)
    np.testing.assert_allclose(got, expected, atol=1e-11)


@given(strat.integers(min_value=0, max_value=10_000))
@settings(deadline=None, max_examples=25)
def test_solve_recovers_known_vector(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    g = rng.normal(size=(n, n))
    a = sp.csr_matrix(g @ g.T + n * np.eye(n))
    x = rng.normal(size=n)
    got = factorize(a).solve(a @ x)
    assert np.max(np.abs(got - x)) < 1e-10 * max(1.0, np.max(np.abs(x)))
