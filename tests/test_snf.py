import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minitri import fixtures
from minitri.errors import CoefficientError, HypothesisError
from minitri.complexes import from_facets
from minitri.homology import boundary_matrix, homology
from minitri.pi1 import GroupPresentation, abelianization
from minitri.snf import (
    SparseMatrix,
    is_prime,
    rank_mod_p,
    smith_normal_form,
)

from oracles import (
    determinantal_divisor_factors,
    random_complex,
    random_matrix,
    rank_mod_p_naive,
    snf_invariant_factors_naive,
    suspension,
)


def test_known_small_forms():
    assert smith_normal_form([[0]]).invariant_factors == ()
    assert smith_normal_form([[5]]).invariant_factors == (5,)
    assert smith_normal_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)
    assert smith_normal_form([[2, 4], [4, 8]]).invariant_factors == (2,)
    assert smith_normal_form([[1, 0], [0, 0]]).invariant_factors == (1,)
    # classic: diag(2,6) stays, diag(4,6) does not
    assert smith_normal_form([[4, 0], [0, 6]]).invariant_factors == (2, 12)
    # the first residual pivot, 4, leaves a remainder 2 in its row, which
    # must be pivoted on in a later step
    assert smith_normal_form([[6, 4], [5, 4]]).invariant_factors == (1, 4)


def test_empty_shapes():
    assert smith_normal_form([]).invariant_factors == ()
    res = smith_normal_form(np.zeros((0, 4), dtype=np.int64))
    assert res.shape == (0, 4) and res.rank == 0


def test_oracle_agreement_seeded():
    rng = random.Random(20240817)
    for _ in range(150):
        M = random_matrix(rng)
        got = smith_normal_form(M).invariant_factors
        assert got == snf_invariant_factors_naive(M), M


def test_determinantal_divisors_small():
    rng = random.Random(5)
    for _ in range(60):
        M = random_matrix(rng, max_dim=5, lo=-6, hi=6)
        assert smith_normal_form(M).invariant_factors == determinantal_divisor_factors(M), M


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_oracle_agreement_property(rows):
    assert (
        smith_normal_form(rows).invariant_factors
        == snf_invariant_factors_naive(rows)
    )


def test_divisibility_chain():
    rng = random.Random(11)
    for _ in range(80):
        M = random_matrix(rng)
        f = smith_normal_form(M).invariant_factors
        assert all(x > 0 for x in f)
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1)), f


def test_python_fallback_handles_huge_entries():
    # entries beyond the int64 comfort zone go straight to exact python
    big = 2**40
    M = [[big, big - 1], [big + 3, 2 * big]]
    got = smith_normal_form(M).invariant_factors
    assert got == snf_invariant_factors_naive(M)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 2, -2, 3, -3, 4, -4, 6, -6)), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        )
    )
)
def test_residual_without_unit_entries_matches_oracles(rows):
    # No entry is +-1, so the unit pivots find nothing and the whole
    # matrix goes through the Euclid residual and the gcd/lcm read-off.
    got = smith_normal_form(rows).invariant_factors
    assert got == snf_invariant_factors_naive(rows)
    assert got == determinantal_divisor_factors(rows)


def test_many_torsion_factors_from_disjoint_rp2():
    facets = fixtures.rp2_6().facets
    K = from_facets([tuple(10 * c + v for v in F) for c in range(200) for F in facets])
    h1 = homology(K).group(1)
    assert h1 == (0, (2,) * 200)


def test_many_torsion_factors_from_abelianization():
    P = GroupPresentation(400, tuple((i, i) for i in range(1, 401)))
    ab = abelianization(P)
    assert ab.rank == 0 and ab.torsion == (2,) * 400
    # a_i^2 a_{i+1}^2 (i < n) and a_n^3: the residual diagonal 2, ..., 2, 3 is
    # no divisibility chain; the factors are 1, then 2 (n - 2 times), then 6
    n = 400
    P = GroupPresentation(n, tuple((i, i, i + 1, i + 1) for i in range(1, n)) + ((n, n, n),))
    ab = abelianization(P)
    assert ab.rank == 0 and ab.torsion == (2,) * (n - 2) + (6,)


def _lone_entry_matrices(rng, n):
    """Seeded matrices with many entries alone in their row and column.

    Diagonal ones, block-diagonal ones with small dense blocks, and plain
    random ones, all with shuffled rows and columns.
    """
    out = []
    for k in range(n):
        if k % 3 == 0:
            blocks = [[[rng.choice((0, 1, -1, 2, -2, 3, 4, -6, 12))]] for _ in range(rng.randint(1, 6))]
        elif k % 3 == 1:
            blocks = [random_matrix(rng, max_dim=2, lo=-6, hi=6) for _ in range(rng.randint(1, 3))]
        else:
            blocks = [random_matrix(rng, max_dim=5, lo=-6, hi=6)]
        width = sum(len(b[0]) for b in blocks)
        M, left = [], 0
        for b in blocks:
            M += [[0] * left + row + [0] * (width - left - len(row)) for row in b]
            left += len(b[0])
        rng.shuffle(M)
        cols = rng.sample(range(width), width)
        out.append([[row[j] for j in cols] for row in M])
    return out


def test_lone_entries_and_divided_diagonals_match_oracles():
    # Entries alone in their row and column are recorded before the
    # Euclid residual, and a sorted diagonal that divides up skips the
    # gcd/lcm pass; neither may change the invariant factors.
    for M in _lone_entry_matrices(random.Random(1600), 240):
        got = smith_normal_form(M).invariant_factors
        assert got == snf_invariant_factors_naive(M), M
        assert got == determinantal_divisor_factors(M), M


def _boundary_matrices(K):
    return [boundary_matrix(K, i).matrix for i in range(1, K.dimension + 1)]


def _oracle_complexes():
    rng = random.Random(1801)
    out = []
    for _ in range(12):
        K = random_complex(rng)
        out += [K, suspension(K, 101, 102)]
    rp2 = fixtures.rp2_6()
    for k in range(1, 3):
        rp2 = suspension(rp2, 100 + 2 * k, 101 + 2 * k)
        out.append(rp2)
    return out


def test_sparse_engine_matches_oracle_on_boundary_matrices():
    torsion = []
    for K in _oracle_complexes():
        for M in _boundary_matrices(K):
            got = smith_normal_form(M)
            assert got.shape == M.shape
            assert got.invariant_factors == snf_invariant_factors_naive(M.tolist()), K.facets
            torsion += got.torsion_factors
    # the suspended RP^2 torsion has no unit pivot; the residual reduction finds it
    assert torsion.count(2) == 2


def test_rank_mod_p_matches_snf_rank_on_boundary_matrices():
    # rank_mod_p counts invariant factors; the oracle eliminates over F_p
    for K in _oracle_complexes():
        for M in _boundary_matrices(K):
            for p in (2, 3, 5):
                assert rank_mod_p(M, p) == rank_mod_p_naive(M.tolist(), p), (K.facets, p)


def test_sparse_matrix_input_matches_dense_input():
    rng = random.Random(17)
    for _ in range(60):
        M = random_matrix(rng, max_dim=7, lo=-5, hi=5)
        rows = {i: {j: v for j, v in enumerate(r) if v} for i, r in enumerate(M)}
        S = SparseMatrix((len(M), len(M[0])), rows)
        assert S.tolist() == M
        assert smith_normal_form(S).invariant_factors == smith_normal_form(M).invariant_factors
        assert smith_normal_form(S.transpose()).invariant_factors == smith_normal_form(M).invariant_factors


def test_ragged_rows_refused():
    with pytest.raises(HypothesisError):
        smith_normal_form([[1, 0], [1]])


def test_rank_mod_p():
    M = [[2, 0], [0, 3]]
    assert rank_mod_p(M, 5) == 2
    assert rank_mod_p(M, 2) == 1
    assert rank_mod_p(M, 3) == 1
    with pytest.raises(CoefficientError):
        rank_mod_p(M, 4)


def test_rank_mod_p_matches_snf_away_from_torsion():
    rng = random.Random(41)
    for _ in range(50):
        M = random_matrix(rng, max_dim=6)
        f = smith_normal_form(M).invariant_factors
        for p in (2, 3, 5, 7):
            expected = sum(1 for d in f if d % p != 0)
            assert rank_mod_p(M, p) == expected == rank_mod_p_naive(M, p)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)
