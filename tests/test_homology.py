import ast
import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minitri import facetio, fixtures
from minitri.bounds import homology_sphere_verdict
from minitri.cli import main
from minitri.complexes import from_facets
from minitri.errors import CoefficientError, CrossCheckError, DimensionError, NotPseudomanifoldError
from minitri.homology import (
    boundary_matrix,
    cohomology,
    euler_characteristic,
    homology,
    is_homology_sphere,
)

from minitri.snf import SNFResult, SparseMatrix, smith_normal_form

from oracles import profile_per_map, rank_mod_p_naive, random_complex, suspension
from test_complexes import _benchmark_corpus

# the package attribute minitri.homology is the function, not the module
homology_module = importlib.import_module("minitri.homology")
snf_module = importlib.import_module("minitri.snf")


@pytest.mark.parametrize("d", range(1, 7))
def test_boundary_simplex_is_sphere(d):
    prof = homology(fixtures.boundary_simplex(d))
    assert prof.group(0) == (1, ())
    assert prof.group(d) == (1, ())
    for i in range(1, d):
        assert prof.group(i) == (0, ())


@pytest.mark.parametrize("d", range(1, 6))
def test_cross_polytope_is_sphere(d):
    assert homology(fixtures.cross_polytope(d), reduced=True).is_sphere(d)


def test_rp2_integral():
    prof = homology(fixtures.rp2_6())
    assert prof.group(0) == (1, ())
    assert prof.group(1) == (0, (2,))
    assert prof.group(2) == (0, ())
    assert prof.describe(1) == "Z/2"


def test_rp2_mod2():
    prof = homology(fixtures.rp2_6(), coeff="Z2")
    assert [prof.betti(i) for i in range(3)] == [1, 1, 1]


def test_rp2_odd_prime_acyclic():
    prof = homology(fixtures.rp2_6(), coeff="Z3", reduced=True)
    assert prof.is_trivial()


def test_torus():
    prof = homology(fixtures.torus_7())
    assert prof.group(0) == (1, ())
    assert prof.group(1) == (2, ())
    assert prof.group(2) == (1, ())


def test_cp2():
    prof = homology(fixtures.cp2_9())
    assert [prof.group(i) for i in range(5)] == [
        (1, ()),
        (0, ()),
        (1, ()),
        (0, ()),
        (1, ()),
    ]


def test_reduced_vs_unreduced():
    K = fixtures.rp2_6()
    r = homology(K, reduced=True)
    u = homology(K)
    assert r.group(0) == (0, ())
    assert u.group(0) == (1, ())
    for i in range(1, 3):
        assert r.group(i) == u.group(i)


def test_disconnected_h0_counts_components():
    K = from_facets([(1, 2), (3, 4), (5,)])
    assert homology(K).group(0) == (3, ())
    assert homology(K, reduced=True).group(0) == (2, ())


def test_empty_complex_reduced_homology():
    E = fixtures.rp2_6().full_subcomplex(())
    prof = homology(E, reduced=True)
    assert prof.group(-1) == (1, ())


def test_empty_complex_boundary_matrix_at_degree_zero():
    E = fixtures.rp2_6().full_subcomplex(())
    augmented = boundary_matrix(E, 0, reduced=True)
    assert augmented.shape == augmented.matrix.shape == (1, 0)
    assert augmented.row_simplices == ((),)
    assert boundary_matrix(E, 0).matrix.shape == (0, 0)
    with pytest.raises(DimensionError):
        boundary_matrix(E, 1)


def test_boundary_of_boundary_is_zero():
    rng = random.Random(99)
    for _ in range(25):
        K = random_complex(rng)
        for i in range(1, K.dimension):
            A = boundary_matrix(K, i).matrix
            B = boundary_matrix(K, i + 1).matrix
            A = np.array(A.tolist(), dtype=np.int64).reshape(A.shape)
            B = np.array(B.tolist(), dtype=np.int64).reshape(B.shape)
            if A.size and B.size:
                prod = A.astype(object) @ B.astype(object)
                assert not prod.any()


def test_euler_characteristic():
    assert euler_characteristic(fixtures.boundary_simplex(2)) == 2
    assert euler_characteristic(fixtures.boundary_simplex(3)) == 0
    assert euler_characteristic(fixtures.rp2_6()) == 1
    assert euler_characteristic(fixtures.torus_7()) == 0
    assert euler_characteristic(fixtures.cp2_9()) == 3


def test_euler_matches_alternating_betti():
    rng = random.Random(4)
    for _ in range(20):
        K = random_complex(rng)
        prof = homology(K)
        chi = sum((-1) ** i * prof.betti(i) for i in range(K.dimension + 1))
        assert chi == euler_characteristic(K)


@pytest.mark.parametrize("d", [7, 8])
def test_wide_cross_polytope_is_sphere(d):
    # boundary maps up to 4032 x 5376 for d = 8, before clearing
    K = fixtures.cross_polytope(d)
    assert homology(K, reduced=True).is_sphere(d)
    if d == 7:
        assert cohomology(K, reduced=True).is_sphere(d)
    # each pruned matrix is dropped once reduced; only the reductions stay
    assert not any(isinstance(v, SparseMatrix) for v in K._cache.values())


def test_reductions_memoized_once_per_map(monkeypatch):
    # Homology reduces top-down: each map loses the columns that are unit
    # pivot rows of the map above it, so d_i is reduced as f_{i-1} x
    # (f_i - r_{i+1}).  The top map of a closed pseudomanifold is read off
    # its dual spanning tree, with no SNF call.  Cohomology reduces its
    # transposed maps bottom-up with its own pivots, so d_i^T is reduced as
    # f_i x (f_{i-1} - r_{i-1}).  Reduced profiles are read off the
    # unreduced ones: no augmented map.
    shapes = []
    real = homology_module.smith_normal_form

    def counting(M):
        shapes.append(M.shape)
        return real(M)

    monkeypatch.setattr(homology_module, "smith_normal_form", counting)
    K = fixtures.cross_polytope(3)
    f = K.f_vector()
    # a 3-sphere: every rank is reached by unit pivots alone
    r = {4: 0, 3: f[3] - 1}
    for i in (2, 1):
        r[i] = f[i] - r[i + 1]
    assert f[0] - r[1] == 1
    homology(K)
    assert shapes == [(f[i - 1], f[i] - r[i + 1]) for i in (2, 1)]
    assert homology_module._reduction(K, 3).shape == (f[2], f[3])
    assert homology(K, reduced=True).is_sphere(3)
    assert homology(K, "Z2", reduced=True).is_sphere(3)
    assert shapes[2:] == []
    del shapes[:]
    cohomology(K)
    assert cohomology(K, reduced=True).is_sphere(3)
    assert shapes == [(f[1], f[0]), (f[2], f[1] - r[1]), (f[3], f[2] - r[2])]
    # a three-page book has a ridge in three facets, so its top map goes
    # through SNF like the others
    del shapes[:]
    homology(from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)]))
    assert shapes == [(7, 3), (5, 4)]


def _closed_pseudomanifolds():
    rp2 = fixtures.rp2_6()
    cross = fixtures.cross_polytope(5)
    inputs = [
        fixtures.boundary_simplex(1),
        fixtures.boundary_simplex(4),
        fixtures.cross_polytope(2),
        fixtures.cross_polytope(4),
        fixtures.cyclic_polytope(8, 4),
        rp2,
        fixtures.torus_7(),
        fixtures.cp2_9(),
        # Sigma^4 RP^2, as the join with a 3-sphere, and RP^2 * RP^2
        rp2.join(from_facets([tuple(v + 100 for v in f) for f in fixtures.cross_polytope(3).facets])),
        rp2.join(from_facets([tuple(v + 10 for v in f) for f in rp2.facets])),
    ]
    inputs += [K for seed in (1, 2, 3) for K in _benchmark_corpus(seed)]
    inputs += [cross.link(s) for i in range(cross.dimension - 1) for s in cross.faces(i)]
    return inputs


def test_top_map_of_closed_pseudomanifold_read_off_spanning_tree(monkeypatch):
    # d_d of a closed pseudomanifold is the signed incidence matrix of its
    # dual graph: f_d - 1 unit factors, and a 2 when it is non-orientable.
    def no_snf(M):
        raise AssertionError(f"top map reduced by SNF, shape {M.shape}")

    monkeypatch.setattr(homology_module, "smith_normal_form", no_snf)
    twos = []
    for K in _closed_pseudomanifolds():
        d = K.dimension
        assert K.is_closed_pseudomanifold().is_closed_pseudomanifold
        got = homology_module._reduce(K, d, False)
        full = boundary_matrix(K, d).matrix
        assert got == smith_normal_form(full), K.facets
        # the tree ridges are f_d - 1 rows whose block has det +-1 on f_d - 1
        # columns: the unit pivots that clearing needs
        rows = sorted(got.pivot_rows)
        assert len(rows) == full.shape[1] - 1
        block = SparseMatrix((len(rows), full.shape[1]), {k: full.rows[r] for k, r in enumerate(rows)})
        assert smith_normal_form(block).invariant_factors == (1,) * len(rows), K.facets
        assert K.is_orientable() == (2 not in got.invariant_factors)
        twos.append(2 in got.invariant_factors)
    assert twos.count(True) >= 20 and twos.count(False) >= 400


def test_top_map_of_other_complexes_goes_through_snf(monkeypatch):
    # Only closed pseudomanifolds take the spanning-tree shortcut; the
    # elimination handles the rest.
    shapes = []
    real = homology_module.smith_normal_form

    def counting(M):
        shapes.append(M.shape)
        return real(M)

    monkeypatch.setattr(homology_module, "smith_normal_form", counting)
    sphere = fixtures.boundary_simplex(2).facets  # on vertices 0..3
    inputs = [
        from_facets(list(sphere) + [tuple(v + 3 for v in f) for f in sphere]),  # pinched at 3
        from_facets(list(sphere) + [tuple(v + 10 for v in f) for f in sphere]),  # disjoint
        from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)]),  # a three-page book
        from_facets([(1, 2, 3), (1, 3, 4), (1, 4, 5)]),  # a disk
    ]
    for K in inputs:
        d = K.dimension
        with pytest.raises(NotPseudomanifoldError):
            K.is_orientable()
        del shapes[:]
        got = homology_module._reduce(K, d, False)
        full = boundary_matrix(K, d).matrix
        assert shapes == [full.shape]
        assert got == smith_normal_form(full), K.facets
        assert homology(K).groups == profile_per_map(K), K.facets


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=10,
    ),
)
def test_pruning_by_neighbour_pivots_keeps_invariant_factors(facets):
    # Columns that are unit pivot rows of the neighbouring map are integer
    # combinations of the other columns, so dropping them changes nothing.
    K = from_facets(facets)
    for i in range(1, K.dimension + 1):
        full = boundary_matrix(K, i).matrix
        if i < K.dimension:
            above = smith_normal_form(boundary_matrix(K, i + 1).matrix)
            pruned = homology_module._build_boundary(K, i, above.pivot_rows)
            assert pruned.shape[1] == full.shape[1] - len(above.pivot_rows)
            got = smith_normal_form(pruned).invariant_factors
            assert got == smith_normal_form(full).invariant_factors, (facets, i)
        if i >= 2:
            below = smith_normal_form(boundary_matrix(K, i - 1).matrix.transpose())
            pruned = homology_module._build_boundary(K, i, below.pivot_rows, clear_rows=True)
            assert pruned.shape[0] == full.shape[0] - len(below.pivot_rows)
            got = smith_normal_form(pruned.transpose()).invariant_factors
            assert got == smith_normal_form(full.transpose()).invariant_factors, (facets, i)


def _clearing_complexes():
    rng = random.Random(2011)
    out = []
    for n in range(40):
        K = random_complex(rng)
        if n % 4 == 0:  # non-pure, with an isolated vertex
            K = from_facets(K.facets + ((50,),))
        out += [K, suspension(K, 101, 102)]
    K = fixtures.rp2_6()
    for k in range(5):
        out.append(K)  # Sigma^k RP^2
        K = suspension(K, 200 + 2 * k, 201 + 2 * k)
    facets = fixtures.rp2_6().facets
    out.append(from_facets([tuple(10 * c + v for v in F) for c in range(200) for F in facets]))
    out.append(fixtures.rp2_6().full_subcomplex(()))
    out += [from_facets([(1,)]), from_facets([(1,), (2,), (3,)])]
    return out


def test_clearing_matches_per_map_oracle():
    for K in _clearing_complexes():
        for reduced in (False, True):
            for coeff in ("Z", "Z2", "Z3"):
                for fn in (homology, cohomology):
                    expected = profile_per_map(K, coeff, reduced, fn.__name__)
                    assert fn(K, coeff, reduced).groups == expected, (K.facets, coeff, reduced, fn.__name__)


def _drop_one_rank(monkeypatch):
    """Make the degree-1 coboundary SNF report one invariant factor too few."""
    real = homology_module._reduction

    def broken(K, i, transposed=False):
        res = real(K, i, transposed)
        if transposed and i == 1:
            return SNFResult(res.shape, res.invariant_factors[1:], res.pivot_rows)
        return res

    monkeypatch.setattr(homology_module, "_reduction", broken)


def test_cohomology_cross_check_raises(monkeypatch, tmp_path):
    _drop_one_rank(monkeypatch)
    with pytest.raises(CrossCheckError, match="universal coefficients"):
        cohomology(fixtures.torus_7())
    # reduced profiles are read only off an unreduced profile that passed
    for coeff in ("Z", "Z2"):
        with pytest.raises(CrossCheckError, match="universal coefficients"):
            cohomology(fixtures.torus_7(), coeff, reduced=True)
    # the duality check reads cohomology; the CLI turns the failure into exit 2
    path = tmp_path / "c94.facets"
    facetio.dump(fixtures.cyclic_polytope(9, 4), path)
    assert main(["verify-duality", str(path), "--vertices", "1,2,3,4"]) == 2


_OPTIMIZED_SCRIPT = """
import sys
import pytest
from minitri import fixtures
from minitri.errors import CrossCheckError
from minitri.homology import cohomology
from test_homology import _drop_one_rank

with pytest.MonkeyPatch.context() as mp:
    _drop_one_rank(mp)
    try:
        cohomology(fixtures.torus_7())
    except CrossCheckError:
        pass
    else:
        sys.exit("cohomology did not raise")
assert False, "asserts are stripped under -O"
"""


def test_cross_checks_survive_optimized_mode():
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_library_has_no_assert_statements():
    # python -O strips asserts, so checks in the library must raise instead
    src = Path(__file__).parent.parent / "src" / "minitri"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_unused_imports():
    # __init__.py imports to re-export; __future__ imports switch on features
    src = Path(__file__).parent.parent / "src" / "minitri"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_suspension_shifts_reduced_homology():
    K = fixtures.rp2_6()
    S = suspension(K, 90, 91)
    a = homology(K, reduced=True)
    b = homology(S, reduced=True)
    for i in range(-1, K.dimension + 1):
        assert a.group(i) == b.group(i + 1)


def test_cohomology_uct_on_fixtures():
    # free parts match homology; torsion shifts up one degree
    for K in (
        fixtures.rp2_6(),
        fixtures.torus_7(),
        fixtures.cp2_9(),
        fixtures.boundary_simplex(3),
    ):
        h = homology(K)
        c = cohomology(K)
        for i in range(K.dimension + 1):
            assert c.betti(i) == h.betti(i)
            assert c.torsion(i) == h.torsion(i - 1)


def _field_complexes():
    rng = random.Random(606)
    out = []
    for _ in range(8):
        K = random_complex(rng)
        out += [K, suspension(K, 101, 102)]
    K = fixtures.rp2_6()
    for k in range(4):
        out.append(K)  # Sigma^k RP^2: Z/2 in degree k + 1
        K = suspension(K, 200 + 2 * k, 201 + 2 * k)
    return out + [fixtures.cp2_9()]


def test_field_profiles_match_oracle_ranks():
    # b_i = f_i - r_i - r_{i+1} with F_p ranks of the boundary maps from the
    # dense oracle, against profiles derived by universal coefficients
    for K in _field_complexes():
        dim = K.dimension
        f = {-1: 1, **dict(enumerate(K.f_vector()))}
        for p in (2, 3, 5, 7):
            r = {i: rank_mod_p_naive(boundary_matrix(K, i).matrix.tolist(), p) for i in range(1, dim + 1)}
            for reduced in (False, True):
                r[0] = rank_mod_p_naive(boundary_matrix(K, 0, reduced).matrix.tolist(), p)
                lo = -1 if reduced else 0
                expected = [(i, f[i] - r.get(i, 0) - r.get(i + 1, 0), ()) for i in range(lo, dim + 1)]
                expected = tuple(g for g in expected if g[1])
                for fn in (homology, cohomology):
                    assert fn(K, f"Z{p}", reduced).groups == expected, (fn.__name__, K.facets, p, reduced)


def test_field_profiles_run_no_elimination(monkeypatch):
    # once the Z profiles are memoized, every Z_p profile is read off them
    calls = []
    real = snf_module._eliminate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(snf_module, "_eliminate", counting)
    K = suspension(fixtures.rp2_6(), 7, 8)
    homology(K)
    cohomology(K)
    assert calls
    calls.clear()
    for coeff in ("Z2", "Z3", "Z5"):
        homology(K, coeff)
        cohomology(K, coeff)
    assert calls == []
    # the sphere reports analyze makes after its reduced Z homology
    K = fixtures.cyclic_polytope(9, 4)
    homology(K, reduced=True)
    calls.clear()
    for coeff in ("Z2", "Z3", "Z5"):
        assert homology_sphere_verdict(K, coeff).details["homology_sphere"]
    assert calls == []


def test_cohomology_mod_p_symmetric():
    # field coefficients: cohomology betti equals homology betti
    K = fixtures.rp2_6()
    h = homology(K, coeff="Z2")
    c = cohomology(K, coeff="Z2")
    for i in range(3):
        assert h.betti(i) == c.betti(i)


def test_is_homology_sphere():
    assert is_homology_sphere(fixtures.boundary_simplex(3))
    assert is_homology_sphere(fixtures.cross_polytope(4))
    assert not is_homology_sphere(fixtures.rp2_6())
    assert not is_homology_sphere(fixtures.torus_7())
    assert not is_homology_sphere(fixtures.cp2_9())
    # RP2 becomes acyclic, not spherical, away from 2
    assert not is_homology_sphere(fixtures.rp2_6(), coeff="Z3")
    # the dimension is read off K, so a second positional argument is the coefficient ring
    with pytest.raises(CoefficientError):
        is_homology_sphere(fixtures.boundary_simplex(3), 3)


def test_coefficient_validation():
    with pytest.raises(CoefficientError):
        homology(fixtures.rp2_6(), coeff="Z4")
    with pytest.raises(CoefficientError):
        homology(fixtures.rp2_6(), coeff="Q")


def test_profiles_describe_and_serialize():
    prof = homology(fixtures.rp2_6())
    d = prof.as_dict()
    assert d["coefficients"] == "Z"
    assert prof.describe(0) == "Z"
    assert prof.describe(2) == "0"


def test_homology_invariant_under_relabeling():
    K = fixtures.torus_7()
    L = from_facets([tuple(v + 100 for v in f) for f in K.facets])
    assert homology(K).as_dict() == homology(L).as_dict()
