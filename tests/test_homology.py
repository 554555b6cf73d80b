import ast
import importlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minitri import facetio, fixtures
from minitri.bounds import homology_sphere_verdict
from minitri.cli import main
from minitri.complexes import SimplicialComplex, _dual_forest, _faces, from_facets
from minitri.errors import CoefficientError, CrossCheckError, DimensionError, NotPseudomanifoldError
from minitri.homology import (
    boundary_matrix,
    cohomology,
    euler_characteristic,
    homology,
    is_homology_sphere,
)

from minitri.snf import SparseMatrix, smith_normal_form

from oracles import profile_per_map, rank_mod_p_naive, random_complex, suspension
from test_combinatorial import _relabelled
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
    # Homology reduces the maps of the pair (K, B) top-down: each map
    # loses the columns that are unit pivot rows of the map above it.  The
    # top map is read off the forest of the outside facets when every
    # outside ridge lies in two of them, with no SNF call.  Cohomology
    # reduces K's transposed maps bottom-up with its own pivots, so d_i^T
    # is reduced as f_i x (f_{i-1} - r_{i-1}).  Reduced profiles are read
    # off the unreduced ones: no augmented map.
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
    # B starts as the star of id 0, whose link is the octahedron on the six
    # vertices other than 0 and its antipode a.  The other eight facets are
    # a * t, t picking one vertex from each of the octahedron's three
    # antipodal pairs; in id order t runs through the picks as a binary
    # count, the lower id of each pair first.  The ridge a * (t - w) is
    # already in B just when w is the higher id of its pair, as the facet
    # with the lower one came first.  So X is a plus t's higher picks, which
    # lie in no earlier facet: every facet joins but the last, whose X has
    # all 4 vertices.  Its proper faces all lie in other facets, hence in
    # B, so the pair has one outside face, in degree 3.  The forest has no
    # ridge, and d_2 and d_1 are empty maps.
    rest, _ = homology_module._attach(K)
    assert len(rest) == 1 and _pair_faces(K)(2) == []
    homology(K)
    assert shapes == [(0, 0), (0, 0)]
    assert homology(K, reduced=True).is_sphere(3)
    assert homology(K, "Z2", reduced=True).is_sphere(3)
    assert shapes[2:] == []
    del shapes[:]
    cohomology(K)
    assert cohomology(K, reduced=True).is_sphere(3)
    assert shapes == [(f[1], f[0]), (f[2], f[1] - r[1]), (f[3], f[2] - r[2])]
    # a three-page book is the cone from vertex 1, whose star holds every
    # face: the top map has no column, so the forest reads it, and only
    # the empty d_1 goes through SNF
    del shapes[:]
    homology(from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)]))
    assert shapes == [(0, 0)]
    # with the triangle 3 4 5 added, B is still the star of 1 (the pages):
    # no edge of 3 4 5 is in it, so 3 4 5 joins nothing.  Its three edges
    # lie in one outside facet each, so the top map (3 x 1) goes through
    # SNF, and its one unit pivot clears an edge from the 0 x 3 map below.
    del shapes[:]
    homology(from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)]))
    assert shapes == [(3, 1), (0, 2)]


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


def _fixtures():
    """Every fixture family, the ladder's polytopal spheres up to d = 7 included."""
    return (
        [fixtures.boundary_simplex(d) for d in range(1, 7)]
        + [fixtures.cross_polytope(d) for d in range(2, 8)]
        + [fixtures.cyclic_polytope(9, 4), fixtures.cyclic_polytope(16, 6)]
        + [fixtures.rp2_6(), fixtures.torus_7(), fixtures.cp2_9()]
    )


def _pair_faces(K):
    """Faces of the pair (K, B) for the B that homology grows, as a function of the degree."""
    rest, inside = homology_module._attach(K)
    return lambda i: [s for s in _faces(rest, i) if s not in inside]


def _recording_builds(monkeypatch):
    """The column lists of every boundary matrix homology builds from now on."""
    built = []
    real = homology_module._build_boundary

    def recording(rows, cols):
        built.append(cols)
        return real(rows, cols)

    monkeypatch.setattr(homology_module, "_build_boundary", recording)
    return built


def test_top_map_of_closed_pseudomanifold_read_off_spanning_tree(monkeypatch):
    # In a closed pseudomanifold an outside ridge lies in two facets, and
    # both are outside B, since a facet of B would put the ridge in B.  So
    # the relative d_d is the signed incidence matrix of the graph of
    # outside facets and outside ridges: a unit factor per forest ridge,
    # and a 2 when K is non-orientable.  homology never builds it.
    built = _recording_builds(monkeypatch)
    twos = []
    for K in _closed_pseudomanifolds():
        d = K.dimension
        assert K.is_closed_pseudomanifold().is_closed_pseudomanifold
        del built[:]
        homology(from_facets(K.facets))
        assert all(len(s) < d + 1 for cols in built for s in cols), K.facets
        faces = _pair_faces(K)
        rows, cols = faces(d - 1), faces(d)
        paired, tree, odd = _dual_forest(cols, d, homology_module._attach(K)[1])
        assert paired, K.facets
        got = (1,) * len(tree) + (2,) * odd
        full = homology_module._build_boundary(rows, cols)
        assert got == smith_normal_form(full).invariant_factors, K.facets
        # the forest ridges are rows whose block has a nonzero maximal minor
        # of gcd 1: the unit pivots that clearing needs
        index = {s: r for r, s in enumerate(rows)}
        block = SparseMatrix((len(tree), len(cols)), {k: full.rows[index[s]] for k, s in enumerate(tree)})
        assert smith_normal_form(block).invariant_factors == (1,) * len(tree), K.facets
        assert got.count(2) == (not K.is_orientable()), K.facets
        twos.append(2 in got)
    assert twos.count(True) >= 20 and twos.count(False) >= 400


def test_top_map_takes_the_forest_by_the_local_rule(monkeypatch):
    # The forest reads the top map whenever every outside ridge of an
    # outside facet lies in exactly two of them, whether or not K is a
    # closed pseudomanifold; an outside (d-1)-face in no outside facet is
    # a zero row.  An outside ridge in one or three outside facets sends
    # the top map through SNF, as the first map eliminated.
    shapes = []
    real = homology_module.smith_normal_form

    def counting(M):
        shapes.append(M.shape)
        return real(M)

    monkeypatch.setattr(homology_module, "smith_normal_form", counting)
    built = _recording_builds(monkeypatch)
    sphere = fixtures.boundary_simplex(2).facets  # on vertices 0..3
    forest = [
        from_facets(list(sphere) + [tuple(v + 3 for v in f) for f in sphere]),  # pinched at 3
        from_facets(list(sphere) + [tuple(v + 10 for v in f) for f in sphere]),  # disjoint
        from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)]),  # a three-page book, a cone
        from_facets([(1, 2, 3), (1, 3, 4), (1, 4, 5)]),  # a disk, a cone
        from_facets(list(sphere) + [(5, 6)]),  # a free edge, in no triangle: a zero row
    ]
    # In both, B is the star of vertex 0, and the sphere's triangle 1 2 3
    # has every edge in B.  A free triangle has three edges in one outside
    # facet each: the 3 x 2 top map has rank 1 and leaves 3 - 1 edges on
    # the three outside vertices.  A three-page book's spine lies in three
    # outside facets: the 7 x 4 top map (the spine and six free edges, the
    # sphere's triangle and the pages) has rank 3, and 7 - 3 edges remain
    # on the book's five vertices.
    through_snf = [
        (from_facets(list(sphere) + [(5, 6, 7)]), [(3, 2), (3, 2)]),
        (from_facets(list(sphere) + [(11, 12, 13), (11, 12, 14), (11, 12, 15)]), [(7, 4), (5, 4)]),
    ]
    for K, expected in [(K, None) for K in forest] + through_snf:
        d = K.dimension
        with pytest.raises(NotPseudomanifoldError):
            K.is_orientable()
        expected_groups = profile_per_map(K)
        del shapes[:], built[:]
        assert homology(from_facets(K.facets)).groups == expected_groups, K.facets
        top_built = [cols for cols in built if any(len(s) == d + 1 for s in cols)]
        if expected is None:
            assert top_built == [], K.facets
        else:
            faces = _pair_faces(K)
            assert top_built == [faces(d)]
            assert shapes == expected == [(len(faces(d - 1)), len(faces(d))), expected[1]], K.facets


def _random_inputs(rng, n=2000):
    """Seeded small complexes, with points, disjoint unions and non-pure ones among them."""
    out = []
    for k in range(n):
        K = random_complex(rng)
        if k % 10 == 0:
            K = from_facets([(v,) for v in range(rng.randint(1, 5))])
        elif k % 10 == 1:
            L = random_complex(rng)
            K = from_facets(K.facets + tuple(tuple(v + 20 for v in f) for f in L.facets))
        out.append(K)
    assert sum(K.dimension == 0 for K in out) >= n // 10
    assert sum(not K.is_connected() for K in out) >= n // 10
    assert sum(len({len(f) for f in K.facets}) > 1 for K in out) >= n // 4
    return out


def test_pair_homology_matches_per_map_oracle():
    # H_*(K, B) plus one free Z in degree 0 is H_*(K); the oracle reduces
    # K's own maps, each in full, so it shares no face list with the pair.
    # Cohomology reduces K's own maps and is checked against homology.
    rng = random.Random(26)
    corpus = [K for seed in (1, 2, 3, 4) for K in _benchmark_corpus(seed)]
    for K in _fixtures() + corpus + _random_inputs(rng):
        L = _relabelled(K, rng)
        for kind in (homology, cohomology):
            for coeff in ("Z", "Z2", "Z3", "Z5"):
                expected = profile_per_map(K, coeff, kind=kind.__name__)
                assert kind(K, coeff).groups == expected, (K.facets, coeff, kind.__name__)
                assert kind(L, coeff).groups == expected, (L.facets, coeff, kind.__name__)


def test_homology_never_walks_the_ridges_of_k(monkeypatch):
    # The forest shortcut is decided by the walk over the outside facets
    # alone, so homology needs no closed-pseudomanifold report of K.
    inputs = [from_facets(K.facets) for K in _fixtures() + _closed_pseudomanifolds()]

    def no_walk(self):
        raise AssertionError("homology walked the ridges of K")

    monkeypatch.setattr(SimplicialComplex, "_ridge_walk", no_walk)
    for K in inputs:
        for coeff in ("Z", "Z2"):
            homology(K, coeff, reduced=True)


def test_attached_subcomplex_is_contractible():
    # B grows from a cone, and each facet it takes meets it in a cone on a
    # vertex, so B has trivial reduced homology; the oracle reduces B's own
    # maps in full.  The set homology keeps holds exactly B's faces without
    # the star vertex, the only ones ever looked up.
    corpus = [K for seed in (1, 2, 3) for K in _benchmark_corpus(seed)]
    inputs = _fixtures() + corpus + _random_inputs(random.Random(26))
    grew = 0
    for K in inputs:
        v = homology_module._star_vertex(K)
        rest, inside = homology_module._attach(K)
        attached = [f for f in K._id_facets if f not in set(rest)]
        assert all(f in attached for f in K._id_facets if v in f), K.facets
        grew += len(attached) > sum(v in f for f in K._id_facets)
        faces = {s for f in attached for k in range(1, len(f) + 1) for s in combinations(f, k)}
        assert inside == {s for s in faces if v not in s}, K.facets
        B = from_facets([K._to_labels(f) for f in attached])
        assert profile_per_map(B, reduced=True) == (), K.facets
    assert grew >= 100


def test_polytopal_spheres_leave_one_facet_outside():
    # A count, not a time: on these shellable spheres B takes every facet
    # but one, in id order and under relabelling alike, so homology
    # eliminates one top face and no matrix below it.
    rng = random.Random(27)
    spheres = (
        [fixtures.boundary_simplex(d) for d in range(1, 7)]
        + [fixtures.cross_polytope(d) for d in range(2, 8)]
        + [fixtures.cyclic_polytope(9, 4), fixtures.cyclic_polytope(16, 6)]
    )
    for K in spheres:
        for L in (K, _relabelled(K, rng), _relabelled(K, rng)):
            rest, _ = homology_module._attach(L)
            assert len(rest) == 1, (K, L.facets)
            assert all(_pair_faces(L)(i) == [] for i in range(L.dimension))


def test_pair_profile_does_not_depend_on_the_star_vertex(monkeypatch):
    # Every vertex's closed star is a cone, so any of them gives the same profile.
    inputs = _closed_pseudomanifolds()[: 10 + 3 * 29] + _random_inputs(random.Random(27), 100)
    choices = 0
    for K in inputs:
        expected = profile_per_map(K)
        for u in K.vertices:
            monkeypatch.setattr(homology_module, "_star_vertex", lambda L, u=u: L._id_of[u])
            assert homology(from_facets(K.facets)).groups == expected, (K.facets, u)
            choices += 1
    assert choices >= 1300


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
    # combinations of the other columns, so dropping them changes nothing,
    # in K and in the pair (K, B) alike.
    K = from_facets(facets)
    build = homology_module._build_boundary
    for faces in (K._ifaces, _pair_faces(K)):
        for i in range(1, K.dimension + 1):
            rows, cols = faces(i - 1), faces(i)
            full = smith_normal_form(build(rows, cols)).invariant_factors
            if i < K.dimension:
                above = smith_normal_form(build(cols, faces(i + 1))).pivot_rows
                pruned = build(rows, [s for r, s in enumerate(cols) if r not in above])
                assert pruned.shape[1] == len(cols) - len(above)
                assert smith_normal_form(pruned).invariant_factors == full, (facets, i)
            if i >= 2:
                below = smith_normal_form(build(faces(i - 2), rows).transpose()).pivot_rows
                pruned = build([s for r, s in enumerate(rows) if r not in below], cols)
                assert pruned.shape[0] == len(rows) - len(below)
                assert smith_normal_form(pruned.transpose()).invariant_factors == full, (facets, i)


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
    real = homology_module._coboundaries

    def broken(K):
        sizes, factors = real(K)
        factors[1] = factors[1][1:]
        return sizes, factors

    monkeypatch.setattr(homology_module, "_coboundaries", broken)


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
