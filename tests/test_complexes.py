import importlib.util
import random
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from minitri.complexes import SimplicialComplex, _antichain, from_facets
from minitri.errors import (
    FacetInputError,
    MissingSimplexError,
    VertexSetError,
)
from minitri import facetio, fixtures
from minitri.homology import cohomology, homology

from oracles import (
    antichain_naive,
    full_subcomplex_naive,
    is_connected_naive,
    join_naive,
    link_naive,
    pseudomanifold_report_naive,
    random_complex,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_facets_form_an_antichain():
    K = from_facets([(1, 2, 3), (2, 3), (3,), (4, 5)])
    assert K.facets == ((1, 2, 3), (4, 5))
    assert K.dimension == 2
    assert K.n_vertices == 5


def test_antichain_matches_naive_oracle():
    # every family mixes lengths, so most members are tested; some repeat
    # members or hold the empty tuple
    rng = random.Random(47)
    families = [[], [()], [(), ()], [(), (3,)], [(1, 2), (1, 2), (2,)]]
    for _ in range(3000):
        n = rng.randint(1, 9)
        family = [
            tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 6)))))
            for _ in range(rng.randint(1, 14))
        ]
        if rng.random() < 0.3:
            family += rng.sample(family, min(3, len(family)))
        families.append(family)
    for family in families:
        assert _antichain(family) == antichain_naive(family), family
    assert sum(1 for f in families if () in f) > 100


def test_facet_order_within_simplex_is_canonical():
    K = from_facets([(3, 1, 2)])
    L = from_facets([(1, 2, 3)])
    assert K == L
    assert K.facets == ((3, 1, 2),) or K.facets == ((1, 2, 3),)


def test_duplicate_vertex_rejected():
    with pytest.raises(FacetInputError):
        from_facets([(1, 1, 2)])


def test_empty_complex_convention():
    # the empty complex is never built from a facet list; it shows up as
    # a link of a facet or an induced subcomplex on no vertices
    with pytest.raises(FacetInputError):
        from_facets([()])
    K = fixtures.rp2_6()
    E = K.full_subcomplex(())
    assert E.dimension == -1
    assert E.n_vertices == 0
    assert E.facets == ((),)
    assert K.link(K.facets[0]) == E


def test_faces_counts_boundary_simplex():
    # every proper subset of the d+2 vertices is a face
    d = 4
    K = fixtures.boundary_simplex(d)
    for i in range(d + 1):
        assert len(K.faces(i)) == comb(d + 2, i + 1)


def test_f_vector_fixtures():
    assert fixtures.boundary_simplex(2).f_vector() == (4, 6, 4)
    assert fixtures.cross_polytope(2).f_vector() == (6, 12, 8)
    assert fixtures.cross_polytope(3).f_vector() == (8, 24, 32, 16)
    assert fixtures.rp2_6().f_vector() == (6, 15, 10)
    assert fixtures.torus_7().f_vector() == (7, 21, 14)
    assert fixtures.cp2_9().f_vector() == (9, 36, 84, 90, 36)
    assert fixtures.cyclic_polytope(9, 4).f_vector() == (9, 36, 54, 27)


def test_has_simplex_ignores_order():
    K = fixtures.rp2_6()
    assert K.has_simplex((4, 2, 1)) == K.has_simplex((1, 2, 4))
    assert K.has_simplex(())
    assert not K.has_simplex((1, 99))


def test_link_of_vertex_in_octahedron():
    K = fixtures.cross_polytope(2)
    v = K.vertices[0]
    lk = K.link((v,))
    # equatorial square
    assert lk.dimension == 1
    assert lk.n_vertices == 4
    assert len(lk.facets) == 4


def test_link_missing_simplex_raises():
    K = fixtures.rp2_6()
    with pytest.raises(MissingSimplexError):
        K.link((1, 99))


def test_link_of_empty_simplex_is_whole_complex():
    K = fixtures.rp2_6()
    assert K.link(()) == K


def test_link_matches_naive_oracle():
    # every face, the empty simplex and the facets included, plus one non-face
    rng = random.Random(53)
    for _ in range(200):
        K = random_complex(rng)
        faces = [s for i in range(-1, K.dimension + 1) for s in K.faces(i)]
        for s in faces:
            assert {frozenset(f) for f in K.link(s).facets} == link_naive(K, s), (K.facets, s)
        absent = tuple(rng.sample(K.vertices, rng.randint(1, K.n_vertices)))
        if link_naive(K, absent) is None:
            with pytest.raises(MissingSimplexError):
                K.link(absent)


def test_star_contains_link_join_simplex():
    # the closed star sigma * lk(sigma) lies in K
    K = fixtures.cross_polytope(3)  # 3-sphere, 16 facets
    s = K.faces(1)[0]
    for f in K.link(s).facets:
        assert K.has_simplex(tuple(s) + f)


def test_join_with_point_is_cone():
    K = fixtures.boundary_simplex(2)
    C = K.join(from_facets([(99,)]))
    assert C.dimension == K.dimension + 1
    assert C.n_vertices == K.n_vertices + 1
    assert len(C.facets) == len(K.facets)


def test_join_homotopy_boundary():
    # join of two circle complexes multiplies facet counts
    A = fixtures.boundary_simplex(1)
    B = from_facets([(10, 11), (11, 12), (10, 12)])
    J = A.join(B)
    assert len(J.facets) == len(A.facets) * len(B.facets)
    assert J.dimension == 3


def test_join_matches_label_oracle():
    rng = random.Random(5)
    E = fixtures.rp2_6().full_subcomplex(())
    pairs = [(E, E)]
    for _ in range(300):
        K = random_complex(rng)
        L = random_complex(rng)
        L = from_facets([tuple(f"v{x}" for x in g) for g in L.facets])
        pairs += [(K, L), (L, K)]
        if rng.random() < 0.2:
            pairs += [(K, E), (E, L)]
    for K, L in pairs:
        J = K.join(L)
        assert (J.labels, J._id_facets) == join_naive(K, L), (K.facets, L.facets)
    assert sum(E in pair for pair in pairs) > 100


def test_join_rejects_shared_labels():
    K = from_facets([(1, 2)])
    with pytest.raises(VertexSetError):
        K.join(from_facets([(2, 3)]))


def test_empty_complex_is_join_neutral():
    K = fixtures.rp2_6()
    E = K.full_subcomplex(())
    assert K.join(E) == K
    assert E.join(K) == K


def test_full_subcomplex_is_induced():
    K = fixtures.rp2_6()
    V = (1, 2, 3, 4)
    L = K.full_subcomplex(V)
    for f in L.facets:
        assert set(f) <= set(V)
        assert K.has_simplex(f)
    # induced: any K-simplex inside V must appear in L
    for i in range(K.dimension + 1):
        for s in K.faces(i):
            if set(s) <= set(V):
                assert L.has_simplex(s)
    # random complexes against the face-by-face oracle, V empty and V
    # everything included
    rng = random.Random(12021)
    ends = []
    for _ in range(300):
        K = random_complex(rng)
        verts = list(K.vertices)
        V = rng.sample(verts, rng.choice([0, len(verts), rng.randint(0, len(verts))]))
        L = K.full_subcomplex(V)
        assert (L.labels, L.facets) == full_subcomplex_naive(K, V), (K.facets, V)
        ends.append(len(V) in (0, len(verts)))
    assert ends.count(True) > 150 and ends.count(False) > 50


def test_full_subcomplex_bad_vertex():
    K = fixtures.rp2_6()
    with pytest.raises(VertexSetError):
        K.full_subcomplex((1, 99))


def test_pseudomanifold_fixtures():
    for K in (
        fixtures.boundary_simplex(3),
        fixtures.cross_polytope(4),
        fixtures.rp2_6(),
        fixtures.torus_7(),
        fixtures.cp2_9(),
        fixtures.cyclic_polytope(8, 4),
    ):
        assert K.is_closed_pseudomanifold().is_closed_pseudomanifold

    # a 3-sphere with one extra facet glued on a free ridge
    broken = from_facets(
        [
            (1, 2, 3, 4),
            (1, 2, 3, 5),
            (1, 2, 4, 5),
            (1, 3, 4, 5),
            (2, 3, 4, 5),
            (1, 2, 3, 6),
        ]
    )
    rep = broken.is_closed_pseudomanifold()
    assert not rep.is_closed_pseudomanifold
    assert not rep.ridge_degree_two


def test_pseudomanifold_report_matches_naive():
    rng = random.Random(23)
    sphere = fixtures.boundary_simplex(3)
    pendant_ridge = from_facets(list(sphere.facets) + [(1, 2, 9)])
    pendant_edge = from_facets(list(sphere.facets) + [(1, 9)])
    assert not pendant_ridge.is_closed_pseudomanifold().ridge_degree_two
    assert pendant_edge.is_closed_pseudomanifold().ridge_degree_two
    book = from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)])  # pages joined only at the spine
    assert book.is_closed_pseudomanifold().strongly_connected
    inputs = [sphere, pendant_ridge, pendant_edge, book, fixtures.rp2_6(), fixtures.cp2_9()]
    inputs += [random_complex(rng) for _ in range(300)]
    checked = 0
    for K in inputs:
        if K.dimension >= 1:
            assert K.is_closed_pseudomanifold() == pseudomanifold_report_naive(K), K.facets
            checked += 1
    assert checked > 200


def test_orientability():
    assert fixtures.boundary_simplex(4).is_orientable()
    assert fixtures.cross_polytope(3).is_orientable()
    assert fixtures.torus_7().is_orientable()
    assert fixtures.cp2_9().is_orientable()
    assert not fixtures.rp2_6().is_orientable()


def test_connectedness():
    assert fixtures.rp2_6().is_connected()
    assert not from_facets([(1, 2), (3, 4)]).is_connected()


def _benchmark_corpus(seed):
    """The benchmark's bistellar-randomized triangulations for one seed."""
    module = sys.modules.get("workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return [K for _, K in module.generate_corpus(random.Random(seed))]


def _klein_bottle(a=3, b=3):
    """The a x b grid on a square, sides glued straight and top to bottom flipped."""

    def vertex(i, j):
        return ((-i) % a, 0) if j == b else (i % a, j)

    facets = []
    for i in range(a):
        for j in range(b):
            diagonal = (vertex(i, j), vertex(i + 1, j + 1))
            facets += [diagonal + (vertex(i + 1, j),), diagonal + (vertex(i, j + 1),)]
    return from_facets(facets)


def test_orientability_matches_top_cohomology():
    # A closed, strongly connected d-pseudomanifold is orientable iff
    # H^d(K; Z) = Z; otherwise H^d(K; Z) = Z/2.  Cohomology comes from the
    # transposed elimination, not from the ridge walk that is_orientable
    # and the top homology map read.
    klein = _klein_bottle()
    assert homology(klein).groups == ((0, 1, ()), (1, 1, (2,)))
    cross = fixtures.cross_polytope(5)
    inputs = [
        fixtures.boundary_simplex(3),
        fixtures.cross_polytope(2),
        fixtures.cross_polytope(4),
        fixtures.rp2_6(),
        fixtures.torus_7(),
        fixtures.cp2_9(),
        fixtures.cyclic_polytope(8, 4),
        fixtures.rp2_6().join(from_facets([(7,), (8,)])),
        klein,
    ]
    inputs += [K for seed in (1, 2, 3) for K in _benchmark_corpus(seed)]
    inputs += [cross.link(s) for i in range(cross.dimension - 1) for s in cross.faces(i)]
    verdicts = []
    for K in inputs:
        assert K.is_closed_pseudomanifold().is_closed_pseudomanifold
        top = cohomology(K).group(K.dimension)
        assert top in ((1, ()), (0, (2,)))
        assert K.is_orientable() == (top == (1, ())), K.facets
        verdicts.append(top == (1, ()))
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 150


def test_connectedness_matches_bfs():
    rng = random.Random(41)
    inputs = [fixtures.rp2_6().link(fixtures.rp2_6().facets[0])]  # the empty complex
    for _ in range(400):
        K = random_complex(rng)
        isolated = [(100 + k,) for k in range(rng.randint(0, 2))]
        inputs.append(from_facets(list(K.facets) + isolated))
    verdicts = [is_connected_naive(K) for K in inputs]
    assert [K.is_connected() for K in inputs] == verdicts
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 50


def test_relabeling_preserves_structure():
    rng = random.Random(31)
    K = fixtures.rp2_6()
    names = "abcdef"
    relabel = dict(zip(K.vertices, names))
    L = from_facets([tuple(relabel[v] for v in f) for f in K.facets])
    assert L.f_vector() == K.f_vector()
    assert L.is_closed_pseudomanifold().is_closed_pseudomanifold
    assert L.is_orientable() == K.is_orientable()
    lkK = K.link((1,))
    lkL = L.link((relabel[1],))
    assert lkK.f_vector() == lkL.f_vector()


def test_facet_file_round_trip():
    for K in (
        fixtures.rp2_6(),
        fixtures.cyclic_polytope(7, 4),
        fixtures.cross_polytope(2),
        from_facets([("a", "1_0", -3), ("a", "1_0", "+x")]),
    ):
        assert facetio.loads(facetio.dumps(K)) == K


def test_dumps_refuses_labels_that_read_back_differently():
    # "01" reads back as the integer 1; 1 and "1" would collide on one token
    for K in (
        from_facets([("01", "2", "x"), ("01", "2", "y")]),
        from_facets([(1, 2, 3), ("1", 2, 4)]),
        from_facets([("+5", 6)]),
    ):
        with pytest.raises(FacetInputError, match="cannot be written"):
            facetio.dumps(K)


def test_facet_file_line_numbers():
    with pytest.raises(FacetInputError, match="line 2"):
        facetio.loads("1 2 3\n4 4 5\n")


def test_assertions_parse():
    d = facetio.parse_assertions("pi1 = not-free\n# comment\nsimply-connected=true\n")
    assert d == {"pi1": "not-free", "simply-connected": "true"}
    with pytest.raises(FacetInputError, match="line 1"):
        facetio.parse_assertions("just-a-word\n")
