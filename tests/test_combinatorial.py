import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minitri import fixtures
from minitri.combinatorial import (
    BistellarMove,
    apply_bistellar_move,
    bistellar_moves,
    bistellar_sphere_heuristic,
    certified_sphere,
    recognize_2sphere,
    recognize_circle,
    small_link_certificate,
)
from minitri.complexes import SimplicialComplex, _compact, from_facets
from minitri.errors import DimensionError, HypothesisError, NotPseudomanifoldError
from minitri.homology import homology
from minitri.pi1 import edge_path_presentation, freeness_verdict, validate_not_free_certificate

from oracles import (
    bistellar_moves_naive,
    random_complex,
    recognize_2sphere_naive,
    recognize_circle_naive,
    small_link_certificate_naive,
    suspension,
)

BROKEN_PM = from_facets(
    [
        (1, 2, 3, 4),
        (1, 2, 3, 5),
        (1, 2, 4, 5),
        (1, 3, 4, 5),
        (2, 3, 4, 5),
        (1, 2, 3, 6),
    ]
)


def test_recognize_circle():
    assert recognize_circle(from_facets([(1, 2), (2, 3), (1, 3)]))
    assert recognize_circle(fixtures.boundary_simplex(1))
    # path is not a circle; two triangles sharing nothing are not connected
    assert not recognize_circle(from_facets([(1, 2), (2, 3)]))
    assert not recognize_circle(from_facets([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))
    with pytest.raises(DimensionError):
        recognize_circle(fixtures.rp2_6())


def test_recognize_2sphere():
    assert recognize_2sphere(fixtures.boundary_simplex(2))
    assert recognize_2sphere(fixtures.cross_polytope(2))
    assert not recognize_2sphere(fixtures.rp2_6())
    assert not recognize_2sphere(fixtures.torus_7())
    with pytest.raises(DimensionError):
        recognize_2sphere(fixtures.boundary_simplex(3))


@pytest.mark.parametrize("d", range(1, 7))
def test_certificate_boundary_simplex(d):
    cert = small_link_certificate(fixtures.boundary_simplex(d))
    assert cert.verdict == "CERTIFIED"
    assert cert.pl_sphere


@pytest.mark.parametrize("d", range(1, 7))
def test_certificate_cross_polytope(d):
    cert = small_link_certificate(fixtures.cross_polytope(d))
    assert cert.verdict == "CERTIFIED"
    assert cert.pl_sphere


def test_certificate_certified_non_spheres():
    # small links certify combinatoriality; topology stays what it is
    for K in (fixtures.rp2_6(), fixtures.torus_7(), fixtures.cp2_9()):
        cert = small_link_certificate(K)
        assert cert.verdict == "CERTIFIED"
        assert not cert.pl_sphere


def test_certificate_inconclusive_on_c12_4():
    cert = small_link_certificate(fixtures.cyclic_polytope(12, 4))
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.witness == ()
    assert "12" in cert.witness_reason
    assert not cert.pl_sphere
    # nothing failed homology, the certificate just ran out of budget
    assert all(lev.rejections == 0 for lev in cert.levels)


def test_certificate_rejects_suspended_rp2():
    S = suspension(fixtures.rp2_6(), 90, 91)
    cert = small_link_certificate(S)
    assert cert.verdict == "REJECTED"
    assert cert.witness in ((90,), (91,))
    assert "2-sphere" in cert.witness_reason


def test_certificate_rejects_double_suspension_via_homology():
    S = suspension(suspension(fixtures.rp2_6(), 90, 91), 92, 93)
    cert = small_link_certificate(S)
    assert cert.verdict == "REJECTED"
    # the k=3 level sees non-spherical link homology at the new apexes
    assert cert.witness in ((90, 92), (90, 93), (91, 92), (91, 93), (92,), (93,), (90,), (91,))
    level3 = [lev for lev in cert.levels if lev.sphere_dim == 3]
    assert level3 and level3[0].rejections > 0


def test_certificate_requires_pseudomanifold():
    with pytest.raises(NotPseudomanifoldError):
        small_link_certificate(BROKEN_PM)


def test_certificate_serializes():
    cert = small_link_certificate(fixtures.cyclic_polytope(12, 4))
    d = cert.as_dict()
    assert d["verdict"] == "INCONCLUSIVE"
    assert d["witness"] == []
    assert isinstance(d["levels"], list)


def test_certified_sphere_gate():
    assert certified_sphere(fixtures.boundary_simplex(3))
    assert certified_sphere(fixtures.cross_polytope(2))
    assert not certified_sphere(fixtures.rp2_6())
    assert not certified_sphere(fixtures.cyclic_polytope(12, 4))
    assert not certified_sphere(BROKEN_PM)


def test_certified_sphere_needs_positive_dimension():
    # S^0 has no links to certify; the gate says no instead of raising.
    assert certified_sphere(from_facets([(1,), (2,)])) is False


def test_no_moves_on_minimal_sphere():
    # every candidate replacement simplex is already present
    assert list(bistellar_moves(fixtures.boundary_simplex(3))) == []


def test_octahedron_moves():
    # vertex links are 4-cycles, so only the twelve edge flips are legal
    moves = bistellar_moves(fixtures.cross_polytope(2))
    assert len(moves) == 12
    for mv in moves:
        assert len(mv.face) == 2 and len(mv.cofacet) == 2


def test_apply_move_preserves_homology():
    K = fixtures.cross_polytope(2)
    before = homology(K).as_dict()
    for mv in bistellar_moves(K):
        L = apply_bistellar_move(K, mv)
        assert homology(L).as_dict() == before
        assert L.is_closed_pseudomanifold().is_closed_pseudomanifold


def test_apply_move_rejects_stale_move():
    K = fixtures.cross_polytope(2)
    mv = bistellar_moves(K)[0]
    T = fixtures.torus_7()
    S = fixtures.boundary_simplex(3)
    cases = [
        # lk(1) is the boundary of the tetrahedron 0 2 3 4, a facet of S
        (S, BistellarMove(face=(1,), cofacet=(0, 2, 3, 4))),
        (apply_bistellar_move(K, mv), mv),
        # a fresh vertex: lk(facet) is empty, not the boundary of a simplex
        (T, BistellarMove(face=T.facets[0], cofacet=(99,))),
        # lk(1) is a hexagon, not the boundary of the triangle 2 4 6
        (T, BistellarMove(face=(1,), cofacet=(2, 4, 6))),
    ]
    for L, move in cases:
        with pytest.raises(HypothesisError):
            apply_bistellar_move(L, move)


def test_heuristic_octahedron_reaches_minimal():
    res = bistellar_sphere_heuristic(fixtures.cross_polytope(2), move_budget=50, seed=0)
    assert res.success
    assert len(res.final_facets) == 4
    # one edge flip frees each vertex removal: 6 -> 5 -> 4 vertices
    assert len(res.moves) >= 3
    # replaying the recorded moves reproduces the final complex
    K = fixtures.cross_polytope(2)
    for mv in res.moves:
        K = apply_bistellar_move(K, mv)
    assert sorted(tuple(sorted(f)) for f in K.facets) == sorted(
        tuple(sorted(f)) for f in res.final_facets
    )


def test_heuristic_three_sphere():
    res = bistellar_sphere_heuristic(fixtures.cross_polytope(3), move_budget=200, seed=1)
    assert res.success
    assert len(res.final_facets) == 5


def test_heuristic_already_minimal():
    res = bistellar_sphere_heuristic(fixtures.boundary_simplex(2), move_budget=10, seed=0)
    assert res.success
    assert res.moves == ()


def test_heuristic_requires_sphere_homology():
    with pytest.raises(HypothesisError):
        bistellar_sphere_heuristic(fixtures.torus_7())
    with pytest.raises(NotPseudomanifoldError):
        bistellar_sphere_heuristic(BROKEN_PM)


def test_heuristic_deterministic_per_seed():
    a = bistellar_sphere_heuristic(fixtures.cross_polytope(2), move_budget=50, seed=5)
    b = bistellar_sphere_heuristic(fixtures.cross_polytope(2), move_budget=50, seed=5)
    assert a.as_dict() == b.as_dict()


def test_moves_preserve_homology_along_random_walk():
    rng = random.Random(2)
    K = fixtures.cross_polytope(3)
    want = homology(K).as_dict()
    for _ in range(12):
        moves = bistellar_moves(K)
        if not moves:
            break
        K = apply_bistellar_move(K, rng.choice(list(moves)))
        assert homology(K).as_dict() == want


def _flip_pairs(K):
    return [(m.face, m.cofacet) for m in bistellar_moves(K)]


def test_bistellar_moves_match_naive_oracle():
    for K in (
        fixtures.boundary_simplex(3),
        fixtures.cross_polytope(2),
        fixtures.cross_polytope(3),
        fixtures.torus_7(),
        fixtures.rp2_6(),
        fixtures.cp2_9(),
        fixtures.cyclic_polytope(9, 4),
    ):
        assert _flip_pairs(K) == bistellar_moves_naive(K), K
    # along a seeded walk, after one stellar subdivision so that vertices can go
    rng = random.Random(11)
    K = _stellar_subdivision(fixtures.cyclic_polytope(9, 4), rng)
    for _ in range(25):
        moves = bistellar_moves(K)
        assert _flip_pairs(K) == bistellar_moves_naive(K), K.facets
        K = apply_bistellar_move(K, rng.choice(moves))


def _stellar_subdivision(K, rng):
    # The one bistellar move that adds a vertex, which bistellar_moves
    # never offers; the neighborly torus_7 and rp2_6 have no flip without it.
    facets = list(K.facets)
    F = facets.pop(rng.randrange(len(facets)))
    v = max(K.vertices) + 1
    return from_facets(facets + [tuple(x for x in F if x != y) + (v,) for y in F])


FLIP_SOURCES = {
    "torus_7": fixtures.torus_7,
    "rp2_6": fixtures.rp2_6,
    "cross_polytope(3)": lambda: fixtures.cross_polytope(3),
    "C(9,4)": lambda: fixtures.cyclic_polytope(9, 4),
}


@pytest.mark.parametrize("name", sorted(FLIP_SOURCES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_flips_preserve_verdicts(name, seed):
    rng = random.Random(seed)
    K = FLIP_SOURCES[name]()
    # Dimension 2 certificates ignore the vertex count; in dimension 3
    # flips never add a vertex, so the 3d whole-complex budget still holds.
    if K.dimension == 2:
        K = _stellar_subdivision(K, rng)
    want_homology = homology(K).as_dict()
    want_verdict = small_link_certificate(K).verdict
    for _ in range(rng.randint(1, 6)):
        moves = bistellar_moves(K)
        if not moves:
            break
        K = apply_bistellar_move(K, rng.choice(moves))
    assert homology(K).as_dict() == want_homology
    assert small_link_certificate(K).verdict == want_verdict
    fv = freeness_verdict(edge_path_presentation(K, rng=rng))
    if fv.status == "NOT_FREE":
        assert validate_not_free_certificate(fv)


# -- diffs against the pre-refactor recognizers and certificate -------------


def _relabel(K, shift):
    return from_facets([tuple(v + shift for v in f) for f in K.facets])


def _disjoint_union(K, L):
    return from_facets(list(K.facets) + list(_relabel(L, max(K.vertices) + 1).facets))


def _wedge(K, L):
    # Glue L's first vertex onto K's first vertex.
    shift = max(K.vertices) + 1
    glue = L.vertices[0] + shift
    M = _relabel(L, shift)
    return from_facets(
        list(K.facets) + [tuple(K.vertices[0] if v == glue else v for v in f) for f in M.facets]
    )


def _pinched(K):
    """K with two fresh vertices, cones over two disjoint facets, identified.

    Their stars are disjoint, so the identified vertex has a link made of
    two disjoint (d-1)-spheres.
    """
    F, G = next((F, G) for F, G in combinations(K.facets, 2) if not set(F) & set(G))
    v = max(K.vertices) + 1
    facets = [f for f in K.facets if f not in (F, G)]
    for face in (F, G):
        facets += [tuple(x for x in face if x != y) + (v,) for y in face]
    return from_facets(facets)


def _coned(facets, F, v):
    # The facet F replaced by the cone from v over its boundary.
    return [f for f in facets if f != F] + [tuple(x for x in F if x != y) + (v,) for y in F]


def _torus_and_sphere_link():
    """A closed 3-pseudomanifold where vertex 90 has link T^2 + S^2, with chi = 2.

    In the suspension of torus_7 with apexes 90 and 91, three stellar
    subdivisions through 91 leave the facet G = (91, 92, 93, 94), which
    avoids the closed star of 90.  Coning G's boundary from 90 in G's
    place adds a disjoint 2-sphere to the torus link of 90.
    """
    facets = list(suspension(fixtures.torus_7(), 90, 91).facets)
    for c in (92, 93, 94):
        F = next(f for f in facets if {91, *range(92, c)} <= set(f))
        facets = _coned(facets, F, c)
    G = next(f for f in facets if set(f) == {91, 92, 93, 94})
    return from_facets(_coned(facets, G, 90))


def _flipped(K, rng, flips):
    for _ in range(flips):
        moves = bistellar_moves(K)
        if not moves:
            break
        K = apply_bistellar_move(K, rng.choice(moves))
    return K


def _random_graphs(rng, count):
    for _ in range(count):
        n = rng.randint(2, 7)
        verts = list(range(1, n + 1))
        shape = rng.randrange(3)
        if shape == 0:
            edges = [e for e in combinations(verts, 2) if rng.random() < 0.4]
        else:
            # one or two cycles, sharing vertices or not
            edges = []
            for _ in range(shape):
                cyc = rng.sample(verts, rng.randint(3, n)) if n >= 3 else verts
                edges += [(cyc[i], cyc[i - 1]) for i in range(len(cyc))]
        if rng.random() < 0.2:
            edges.append((n + 1,))
        if edges:
            yield from_facets(edges)


def _sample_2complexes(rng):
    spheres = [fixtures.boundary_simplex(2), fixtures.cross_polytope(2)]
    others = [fixtures.torus_7(), fixtures.rp2_6()]
    for _ in range(60):
        for base in (spheres[rng.randrange(2)], others[rng.randrange(2)]):
            K = _stellar_subdivision(base, rng)
            yield _flipped(K, rng, rng.randint(0, 4))
    for _ in range(30):
        S = _flipped(_stellar_subdivision(fixtures.cross_polytope(2), rng), rng, 3)
        yield _pinched(S)
        yield _wedge(S, spheres[rng.randrange(2)])
        yield _disjoint_union(S, spheres[rng.randrange(2)])
        # a sphere with a dangling triangle is not pure
        yield from_facets(list(S.facets) + [(S.vertices[0], 100, 101)])
    for _ in range(300):
        n = rng.randint(4, 7)
        tris = [t for t in combinations(range(n), 3) if rng.random() < 0.45]
        if tris:
            yield from_facets(tris)


def test_recognize_circle_matches_naive():
    rng = random.Random(11)
    circles = 0
    graphs = [G for G in _random_graphs(rng, 600) if G.dimension == 1]
    for G in graphs:
        got = recognize_circle(G)
        assert got == recognize_circle_naive(G), G.facets
        circles += got
    assert 50 < circles < len(graphs)


def test_recognize_2sphere_matches_naive():
    rng = random.Random(12)
    spheres = total = 0
    for K in _sample_2complexes(rng):
        if K.dimension != 2:
            continue
        got = recognize_2sphere(K)
        assert got == recognize_2sphere_naive(K), K.facets
        spheres += got
        total += 1
    assert 50 < spheres < total


def _certificate_inputs():
    rng = random.Random(13)
    yield from (fixtures.boundary_simplex(d) for d in range(1, 6))
    yield from (fixtures.cross_polytope(d) for d in range(1, 5))
    yield from (fixtures.cyclic_polytope(n, 4) for n in (6, 9, 12))
    yield fixtures.cyclic_polytope(10, 5)
    yield from (fixtures.rp2_6(), fixtures.torus_7(), fixtures.cp2_9())
    rp2 = suspension(fixtures.rp2_6(), 90, 91)
    yield from (rp2, suspension(rp2, 92, 93), suspension(fixtures.torus_7(), 90, 91))
    yield suspension(fixtures.cross_polytope(2), 90, 91)
    yield from (_pinched(fixtures.cross_polytope(d)) for d in (2, 3, 4))
    # strongly connected and chi = 2 must both be tested on 2-sphere links
    yield _torus_and_sphere_link()
    for base in (fixtures.cross_polytope(3), fixtures.cp2_9(), fixtures.cyclic_polytope(9, 4)):
        for _ in range(3):
            yield _flipped(_stellar_subdivision(base, rng), rng, rng.randint(1, 5))


def test_certificate_matches_naive():
    verdicts = set()
    for K in _certificate_inputs():
        cert = small_link_certificate(K).as_dict()
        assert cert == small_link_certificate_naive(K).as_dict(), K.facets
        verdicts.add(cert["verdict"])
    assert verdicts == {"CERTIFIED", "INCONCLUSIVE", "REJECTED"}


def _relabelled(K, rng):
    """K under fresh string labels, with facet and vertex order shuffled."""
    names = dict(zip(K.vertices, rng.sample(range(10 * K.n_vertices), K.n_vertices)))
    facets = [[f"v{names[v]}" for v in f] for f in K.facets]
    for f in facets:
        rng.shuffle(f)
    rng.shuffle(facets)
    return from_facets(facets)


def test_certificate_reads_links_from_one_facet_sweep(monkeypatch):
    rng = random.Random(17)
    bases = (
        fixtures.cp2_9(),
        fixtures.cyclic_polytope(10, 5),
        fixtures.cross_polytope(4),
        fixtures.cyclic_polytope(9, 4),
        fixtures.cross_polytope(3),
        fixtures.torus_7(),
        fixtures.rp2_6(),
        suspension(fixtures.rp2_6(), 90, 91),
    )
    corpus = [_relabelled(_flipped(_stellar_subdivision(B, rng), rng, 3), rng) for B in bases]
    sphere = fixtures.boundary_simplex(3)
    non_pure = [random_complex(rng) for _ in range(60)]
    non_pure += [from_facets(list(sphere.facets) + [extra]) for extra in ((1, 2, 9), (1, 9))]
    for K in [*bases, *corpus, *non_pure, sphere.full_subcomplex(())]:
        for i in range(-1, K.dimension + 1):
            links = K._links(i)
            assert sorted(links) == list(K._ifaces(i))
            for s in K._ifaces(i):
                got, want = _compact(K.labels, links[s]), K.link(K._to_labels(s))
                assert (got.labels, got._id_facets) == (want.labels, want._id_facets)

    calls = []
    link = SimplicialComplex.link

    def counting_link(self, simplex):
        calls.append(tuple(simplex))
        return link(self, simplex)

    monkeypatch.setattr(SimplicialComplex, "link", counting_link)
    for K in [*bases, *corpus]:
        small_link_certificate(K)
    assert calls == []
