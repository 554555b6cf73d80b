import random

import pytest

from minitri import fixtures
from minitri.complexes import from_facets
from minitri.errors import ConnectivityError, DimensionError, HypothesisError
from minitri.homology import homology
from minitri.pi1 import (
    FreenessVerdict,
    GroupPresentation,
    abelianization,
    edge_path_presentation,
    find_symmetric_quotient,
    freeness_verdict,
    tietze_simplify,
    validate_not_free_certificate,
)

from oracles import random_complex, tietze_simplify_naive

ALL_FIXTURES = [
    fixtures.boundary_simplex(2),
    fixtures.boundary_simplex(4),
    fixtures.cross_polytope(2),
    fixtures.cross_polytope(3),
    fixtures.rp2_6(),
    fixtures.torus_7(),
    fixtures.cp2_9(),
    fixtures.cyclic_polytope(8, 4),
]


def test_circle_presentation_is_free_rank_one():
    circle = from_facets([(1, 2), (2, 3), (1, 3)])
    P = edge_path_presentation(circle)
    # spanning tree eats two of the three edges
    assert P.ngens == 1 and len(P.tree_edges) == 2 and len(P.gen_edges) == 1
    assert P.relators == ()
    v = freeness_verdict(P)
    assert v.status == "FREE" and v.rank == 1


def test_sphere_presentation_collapses_to_trivial():
    P = edge_path_presentation(fixtures.boundary_simplex(3))
    v = freeness_verdict(P)
    assert v.status == "FREE" and v.rank == 0
    Q = tietze_simplify(P)
    assert Q.ngens == 0 and Q.relators == ()


def test_rp2_not_free_torsion_certificate():
    P = edge_path_presentation(fixtures.rp2_6())
    v = freeness_verdict(P)
    assert v.status == "NOT_FREE"
    assert v.reason == "torsion-in-H1"
    assert validate_not_free_certificate(v)
    # the simplified presentation is a single generator of order two
    Q = tietze_simplify(P)
    assert Q.ngens == 1
    assert len(Q.relators) == 1
    ab = abelianization(Q)
    assert ab.rank == 0 and ab.torsion == (2,)


def test_torus_is_unknown():
    # Z x Z: torsion-free, not perfect, no luck; UNKNOWN is the honest answer
    v = freeness_verdict(edge_path_presentation(fixtures.torus_7()))
    assert v.status == "UNKNOWN"


def test_unknown_says_why():
    icosahedral = GroupPresentation(
        ngens=2,
        relators=((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)),
    )
    # A5 has no nontrivial image in S_4, so the degree-4 search is exhaustive
    cut = freeness_verdict(icosahedral, node_budget=50)
    assert (cut.status, cut.reason) == ("UNKNOWN", "budget-exhausted:quotient-search")
    assert find_symmetric_quotient(icosahedral, node_budget=50) is None
    done = freeness_verdict(icosahedral, max_degree=4)
    assert (done.status, done.reason) == ("UNKNOWN", "no-certificate-found")

    P = edge_path_presentation(fixtures.cp2_9())
    short = freeness_verdict(P, effort_budget=2)
    assert (short.status, short.reason) == ("UNKNOWN", "budget-exhausted:tietze")
    assert short.presentation == tietze_simplify(P, effort_budget=2)
    assert (short.presentation.ngens, len(short.presentation.relators)) == (26, 81)
    assert freeness_verdict(P).status == "FREE"

    torus = freeness_verdict(edge_path_presentation(fixtures.torus_7()))
    assert (torus.status, torus.reason) == ("UNKNOWN", "no-certificate-found")


def _oracle_presentations():
    for K in (
        fixtures.cp2_9(),
        fixtures.torus_7(),
        fixtures.rp2_6(),
        fixtures.cyclic_polytope(9, 4),
    ):
        for seed in range(20):
            yield edge_path_presentation(K, rng=seed)
    rng = random.Random(21)
    for _ in range(40):
        K = random_complex(rng)
        if K.is_connected() and K.dimension >= 1:
            yield edge_path_presentation(K)


@pytest.mark.parametrize("budget", [10000, 3, 1])
def test_tietze_matches_naive_oracle(budget):
    for P in _oracle_presentations():
        got = tietze_simplify(P, effort_budget=budget)
        want = tietze_simplify_naive(P, effort_budget=budget)
        assert (got.ngens, got.relators) == (want.ngens, want.relators)


def test_presentation_validation():
    with pytest.raises(HypothesisError):
        GroupPresentation(ngens=1, relators=((2,),))
    with pytest.raises(HypothesisError):
        GroupPresentation(ngens=1, relators=((1, -1),))  # not freely reduced


def test_tietze_preserves_abelianization():
    rng = random.Random(8)
    for _ in range(40):
        K = random_complex(rng, max_vertices=7)
        if not K.is_connected() or K.dimension < 1:
            continue
        P = edge_path_presentation(K)
        Q = tietze_simplify(P)
        a, b = abelianization(P), abelianization(Q)
        assert (a.rank, a.torsion) == (b.rank, b.torsion)


@pytest.mark.parametrize("K", ALL_FIXTURES, ids=lambda K: f"{K.n_vertices}v-dim{K.dimension}")
def test_abelianization_matches_h1(K):
    P = edge_path_presentation(K)
    ab = abelianization(P)
    b1, t1 = homology(K).group(1)
    assert ab.rank == b1
    assert ab.torsion == t1


def test_verdicts_stable_across_spanning_trees():
    for K, expected in (
        (fixtures.rp2_6(), "NOT_FREE"),
        (fixtures.torus_7(), "UNKNOWN"),
        (fixtures.cp2_9(), "FREE"),
    ):
        for seed in range(20):
            P = edge_path_presentation(K, rng=random.Random(seed))
            assert freeness_verdict(P).status == expected


def test_abelianization_stable_across_spanning_trees():
    K = fixtures.torus_7()
    b1, t1 = homology(K).group(1)
    for seed in range(10):
        P = edge_path_presentation(K, rng=seed)
        ab = abelianization(P)
        assert (ab.rank, ab.torsion) == (b1, t1)


def test_icosahedral_type_presentation_not_free():
    # perfect group with a nontrivial S5 quotient: <a,b | a^2, b^3, (ab)^5>
    P = GroupPresentation(
        ngens=2,
        relators=((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)),
    )
    assert abelianization(P).trivial
    v = freeness_verdict(P)
    assert v.status == "NOT_FREE"
    assert v.reason == "perfect-and-nontrivial-quotient"
    assert v.certificate["degree"] == 5
    assert validate_not_free_certificate(v)


def test_quotient_search_finds_symmetric_image():
    P = GroupPresentation(ngens=2, relators=((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)))
    found = find_symmetric_quotient(P)
    assert found is not None
    n, images = found
    assert n == 5
    ident = tuple(range(n))
    assert any(img != ident for img in images)


def test_quotient_search_gives_up_on_trivial_presentation():
    P = GroupPresentation(ngens=1, relators=((1,),))
    assert find_symmetric_quotient(P) is None


def test_free_presentation_shortcut():
    P = GroupPresentation(ngens=3, relators=())
    v = freeness_verdict(P)
    assert v.status == "FREE" and v.rank == 3


def test_certificate_kinds_revalidate():
    for K in (fixtures.rp2_6(),):
        v = freeness_verdict(edge_path_presentation(K))
        assert v.status == "NOT_FREE"
        assert validate_not_free_certificate(v)


def test_forged_perfect_certificate_rejected():
    # <a, b | b> is Z, which is free: the S_2 image of a is genuine, but
    # the group is not perfect, so the certificate proves nothing
    Q = GroupPresentation(2, ((2,),))
    cert = {
        "kind": "perfect-and-nontrivial-quotient",
        "degree": 2,
        "images": ((1, 0), (0, 1)),
        "presentation": Q,
    }
    forged = FreenessVerdict("NOT_FREE", None, cert["kind"], cert, Q)
    assert not validate_not_free_certificate(forged)


def test_edge_path_needs_connected_positive_dimension():
    with pytest.raises(DimensionError):
        edge_path_presentation(from_facets([(1,), (2,)]))
    with pytest.raises(ConnectivityError):
        edge_path_presentation(from_facets([(1, 2), (3, 4)]))


def test_presentation_str_and_dict():
    P = GroupPresentation(ngens=2, relators=((1, 1), (-2, 1)))
    text = str(P)
    assert "a" in text and "b" in text
    d = P.as_dict()
    assert d["generators"] == 2


def test_relators_hold_in_abelianization_of_torus():
    # sanity: torus presentation abelianizes to Z^2, commutator hides torsion
    P = edge_path_presentation(fixtures.torus_7())
    Q = tietze_simplify(P)
    ab = abelianization(Q)
    assert ab.rank == 2 and ab.torsion == ()
