import gc
import json
import random

import pytest

from minitri import bounds, fixtures
from minitri.bounds import analyze
from minitri.complexes import from_facets
from minitri.errors import ConnectivityError, DimensionError, HypothesisError
from minitri.homology import homology
from minitri.pi1 import (
    FreenessVerdict,
    GroupPresentation,
    _canonical_cyclic,
    _free_reduce,
    _quotient_search,
    _relator_image,
    abelianization,
    edge_path_presentation,
    find_symmetric_quotient,
    freeness_verdict,
    tietze_simplify,
    validate_not_free_certificate,
)

from oracles import (
    edge_path_presentation_naive,
    edge_path_presentation_quotient_naive,
    profile_per_map,
    quotient_search_composing,
    quotient_search_naive,
    random_complex,
    staircase_product,
    tietze_simplify_naive,
)
from test_complexes import _benchmark_corpus

# Perfect groups and the least degree of a nontrivial permutation image.
A5 = GroupPresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 5))
# <x, y | x^3 = y^5 = (xy)^2> as x^3 y^-5 and y^4 x^-1 y^-1 x^-1.
BINARY_ICOSAHEDRAL = GroupPresentation(2, ((1, 1, 1) + (-2,) * 5, (2, 2, 2, 2, -1, -2, -1)))
PSL27 = GroupPresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 7, (-1, -2, 1, 2) * 4))
PERFECT = ((A5, 5), (BINARY_ICOSAHEDRAL, 5), (PSL27, 7))

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
    assert P.ngens == 1
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

    # K's own presentation, large enough that two Tietze moves leave relators
    P = edge_path_presentation_naive(fixtures.cp2_9())
    short = freeness_verdict(P, effort_budget=2)
    assert (short.status, short.reason) == ("UNKNOWN", "budget-exhausted:tietze")
    assert short.presentation == tietze_simplify(P, effort_budget=2)
    assert (short.presentation.ngens, len(short.presentation.relators)) == (26, 81)
    assert freeness_verdict(P).status == "FREE"

    torus = freeness_verdict(edge_path_presentation(fixtures.torus_7()))
    assert (torus.status, torus.reason) == ("UNKNOWN", "no-certificate-found")


def _stellar_subdivision(K):
    # Cone a fresh vertex over the boundary of the first facet.
    F, *rest = K.facets
    v = max(K.vertices) + 1
    return from_facets(rest + [tuple(x for x in F if x != y) + (v,) for y in F])


def _oracle_presentations():
    # K's own presentations: the K/B ones are too small to load Tietze.
    for K in (
        fixtures.cp2_9(),
        fixtures.torus_7(),
        fixtures.rp2_6(),
        fixtures.cyclic_polytope(9, 4),
    ):
        for seed in range(20):
            yield edge_path_presentation_naive(K, rng=seed)
    # 31-36 generators and 80-100 relators, near the largest presentations
    # of bistellar-randomized 4-manifolds (32-44 and 94-120).
    for K in (
        fixtures.cross_polytope(4),
        fixtures.cyclic_polytope(10, 5),
        _stellar_subdivision(fixtures.cp2_9()),
    ):
        for seed in range(3):
            yield edge_path_presentation_naive(K, rng=seed)
    rng = random.Random(21)
    for _ in range(40):
        K = random_complex(rng)
        if K.is_connected() and K.dimension >= 1:
            yield edge_path_presentation_naive(K)


def _assert_same_as_oracle(P, budget):
    got = tietze_simplify(P, effort_budget=budget)
    want = tietze_simplify_naive(P, effort_budget=budget)
    assert (got.ngens, got.relators) == (want.ngens, want.relators), (P, budget)
    return got


@pytest.mark.parametrize("budget", [10000, 3, 1])
def test_tietze_matches_naive_oracle(budget):
    for P in _oracle_presentations():
        _assert_same_as_oracle(P, budget)


def _has_cyclic_duplicates(Q):
    return len({_canonical_cyclic(r) for r in Q.relators}) < len(Q.relators)


def test_tietze_budget_sweep_matches_naive_oracle():
    # Every budget up to the length of the unbounded run.  When the budget
    # runs out right after a move, the relators that move changed are not
    # checked for cyclic duplicates; some budgets here leave such pairs.
    for P in (
        edge_path_presentation_naive(fixtures.cross_polytope(3), rng=0),
        edge_path_presentation_naive(fixtures.cyclic_polytope(9, 4), rng=0),
    ):
        moves = P.ngens - tietze_simplify(P).ngens
        assert moves > 15
        left = [
            budget
            for budget in range(moves + 1)
            if _has_cyclic_duplicates(_assert_same_as_oracle(P, budget))
        ]
        assert left and not _has_cyclic_duplicates(tietze_simplify(P))


def _random_general_presentations(count, seed):
    # 2-5 generators and 1-6 freely reduced relators of length 1-12, so
    # substitutions are long and repeated letters and inverses meet.
    rng = random.Random(seed)
    while count:
        n = rng.randint(2, 5)
        letters = [g for a in range(1, n + 1) for g in (a, -a)]
        relators = []
        for _ in range(rng.randint(1, 6)):
            word = _free_reduce(rng.choice(letters) for _ in range(rng.randint(1, 16)))
            if 1 <= len(word) <= 12:
                relators.append(word)
        if relators:
            count -= 1
            yield GroupPresentation(n, tuple(relators))


def test_tietze_matches_naive_oracle_on_general_presentations():
    for P in _random_general_presentations(600, seed=11):
        for budget in (10000, 2, 1, 0):
            _assert_same_as_oracle(P, budget)


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
    # B holds every vertex of these inputs, so the seed moves no tree in
    # edge_path_presentation, only in the oracle's presentation of K itself.
    # That tree moves on the flipped corpus but not on the fixtures: they
    # are 2-neighbourly, so a BFS from vertex 0 takes every edge at 0.
    fixed = [
        (fixtures.rp2_6(), "NOT_FREE"),
        (fixtures.torus_7(), "UNKNOWN"),
        (fixtures.cp2_9(), "FREE"),
    ]
    corpus = [(K, freeness_verdict(edge_path_presentation(K)).status) for K in _benchmark_corpus(1)]
    assert {status for _, status in corpus} == {"FREE", "NOT_FREE", "UNKNOWN"}
    moved = 0
    for K, expected in fixed + corpus:
        trees = set()
        for seed in range(20):
            P = edge_path_presentation(K, rng=random.Random(seed))
            assert freeness_verdict(P).status == expected
            trees.add(edge_path_presentation_naive(K, rng=random.Random(seed)))
        assert {freeness_verdict(P).status for P in trees} == {expected}, K
        moved += len(trees) > 1
    assert moved >= 20


def test_abelianization_stable_across_spanning_trees():
    for K in [fixtures.torus_7()] + _benchmark_corpus(1):
        b1, t1 = homology(K).group(1)
        for seed in range(10):
            for build in (edge_path_presentation, edge_path_presentation_naive):
                ab = abelianization(build(K, rng=seed))
                assert (ab.rank, ab.torsion) == (b1, t1), (build, seed)


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


def test_forged_certificates_rejected():
    # <a | a^-1> is the trivial group, free of rank 0; (1, 1) is no
    # permutation, though its "inverse" computes to the identity.
    trivial = GroupPresentation(1, ((-1,),))
    z2 = GroupPresentation(1, ((1, 1),))
    forged = [
        ("perfect-and-nontrivial-quotient", trivial, {"degree": 2, "images": ((1, 1),)}),
        ("perfect-and-nontrivial-quotient", trivial, {"degree": 3, "images": ((0, 1, 5),)}),
        # The identity as a list must still count as the identity.
        ("perfect-and-nontrivial-quotient", trivial, {"degree": 2, "images": ([0, 1],)}),
        ("torsion-in-H1", z2, {"torsion": (0,)}),
        # Wrong shapes are rejected, not raised on.
        ("torsion-in-H1", z2, {}),
        ("torsion-in-H1", z2, {"torsion": 2}),
        ("perfect-and-nontrivial-quotient", trivial, {"images": ((1, 0),)}),
        ("perfect-and-nontrivial-quotient", trivial, {"degree": 2, "images": (5,)}),
        ("perfect-and-nontrivial-quotient", trivial, {"degree": 2, "images": 5}),
        ("perfect-and-nontrivial-quotient", trivial, {"degree": 2, "images": (("a", 0),)}),
        # A forged degree is rejected before anything of that size is built.
        ("perfect-and-nontrivial-quotient", trivial, {"degree": 10**15, "images": ((1, 0),)}),
    ]
    verdicts = []
    for kind, Q, fields in forged:
        cert = {"kind": kind, "presentation": Q, **fields}
        verdicts.append(FreenessVerdict("NOT_FREE", None, kind, cert, Q))
    kind = "torsion-in-H1"
    for cert in (
        {"kind": kind, "torsion": (2,)},
        {"kind": kind, "torsion": (2,), "presentation": "< a | a^2 >"},
        [("kind", kind), ("torsion", (2,)), ("presentation", z2)],
        "torsion 2",
    ):
        verdicts.append(FreenessVerdict("NOT_FREE", None, kind, cert, z2))
    # A genuine certificate of another presentation proves nothing about
    # the verdict's own: Z and F_2 are free.
    genuine = [{"kind": kind, "torsion": (2,), "presentation": z2}, freeness_verdict(A5).certificate]
    for cert, P in zip(genuine, (GroupPresentation(1, ()), GroupPresentation(2, ()))):
        verdicts.append(FreenessVerdict("NOT_FREE", None, cert["kind"], cert, P))
    for verdict in verdicts:
        assert validate_not_free_certificate(verdict) is False
        # a forged record still serializes, so it can be logged before it is checked
        d = verdict.as_dict()
        assert json.loads(json.dumps(d)) == d
    # the genuine certificates still validate on their own presentations
    for cert in genuine:
        verdict = FreenessVerdict("NOT_FREE", None, cert["kind"], cert, cert["presentation"])
        assert validate_not_free_certificate(verdict)


def test_quotient_search_frees_its_permutations():
    # The search leaves no reference cycle behind, so its S_n lists are
    # freed when it returns, not at the next full garbage collection.
    gc.collect()
    gc.disable()
    try:
        assert find_symmetric_quotient(A5, 5) is not None
        assert find_symmetric_quotient(GroupPresentation(1, ((1,),)), 4) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _assert_homomorphism(P, hit):
    n, images = hit
    ident = tuple(range(n))
    assert all(tuple(sorted(p)) == ident for p in images)
    assert any(p != ident for p in images)
    assert all(_relator_image(r, images, n) == ident for r in P.relators)


def _random_presentations(count, seed, odd=False, ngens=2):
    # ngens generators, 1-3 relators of length <= 8.  With odd=True only
    # groups with no image in S_2 (finite H_1 of odd order) are kept.
    rng = random.Random(seed)
    letters = tuple(x for g in range(1, ngens + 1) for x in (g, -g))
    while count:
        words = (
            _free_reduce(rng.choice(letters) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 3))
        )
        relators = tuple(w for w in words if w)
        if not relators:
            continue
        P = GroupPresentation(ngens, relators)
        if odd:
            ab = abelianization(P)
            if ab.rank or any(t % 2 == 0 for t in ab.torsion):
                continue
        count -= 1
        yield P


def test_quotient_search_matches_naive_oracle():
    cases = [(P, degree) for P, degree in PERFECT]
    cases += [(P, 5) for P in _random_presentations(30, seed=7)]
    cases += [(P, 4) for P in _random_presentations(40, seed=8, odd=True)]
    cases += [(P, 5) for P in _random_presentations(10, seed=9, odd=True)]
    for P, top in cases:
        want, cut = quotient_search_naive(P, top, node_budget=10**6)
        assert not cut
        # Degrees are searched in increasing order, so the oracle's hit at
        # the top degree fixes its answer at every smaller max_degree.
        for max_degree in range(2, top + 1):
            got, cut = _quotient_search(P, max_degree, node_budget=10**6)
            assert not cut
            expected = want[0] if want and want[0] <= max_degree else None
            assert (got and got[0]) == expected
            if got:
                _assert_homomorphism(P, got)
    for P, degree in PERFECT:
        v = freeness_verdict(P, max_degree=degree)
        assert v.certificate["degree"] == degree
        assert validate_not_free_certificate(v)


def test_quotient_search_node_count():
    # PSL(2,7) has no nontrivial image below S_7.  Trying all of S_n for
    # the first generator needs 55440 nodes at degree 6 alone; one image
    # per cycle type keeps every degree under 10000.
    found = find_symmetric_quotient(PSL27, max_degree=7, node_budget=10_000)
    assert found is not None and found[0] == 7
    v = freeness_verdict(PSL27, max_degree=7, node_budget=10_000)
    assert v.certificate["degree"] == 7 and validate_not_free_certificate(v)


def test_quotient_search_needs_no_recursion():
    # The search keeps one stack entry per generator, not a Python frame,
    # so 1,200 generators, each killed by its own relator, run to the end.
    P = GroupPresentation(1200, tuple((g,) for g in range(1, 1201)))
    assert find_symmetric_quotient(P, 3) is None
    v = freeness_verdict(P, effort_budget=0)
    assert (v.status, v.reason) == ("UNKNOWN", "budget-exhausted:tietze")


def test_quotient_search_matches_composing_oracle():
    # Tracing points through a relator, with inverses computed on demand,
    # must leave the search exactly as it was: the same hit, images
    # included, and the same exhaustion, at every degree and budget.
    cases = [(P, degree) for P, degree in PERFECT]
    # A5 with a third generator c = a b^2 a b, a word that differs from its
    # reversal: a relator traced from the wrong end finds another image of c.
    cases.append((GroupPresentation(3, A5.relators + ((-3, 1, 2, 2, 1, 2),)), 5))
    cases += [(P, 6) for P in _random_presentations(12, seed=31)]
    cases += [(P, 6) for P in _random_presentations(12, seed=32, odd=True)]
    cases += [(P, 6) for P in _random_presentations(10, seed=33, ngens=1)]
    # three generators: S_4^3 has 13,824 triples, S_6^3 over 10^8
    cases += [(P, 4) for P in _random_presentations(10, seed=34, ngens=3)]
    cases += [(P, 4) for P in _random_presentations(10, seed=35, odd=True, ngens=3)]
    outcomes = set()
    for P, top in cases:
        for max_degree in range(2, top + 1):
            for budget in (50, 500, 10**6):
                got = _quotient_search(P, max_degree, budget)
                assert got == quotient_search_composing(P, max_degree, budget), (P, max_degree, budget)
                outcomes.add((got[0] is not None, got[1]))
    assert outcomes == {(True, False), (False, True), (False, False)}


def test_quotient_search_least_budget_for_psl27():
    # The least node_budget at which PSL(2,7) is found at degree 7, as
    # read off the search that composed permutations; any change to the
    # search order or the node count moves it.
    hit, exhausted = _quotient_search(PSL27, 7, 5235)
    assert hit == (7, ((1, 0, 3, 2, 4, 5, 6), (0, 2, 4, 5, 1, 6, 3))) and not exhausted
    assert _quotient_search(PSL27, 7, 5234) == (None, True)


def test_edge_path_needs_connected_positive_dimension():
    with pytest.raises(DimensionError):
        edge_path_presentation(from_facets([(1,), (2,)]))
    with pytest.raises(ConnectivityError):
        edge_path_presentation(from_facets([(1, 2), (3, 4)]))
    with pytest.raises(ConnectivityError):
        # an isolated vertex outside B: every edge is reached, one vertex is not
        edge_path_presentation(from_facets([(1, 2, 3), (4,)]))
    with pytest.raises(ConnectivityError):
        # the isolated vertex has the lowest id, so B is that vertex alone
        edge_path_presentation(from_facets([(0,), (1, 2, 3)]))


def _connected_random_complexes(count, seed):
    # Graphs, non-pure complexes and pseudomanifolds; B covers every vertex
    # of the fixtures and the corpus, but leaves some of these outside.
    rng = random.Random(seed)
    while count:
        K = random_complex(rng)
        if K.dimension >= 1 and K.is_connected():
            count -= 1
            yield K


def test_edge_path_matches_naive_oracle():
    corpus = [K for seed in (1, 2, 3) for K in _benchmark_corpus(seed)]
    for K in ALL_FIXTURES + corpus + list(_connected_random_complexes(300, 29)):
        for rng in (None, 1, 2, 3, 4, 5):
            got = edge_path_presentation(K, rng=rng)
            want = edge_path_presentation_quotient_naive(K, rng=rng)
            assert (got.ngens, got.relators) == (want.ngens, want.relators), (K, rng)
            assert all(got.relators), (K, rng)
    # every triangle of cp2_9 outside B has all its edges in B
    assert edge_path_presentation(fixtures.cp2_9()) == GroupPresentation(0, ())


def _verdict_key(P):
    v = freeness_verdict(P)
    return v.status, v.rank, v.reason, v.certificate and v.certificate["kind"]


def test_quotient_by_b_keeps_every_verdict():
    # K -> K/B is a homotopy equivalence, so the verdict read off K/B is
    # the one read off K's own presentation.
    circle = from_facets([(0, 1), (1, 2), (0, 2)])
    products = [
        staircase_product(fixtures.torus_7(), circle),
        staircase_product(fixtures.rp2_6(), circle),
    ]
    corpus = [K for seed in (1, 2, 3, 4) for K in _benchmark_corpus(seed)]
    keys = set()
    for K in ALL_FIXTURES + corpus + products + [circle]:
        for rng in (None, 1, 2, 3, 4, 5):
            want = _verdict_key(edge_path_presentation_naive(K, rng=rng))
            assert _verdict_key(edge_path_presentation(K, rng=rng)) == want, (K, rng)
            keys.add((want[0], want[1]))
    assert keys == {("FREE", 0), ("FREE", 1), ("UNKNOWN", None), ("NOT_FREE", None)}


def test_quotient_by_b_keeps_analyze_output(monkeypatch):
    # The same holds for everything analyze reports.
    inputs = ALL_FIXTURES + _benchmark_corpus(1)

    def payload():
        return json.dumps([[r.as_dict() for r in analyze(K)] for K in inputs])

    got = payload()
    monkeypatch.setattr(bounds, "edge_path_presentation", edge_path_presentation_naive)
    assert payload() == got


def test_abelianization_matches_h1_without_b():
    # H_1 from one SNF per whole boundary map of K, which never grows B.
    shapes = set()
    for K in _connected_random_complexes(300, 29):
        shapes.add((K.dimension, len({len(f) for f in K.facets}) > 1))
        groups = {i: (b, t) for i, b, t in profile_per_map(K)}
        want = groups.get(1, (0, ()))
        for seed in (None, 1, 2, 3):
            ab = abelianization(edge_path_presentation(K, rng=seed))
            assert (ab.rank, ab.torsion) == want, (K.facets, seed)
    assert {(1, False), (2, True), (3, True), (4, True)} <= shapes


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
