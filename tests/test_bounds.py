import hashlib
import json

import pytest

from minitri import bounds, fixtures
from minitri.bounds import (
    analyze,
    cat_vertex_bound,
    homology_sphere_verdict,
    nonfree_pi1_bound,
    simply_connected_bound,
    sphere_recognition_threshold,
)
from minitri.complexes import from_facets
from minitri.errors import CrossCheckError, HypothesisError, NotPseudomanifoldError
from minitri.homology import homology
from minitri.pi1 import GroupPresentation

from oracles import staircase_product, suspension
from test_complexes import _benchmark_corpus


def test_cat_vertex_bound():
    assert cat_vertex_bound(3, 4) == 10  # agrees with the non-free route at d=3
    assert cat_vertex_bound(4, 4) == 11
    assert cat_vertex_bound(2, 3) == 6
    with pytest.raises(HypothesisError):
        cat_vertex_bound(0, 2)


def test_sphere_recognition_threshold():
    assert sphere_recognition_threshold(4) == 8
    assert sphere_recognition_threshold(3) == 6
    assert sphere_recognition_threshold(5) == 9
    assert sphere_recognition_threshold(2) == 5


def test_nonfree_pi1_bound_values():
    r3 = nonfree_pi1_bound(3)
    assert r3.bound == 10
    assert r3.details["baseline_nonsimply_connected"] == 9
    r4 = nonfree_pi1_bound(4)
    assert r4.bound == 13
    assert r4.details["baseline_nonsimply_connected"] == 11
    with pytest.raises(HypothesisError):
        nonfree_pi1_bound(2)


def test_simply_connected_bound_middle_degree():
    r = simply_connected_bound(4, 2, 1)
    assert r.bound == 9
    assert "adams-adjusted" not in r.flags
    assert r.details["k"] == 1
    # higher rank pushes k up: C(3,3)=1 < 2 <= C(4,3)=4
    r = simply_connected_bound(4, 2, 2)
    assert r.details["k"] == 2 and r.bound == 10


def test_simply_connected_bound_adams_adjustment():
    # d=6 is not one of the allowed dimensions for k=1
    r = simply_connected_bound(6, 3, 1)
    assert "adams-adjusted" in r.flags
    assert r.bound == 13
    assert r.details["raw_bound"] == 12
    # d=8 is allowed, no adjustment
    r = simply_connected_bound(8, 4, 1)
    assert "adams-adjusted" not in r.flags
    assert r.bound == 15


def test_simply_connected_bound_below_middle():
    r = simply_connected_bound(4, 1, 2)
    assert r.bound == 2 * 4 - 1 + 4 == 11
    assert r.details["case"] == "below-middle-degree"
    r = simply_connected_bound(5, 2, 1)
    assert r.bound == 2 * 5 - 2 + 4 == 12


def test_simply_connected_bound_hypotheses():
    with pytest.raises(HypothesisError):
        simply_connected_bound(4, 3, 1)  # i > d/2
    with pytest.raises(HypothesisError):
        simply_connected_bound(5, 3, 1)  # 2i = 6 > 5
    with pytest.raises(HypothesisError):
        simply_connected_bound(4, 2, 0)
    with pytest.raises(HypothesisError):
        simply_connected_bound(1, 1, 1)


def test_homology_sphere_verdicts():
    assert homology_sphere_verdict(fixtures.boundary_simplex(4)).verdict == "PL-sphere"
    assert homology_sphere_verdict(fixtures.cross_polytope(3)).verdict == "PL-sphere"
    r = homology_sphere_verdict(fixtures.cyclic_polytope(12, 4))
    assert "exceed the budget" in r.verdict
    r = homology_sphere_verdict(fixtures.rp2_6())
    assert r.verdict.startswith("no verdict")
    assert "low-dimension-direct" in r.flags
    r = homology_sphere_verdict(fixtures.cp2_9(), coeff="Z2")
    assert r.verdict.startswith("no verdict")


def test_field_sphere_budget_is_below_3d():
    # The paper proves the Z_p verdict for n < 3d only; C(9,4) has n = 3d.
    K = fixtures.cyclic_polytope(9, 4)
    r = homology_sphere_verdict(K, "Z3")
    assert (r.bound, r.details["vertex_budget"], r.details["homology_sphere"]) == (8, 8, True)
    assert r.verdict == "no verdict: 9 vertices exceed the budget 8"
    r = homology_sphere_verdict(K, "Z")
    assert (r.verdict, r.bound) == ("PL-sphere", 9)
    assert homology_sphere_verdict(fixtures.cyclic_polytope(8, 4), "Z3").verdict == "PL-sphere"


def test_analyze_c94_contrapositive():
    reports = analyze(fixtures.cyclic_polytope(9, 4))
    rules = {r.rule: r for r in reports}
    cp = rules["free-pi1-contrapositive"]
    assert cp.applicable
    assert cp.hypotheses["threshold"] == 10
    assert cp.details["computed_pi1"] == "FREE"
    assert cp.details["free_rank"] == 0
    assert "manifold-hypothesis-supported" in cp.flags
    assert rules["homology-sphere-recognition"].verdict == "PL-sphere"


def test_analyze_rp2_notes_torsion():
    reports = analyze(fixtures.rp2_6())
    rules = {r.rule: r for r in reports}
    nf = rules["nonfree-pi1"]
    assert not nf.applicable  # dimension 2
    assert nf.details.get("H1_torsion") == [2]
    assert rules["pi1-status"].details["computed"] == "NOT_FREE"
    assert "nonsimply-connected-baseline" not in rules


def test_analyze_cp2_middle_degree_bound_attained():
    reports = analyze(fixtures.cp2_9())
    rules = {r.rule: r for r in reports}
    sc = rules["simply-connected-homology"]
    assert sc.bound == 9 == fixtures.cp2_9().n_vertices
    assert sc.hypotheses["simply_connected"] == "verified"
    assert sc.details["k"] == 1
    assert "adams-adjusted" not in sc.flags


def test_analyze_sphere_recognition_on_boundary_simplex():
    reports = analyze(fixtures.boundary_simplex(5))
    rules = {r.rule: r for r in reports}
    assert rules["sphere-recognition"].bound == 7
    assert rules["vertex-floor"].bound == 7
    assert rules["homology-sphere-recognition"].verdict == "PL-sphere"


def test_analyze_rejected_suppresses_manifold_bounds():
    S = suspension(fixtures.rp2_6(), 90, 91)
    reports = analyze(S)
    rules = {r.rule: r for r in reports}
    assert "free-pi1-contrapositive" not in rules
    assert "homology-sphere-recognition" not in rules
    assert "nonsimply-connected-baseline" not in rules
    stub = rules["manifold-hypothesis"]
    assert not stub.applicable
    assert "manifold-hypothesis-rejected" in stub.flags


@pytest.mark.parametrize(
    "assertions",
    [{"pi1": "notfree"}, {"pi": "not-free"}, {"simply-connected": "maybe"}, {"pi1": ""}],
)
def test_analyze_rejects_unknown_assertions(assertions):
    with pytest.raises(HypothesisError):
        analyze(fixtures.cyclic_polytope(9, 4), assertions=assertions)


def test_analyze_normalizes_assertion_values():
    K = fixtures.cyclic_polytope(9, 4)
    want = [r.as_dict() for r in analyze(K, assertions={"pi1": "not-free"})]
    got = [r.as_dict() for r in analyze(K, assertions={"pi1": " Not-Free ", "simply-connected": "no"})]
    assert got == want


def test_analyze_asserted_not_free_contradiction():
    reports = analyze(fixtures.cyclic_polytope(9, 4), assertions={"pi1": "not-free"})
    rules = {r.rule: r for r in reports}
    nf = rules["nonfree-pi1"]
    assert nf.hypotheses["pi1_not_free"] == "asserted"
    assert nf.bound == 10
    assert any(f.startswith("contradiction") for f in nf.flags)
    # every lower bound above the 9 vertices is flagged, and only those
    cat = rules["category-route"]
    assert cat.bound == 10
    assert any(f.startswith("contradiction") for f in cat.flags)
    base = rules["nonsimply-connected-baseline"]
    assert base.bound == 9
    assert not any(f.startswith("contradiction") for f in base.flags)


def test_analyze_verified_bounds_never_exceed_vertex_count():
    for K in (
        fixtures.boundary_simplex(3),
        fixtures.cross_polytope(2),
        fixtures.rp2_6(),
        fixtures.torus_7(),
        fixtures.cp2_9(),
        fixtures.cyclic_polytope(9, 4),
    ):
        for r in analyze(K):
            if r.bound is None or not r.applicable:
                continue
            asserted = any(v == "asserted" for v in r.hypotheses.values())
            if not asserted and r.rule != "homology-sphere-recognition":
                assert r.bound <= K.n_vertices, (r.rule, r.bound, K.n_vertices)


def test_analyze_requires_pseudomanifold():
    with pytest.raises(NotPseudomanifoldError):
        analyze(from_facets([(1, 2, 3), (3, 4)]))


def test_analyze_unknown_pi1_stays_quiet():
    reports = analyze(fixtures.torus_7())
    rules = {r.rule: r for r in reports}
    assert rules["pi1-status"].details["computed"] == "UNKNOWN"
    assert "nonfree-pi1" not in rules or not rules["nonfree-pi1"].applicable
    assert "simply-connected-homology" not in rules
    assert "sphere-recognition" not in rules


def test_analyze_free_h1_verifies_nonsimply_connected():
    # T^2 x S^1: pi_1 = Z^3 is not free, but no certificate of that is
    # found, so only H_1 = Z^3 shows pi_1 is nontrivial.
    circle = from_facets([(0, 1), (1, 2), (0, 2)])
    T3 = staircase_product(staircase_product(circle, circle), circle)
    assert T3.is_closed_pseudomanifold().is_closed_pseudomanifold
    assert homology(T3).groups == ((0, 1, ()), (1, 3, ()), (2, 3, ()), (3, 1, ()))
    rules = {r.rule: r for r in analyze(T3)}
    assert rules["pi1-status"].details["computed"] == "UNKNOWN"
    base = rules["nonsimply-connected-baseline"]
    assert base.hypotheses == {"d": 3, "pi1_nontrivial": "verified (H1)"}
    assert base.bound == 9 <= T3.n_vertices == 27
    assert not any(f.startswith("contradiction") for f in base.flags)
    # a verified H_1 outranks an assertion
    rules = {r.rule: r for r in analyze(T3, {"pi1": "not-free"})}
    assert rules["nonsimply-connected-baseline"].hypotheses["pi1_nontrivial"] == "verified (H1)"


def test_analyze_output_unchanged_where_h1_is_zero_or_d_below_3():
    # The H_1 rule adds a report only for d >= 3 and betti_1 > 0.  None of
    # these inputs has both, so their analyze output is pinned byte for
    # byte: the SHA-256 of the JSON below, as it was before the rule.
    inputs = (
        [fixtures.boundary_simplex(d) for d in range(1, 7)]
        + [fixtures.cross_polytope(d) for d in range(1, 7)]
        + [fixtures.cyclic_polytope(9, 4), fixtures.cyclic_polytope(16, 6)]
        + [fixtures.rp2_6(), fixtures.torus_7(), fixtures.cp2_9()]
        + [K for seed in (1, 2, 3) for K in _benchmark_corpus(seed)]
    )
    assert all(K.dimension < 3 or homology(K).betti(1) == 0 for K in inputs)
    payload = json.dumps([[r.as_dict() for r in analyze(K)] for K in inputs], sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == "b009e2e7abcd80fc43a373dd7e2a08a2e5f4147abeab63775c751a6c90a07ba8"


@pytest.mark.parametrize(
    "K, forged",
    [
        # a 3-sphere whose presentation claims Z, an RP^2 whose claims Z/3
        (fixtures.boundary_simplex(4), GroupPresentation(1, ())),
        (fixtures.rp2_6(), GroupPresentation(1, ((1, 1, 1),))),
    ],
    ids=["sphere-as-Z", "rp2-as-Z3"],
)
def test_analyze_cross_checks_pi1_against_h1(monkeypatch, K, forged):
    monkeypatch.setattr(bounds, "edge_path_presentation", lambda K: forged)
    with pytest.raises(CrossCheckError, match="abelianizes"):
        analyze(K)


def test_reports_serialize():
    payload = [r.as_dict() for r in analyze(fixtures.rp2_6())]
    json.dumps(payload)
    assert all("rule" in d and "verdict" in d for d in payload)
