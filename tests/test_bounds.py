import pytest

from minitri import fixtures
from minitri.bounds import (
    analyze,
    cat_vertex_bound,
    homology_sphere_verdict,
    nonfree_pi1_bound,
    simply_connected_bound,
    sphere_recognition_threshold,
)
from minitri.errors import HypothesisError, NotPseudomanifoldError

from oracles import suspension


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
    from minitri.complexes import from_facets

    with pytest.raises(NotPseudomanifoldError):
        analyze(from_facets([(1, 2, 3), (3, 4)]))


def test_analyze_unknown_pi1_stays_quiet():
    reports = analyze(fixtures.torus_7())
    rules = {r.rule: r for r in reports}
    assert rules["pi1-status"].details["computed"] == "UNKNOWN"
    assert "nonfree-pi1" not in rules or not rules["nonfree-pi1"].applicable
    assert "simply-connected-homology" not in rules
    assert "sphere-recognition" not in rules


def test_reports_serialize():
    import json

    payload = [r.as_dict() for r in analyze(fixtures.rp2_6())]
    json.dumps(payload)
    assert all("rule" in d and "verdict" in d for d in payload)
