"""Acceptance gate: one test per shipped guarantee, with stated budgets.

Each test prints a single PASS line on success so a verbose run reads as
a checklist.  Budgets are wall-clock upper bounds, generous enough for
CI noise but tight enough to catch algorithmic regressions.
"""

import random
import time

from minitri import fixtures
from minitri.bounds import (
    analyze,
    cat_vertex_bound,
    nonfree_pi1_bound,
    simply_connected_bound,
    sphere_recognition_threshold,
)
from minitri.combinatorial import small_link_certificate
from minitri.homology import homology
from minitri.pi1 import (
    GroupPresentation,
    abelianization,
    edge_path_presentation,
    freeness_verdict,
    validate_not_free_certificate,
)
from minitri.snf import smith_normal_form
from minitri.verify import alexander_duality_check, complement_homology_check

from oracles import random_matrix, snf_invariant_factors_naive, suspension


def _report(name, started):
    print(f"PASS {name} ({time.monotonic() - started:.2f}s)")


def test_homology_exactness_under_five_seconds():
    started = time.monotonic()
    for d in range(2, 7):
        prof = homology(fixtures.boundary_simplex(d))
        assert prof.group(0) == (1, ())
        assert prof.group(d) == (1, ())
        assert all(prof.group(i) == (0, ()) for i in range(1, d))
    for d in range(2, 7):
        assert homology(fixtures.cross_polytope(d), reduced=True).is_sphere(d)
    rp2 = homology(fixtures.rp2_6())
    assert rp2.group(0) == (1, ())
    assert rp2.group(1) == (0, (2,))
    assert rp2.group(2) == (0, ())
    mod2 = homology(fixtures.rp2_6(), coeff="Z2")
    assert [mod2.betti(i) for i in range(3)] == [1, 1, 1]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"homology suite took {elapsed:.2f}s"
    _report("homology exactness (spheres d=2..6, RP2 over Z and Z2)", started)


def test_snf_matches_naive_oracle_500_matrices():
    started = time.monotonic()
    rng = random.Random(314159)
    for _ in range(500):
        M = random_matrix(rng, max_dim=8, lo=-9, hi=9)
        got = smith_normal_form(M).invariant_factors
        want = snf_invariant_factors_naive(M)
        assert got == want, (M, got, want)
    _report("SNF oracle equivalence (500 random matrices up to 8x8)", started)


def test_complement_homology_reproduction():
    started = time.monotonic()
    for d in range(1, 6):
        K = fixtures.boundary_simplex(d)
        for facet in K.facets:
            assert complement_homology_check(K, facet).passed, (d, facet)
    for n in (7, 8, 9):
        K = fixtures.cyclic_polytope(n, 4)
        for facet in K.facets:
            assert complement_homology_check(K, facet).passed, (n, facet)
    rep = complement_homology_check(fixtures.rp2_6(), (1, 2, 4))
    assert rep.passed
    caveat = [e for e in rep.entries if e.kind == "homology" and e.index == 1]
    assert caveat and caveat[0].coeff == "Z2"
    assert caveat[0].left == "Z2" and caveat[0].right == "Z2" and caveat[0].equal
    _report("complement homology check (simplex boundaries, cyclic spheres, RP2 mod-2 branch)", started)


def test_alexander_duality_100_partitions():
    started = time.monotonic()
    rng = random.Random(1618)
    spheres = [
        fixtures.cross_polytope(2),
        fixtures.cross_polytope(3),
        fixtures.cyclic_polytope(8, 4),
    ]
    checks = 0
    while checks < 100:
        S = spheres[checks % len(spheres)]
        verts = list(S.vertices)
        size = rng.randint(1, len(verts) - 1)
        V = tuple(rng.sample(verts, size))
        rep = alexander_duality_check(S, V)
        assert rep.passed, (S.n_vertices, V)
        assert all(e.equal for e in rep.entries)
        checks += 1
    _report("Alexander duality (100 random partitions over three spheres)", started)


def test_bound_formula_reproduction():
    started = time.monotonic()
    r = nonfree_pi1_bound(3)
    assert r.bound == 10 and r.details["baseline_nonsimply_connected"] == 9
    r = nonfree_pi1_bound(4)
    assert r.bound == 13 and r.details["baseline_nonsimply_connected"] == 11
    r = simply_connected_bound(4, 2, 1)
    assert r.bound == 9 and "adams-adjusted" not in r.flags
    assert sphere_recognition_threshold(4) == 8
    assert cat_vertex_bound(3, 4) == 10 == nonfree_pi1_bound(3).bound
    _report("bound formulas (non-free 3d+1, middle-degree, threshold, category)", started)


def test_contrapositive_pipeline_under_ten_seconds():
    started = time.monotonic()
    K = fixtures.cyclic_polytope(9, 4)
    reports = analyze(K)
    rules = {r.rule: r for r in reports}
    cp = rules["free-pi1-contrapositive"]
    assert cp.applicable
    assert cp.hypotheses["vertices"] == 9 and cp.hypotheses["threshold"] == 10
    verdict = freeness_verdict(edge_path_presentation(K))
    assert verdict.status == "FREE" and verdict.rank == 0
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"
    _report("free-fundamental-group contrapositive pipeline on C(9,4)", started)


def test_certificates_with_budgets():
    started = time.monotonic()
    for d in range(1, 7):
        assert small_link_certificate(fixtures.boundary_simplex(d)).verdict == "CERTIFIED"
        assert small_link_certificate(fixtures.cross_polytope(d)).verdict == "CERTIFIED"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"certified sweeps took {elapsed:.2f}s"

    cert = small_link_certificate(fixtures.cyclic_polytope(12, 4))
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.witness is not None
    assert "budget" in cert.witness_reason

    corrupted = suspension(fixtures.rp2_6(), 90, 91)
    cert = small_link_certificate(corrupted)
    assert cert.verdict == "REJECTED"
    assert cert.witness in ((90,), (91,))

    # one more level down: rejection driven by link homology at sphere_dim 3
    double = suspension(corrupted, 92, 93)
    cert = small_link_certificate(double)
    assert cert.verdict == "REJECTED"
    _report("combinatoriality certificates (CERTIFIED d<=6, INCONCLUSIVE C(12,4), REJECTED corrupted)", started)


def test_pi1_soundness():
    started = time.monotonic()
    for K in (
        fixtures.boundary_simplex(2),
        fixtures.boundary_simplex(4),
        fixtures.cross_polytope(2),
        fixtures.cross_polytope(3),
        fixtures.rp2_6(),
        fixtures.torus_7(),
        fixtures.cp2_9(),
        fixtures.cyclic_polytope(8, 4),
    ):
        ab = abelianization(edge_path_presentation(K))
        b1, t1 = homology(K).group(1)
        assert (ab.rank, ab.torsion) == (b1, t1), K.facets[:2]

    for K, expected in (
        (fixtures.rp2_6(), "NOT_FREE"),
        (fixtures.torus_7(), "UNKNOWN"),
        (fixtures.cp2_9(), "FREE"),
    ):
        for seed in range(20):
            P = edge_path_presentation(K, rng=random.Random(seed))
            assert freeness_verdict(P).status == expected, (expected, seed)

    icosahedral = GroupPresentation(
        ngens=2,
        relators=((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)),
    )
    v = freeness_verdict(icosahedral)
    assert v.status == "NOT_FREE"
    assert v.reason == "perfect-and-nontrivial-quotient"
    assert v.certificate["degree"] == 5
    ident = tuple(range(5))
    assert any(tuple(img) != ident for img in v.certificate["images"])
    assert validate_not_free_certificate(v)
    _report("fundamental group soundness (H1 agreement, 20-seed stability, S5 certificate)", started)
