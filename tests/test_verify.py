import random

import pytest

from minitri import fixtures
from minitri.complexes import from_facets
from minitri.errors import HypothesisError, NotPseudomanifoldError
from minitri.verify import (
    alexander_duality_check,
    complement_homology_check,
    local_homology_sweep,
)

from oracles import suspension

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


@pytest.mark.parametrize("d", range(1, 6))
def test_complement_check_boundary_simplex(d):
    K = fixtures.boundary_simplex(d)
    for facet in K.facets:
        rep = complement_homology_check(K, facet)
        assert rep.passed, (d, facet)


@pytest.mark.parametrize("n", (7, 8, 9))
def test_complement_check_cyclic_spheres(n):
    K = fixtures.cyclic_polytope(n, 4)
    for facet in K.facets:
        assert complement_homology_check(K, facet).passed


def test_complement_check_rp2_uses_mod2_in_degree_one():
    K = fixtures.rp2_6()
    rep = complement_homology_check(K, (1, 2, 4))
    assert rep.passed
    caveat = [e for e in rep.entries if e.kind == "homology" and e.index == 1]
    assert caveat and all(e.coeff == "Z2" for e in caveat)
    assert any("non-orientable" in note for note in rep.notes)
    # the integral comparison in that degree is advisory only
    advisory = [e for e in rep.entries if e.advisory]
    assert advisory


def test_complement_check_orientable_keeps_integral_coefficients():
    K = fixtures.torus_7()
    rep = complement_homology_check(K, K.facets[0])
    assert rep.passed
    assert all(e.coeff == "Z" for e in rep.entries if e.kind == "homology")


def test_complement_check_requires_facet():
    K = fixtures.rp2_6()
    with pytest.raises(HypothesisError):
        complement_homology_check(K, (1, 2))  # an edge, not a facet
    with pytest.raises(HypothesisError):
        complement_homology_check(K, (1, 2, 99))


def test_complement_check_requires_pseudomanifold():
    with pytest.raises(NotPseudomanifoldError):
        complement_homology_check(BROKEN_PM, (1, 2, 3, 4))


def test_duality_on_octahedron_partitions():
    K = fixtures.cross_polytope(2)
    rng = random.Random(13)
    verts = list(K.vertices)
    for _ in range(30):
        size = rng.randint(1, len(verts) - 1)
        V = tuple(rng.sample(verts, size))
        rep = alexander_duality_check(K, V)
        assert rep.passed, V


@pytest.mark.parametrize(
    "K",
    [fixtures.cross_polytope(3), fixtures.cyclic_polytope(8, 4)],
    ids=["cross4", "C84"],
)
def test_duality_on_three_spheres(K):
    rng = random.Random(29)
    verts = list(K.vertices)
    for _ in range(20):
        size = rng.randint(1, len(verts) - 1)
        V = tuple(rng.sample(verts, size))
        assert alexander_duality_check(K, V).passed


def test_duality_includes_degenerate_partitions():
    K = fixtures.cross_polytope(2)
    rep = alexander_duality_check(K, K.vertices)  # complement is empty
    assert rep.passed
    rep = alexander_duality_check(K, ())
    assert rep.passed


def test_duality_refuses_uncertified_input():
    with pytest.raises(HypothesisError):
        alexander_duality_check(fixtures.rp2_6(), (1, 2))


def test_duality_rejects_foreign_vertices():
    K = fixtures.cross_polytope(2)
    with pytest.raises(Exception):
        alexander_duality_check(K, (999,))


def test_local_homology_sweep_fixtures():
    for K in (
        fixtures.boundary_simplex(3),
        fixtures.cross_polytope(3),
        fixtures.rp2_6(),
        fixtures.torus_7(),
        fixtures.cp2_9(),
    ):
        rep = local_homology_sweep(K)
        assert rep.passed
        assert len(rep.entries) == sum(K.f_vector())


def test_local_homology_sweep_catches_bad_link():
    # suspension of RP2: the two apex links are RP2, not spheres
    S = suspension(fixtures.rp2_6(), 90, 91)
    with pytest.raises(NotPseudomanifoldError):
        local_homology_sweep(BROKEN_PM)
    rep = local_homology_sweep(S)
    assert not rep.passed
    bad = [e.simplex for e in rep.entries if not e.passed]
    assert (90,) in bad and (91,) in bad


def test_reports_serialize():
    K = fixtures.rp2_6()
    rep = complement_homology_check(K, (1, 2, 4))
    d = rep.as_dict()
    assert d["name"] == "complement-homology"
    assert isinstance(d["entries"], list)
