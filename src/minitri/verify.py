"""Executable property checks tying the homology engine to itself.

Three checks, each reporting group-by-group comparisons rather than a
bare boolean: complement homology against the ambient complex, Alexander
duality across a vertex partition of a certified sphere, and local
homology of links.  Groups are compared as invariants (Betti number plus
torsion coefficients); no maps are constructed.
"""

from __future__ import annotations

from .combinatorial import certified_sphere
from .complexes import SimplicialComplex, _compact
from .errors import HypothesisError, NotPseudomanifoldError, _record
from .homology import cohomology, homology


@_record
class GroupComparison:
    """One compared degree: left/right group descriptions and the outcome.

    ``advisory`` marks comparisons that are reported but excluded from
    the pass verdict.
    """

    index: int
    kind: str
    coeff: str
    left: str
    right: str
    equal: bool
    advisory: bool = False
    note: str = ""

    def as_dict(self):
        return {
            "index": self.index,
            "kind": self.kind,
            "coefficients": self.coeff,
            "left": self.left,
            "right": self.right,
            "equal": self.equal,
            "advisory": self.advisory,
            "note": self.note,
        }


@_record
class LinkSphereCheck:
    simplex: tuple
    sphere_dim: int
    observed: str
    passed: bool

    def as_dict(self):
        return {
            "simplex": list(self.simplex),
            "sphere_dim": self.sphere_dim,
            "observed": self.observed,
            "passed": self.passed,
        }


@_record
class CheckReport:
    name: str
    passed: bool
    entries: tuple
    notes: tuple = ()

    def as_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "entries": [e.as_dict() for e in self.entries],
            "notes": list(self.notes),
        }


def _groups_text(prof) -> str:
    if not prof.groups:
        return "trivial"
    return ", ".join(f"H{dim}={prof.describe(dim)}" for dim, _, _ in prof.groups)


def complement_homology_check(K: SimplicialComplex, facet) -> CheckReport:
    """Compare the full subcomplex on the non-facet vertices against K.

    For a closed pseudomanifold of dimension d and a facet F, the full
    subcomplex on the remaining vertices must match the homology of K in
    every degree below d, over the integers; when K is non-orientable
    the top comparison degree d-1 uses Z/2 instead.  Cohomology is
    compared over Z in the same range, with the d-1 comparison demoted
    to advisory for non-orientable K.
    """
    report = K.is_closed_pseudomanifold()
    if not report.is_closed_pseudomanifold:
        raise NotPseudomanifoldError("complement check needs a closed pseudomanifold")
    d = K.dimension
    chosen = tuple(facet)
    if len(set(chosen)) != d + 1 or not K.has_simplex(chosen):
        raise HypothesisError(f"{chosen!r} does not span a facet of the complex")

    inside = set(chosen)
    rest = [v for v in K.vertices if v not in inside]
    L = K.full_subcomplex(rest)
    orientable = K.is_orientable()
    caveat = None if orientable else d - 1

    hK = homology(K)
    hL = homology(L)
    cK = cohomology(K)
    cL = cohomology(L)
    need_z2 = caveat is not None
    if need_z2:
        h2K = homology(K, coeff="Z2")
        h2L = homology(L, coeff="Z2")

    entries = []
    for i in range(d):
        if i == caveat:
            left, right = h2K.describe(i), h2L.describe(i)
            entries.append(
                GroupComparison(
                    index=i,
                    kind="homology",
                    coeff="Z2",
                    left=left,
                    right=right,
                    equal=h2K.group(i) == h2L.group(i),
                    note="Z2 coefficients: non-orientable complex, top comparison degree",
                )
            )
        else:
            entries.append(
                GroupComparison(
                    index=i,
                    kind="homology",
                    coeff="Z",
                    left=hK.describe(i),
                    right=hL.describe(i),
                    equal=hK.group(i) == hL.group(i),
                )
            )
    for i in range(d):
        advisory = i == caveat
        entries.append(
            GroupComparison(
                index=i,
                kind="cohomology",
                coeff="Z",
                left=cK.describe(i),
                right=cL.describe(i),
                equal=cK.group(i) == cL.group(i),
                advisory=advisory,
                note="advisory: integral cohomology at the non-orientable caveat degree"
                if advisory
                else "",
            )
        )

    passed = all(e.equal for e in entries if not e.advisory)
    notes = (
        f"complement spans {len(rest)} vertices, dimension {L.dimension}",
        "orientable" if orientable else "non-orientable: degree d-1 compared over Z2",
    )
    return CheckReport("complement-homology", passed, tuple(entries), notes)


def alexander_duality_check(S: SimplicialComplex, V) -> CheckReport:
    """Reduced homology of K(V) against reduced cohomology of K(V') in
    complementary degree, over a certified PL-sphere.

    The combinatoriality certificate must prove the sphere (the duality
    statement is simply false on other inputs); it is memoized per complex.
    """
    n = S.dimension
    if not certified_sphere(S):
        raise HypothesisError(
            "duality needs a certified PL-sphere; certification failed or was inconclusive"
        )
    vset = set(V)
    S._vertex_ids(vset)
    left_part = [v for v in S.vertices if v in vset]
    right_part = [v for v in S.vertices if v not in vset]
    A = S.full_subcomplex(left_part)
    B = S.full_subcomplex(right_part)

    hA = homology(A, reduced=True)
    cB = cohomology(B, reduced=True)
    entries = []
    for i in range(-1, n + 1):
        j = n - i - 1
        entries.append(
            GroupComparison(
                index=i,
                kind="duality",
                coeff="Z",
                left=hA.describe(i),
                right=cB.describe(j),
                equal=hA.group(i) == cB.group(j),
                note=f"reduced H_{i} of K(V) vs reduced H^{j} of K(V')",
            )
        )
    passed = all(e.equal for e in entries)
    notes = (
        f"sphere dimension {n}; |V|={len(left_part)}, |V'|={len(right_part)}",
    )
    return CheckReport("alexander-duality", passed, tuple(entries), notes)


def local_homology_sweep(K: SimplicialComplex) -> CheckReport:
    """Check that every simplex's link is a homology sphere of complementary dimension.

    Simplices come by dimension, in ``faces`` order; each dimension's
    links are read from one ``_links`` pass over the facets.
    """
    if not K.is_closed_pseudomanifold().is_closed_pseudomanifold:
        raise NotPseudomanifoldError("local homology needs a closed pseudomanifold")
    d = K.dimension
    entries = []
    for i in range(d + 1):
        k = d - i - 1
        links = K._links(i)
        for s in K._ifaces(i):
            prof = homology(_compact(K.labels, links[s]), reduced=True)
            entries.append(
                LinkSphereCheck(K._to_labels(s), k, _groups_text(prof), prof.is_sphere(k))
            )
    passed = all(e.passed for e in entries)
    failures = sum(1 for e in entries if not e.passed)
    notes = (f"{len(entries)} simplices checked, {failures} failures",)
    return CheckReport("local-homology", passed, tuple(entries), notes)
