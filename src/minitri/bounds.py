"""Vertex-count lower bounds for triangulations, plus an orchestrating analyzer.

Formula engines are pure integer arithmetic with brute-force binomial
searches.  ``analyze`` runs homology, the fundamental-group verdict, and
the combinatoriality certificate over a complex and emits every bound
whose hypotheses are verified or user-asserted, flagging which.  Bounds
whose hypotheses depend on the input being a manifold triangulation
carry the certificate outcome as a flag; a REJECTED certificate
suppresses them entirely.  Contradiction rule: every report whose lower
bound exceeds the vertex count is flagged as a contradiction.  The
``bound`` of ``homology-sphere-recognition`` is the 3d vertex budget,
not a lower bound, so it is never flagged.
"""

from __future__ import annotations

from math import comb

from .combinatorial import small_link_certificate
from .complexes import SimplicialComplex
from .errors import CrossCheckError, HypothesisError, NotPseudomanifoldError, _Fresh, _record
from .homology import homology, is_homology_sphere, parse_coeff
from .pi1 import abelianization, edge_path_presentation, freeness_verdict

ADAMS_DIMENSIONS = (2, 4, 8, 16)


@_record
class BoundReport:
    """One evaluated rule: the bound, its hypotheses, and how they were met."""

    rule: str
    verdict: str
    bound: int | None
    dimension: int | None
    hypotheses: dict
    applicable: bool
    flags: tuple = ()
    details: dict = _Fresh(dict)


def cat_vertex_bound(d: int, cat: int) -> int:
    """Vertex floor 1 + d + cat(cat-1)/2 from the category of the manifold."""
    if d < 1 or cat < 1:
        raise HypothesisError("need d >= 1 and cat >= 1")
    return 1 + d + cat * (cat - 1) // 2


def sphere_recognition_threshold(d: int) -> int:
    """Vertex count at or below which a simply-connected manifold is the sphere."""
    if d < 1:
        raise HypothesisError("need d >= 1")
    return 3 * d // 2 + 2


def simply_connected_bound(d: int, i: int, rank_hi: int) -> BoundReport:
    """Vertex bound for a simply-connected manifold with minimal homology in degree i.

    Middle-degree case (2i = d): 3d/2 + k + 2 with k the minimal integer
    whose binomial C(i+k, i+1) reaches the rank; k = 1 is only possible
    in dimensions 2, 4, 8, 16, so elsewhere the bound is reported with
    k = 2 and an explanatory flag.  Below the middle: 2d - i + 4.
    """
    if d < 2:
        raise HypothesisError("bound needs dimension at least 2")
    if i < 1 or 2 * i > d:
        raise HypothesisError("need 1 <= i <= d/2 for the minimal nonzero degree")
    if rank_hi < 1:
        raise HypothesisError("need rank >= 1 in the minimal nonzero degree")

    hyp = {
        "d": d,
        "i": i,
        "rank_hi": rank_hi,
        "simply_connected": "asserted",
    }
    flags = ()
    details = {"sphere_threshold": sphere_recognition_threshold(d)}
    if 2 * i == d:
        k = 1
        while comb(i + k, i + 1) < rank_hi:
            k += 1
        raw = 3 * d // 2 + k + 2
        details["case"] = "middle-degree"
        details["k"] = k
        details["raw_bound"] = raw
        if k == 1 and d not in ADAMS_DIMENSIONS:
            bound = 3 * d // 2 + 4
            flags += ("adams-adjusted",)
            details["adjusted_k"] = 2
            verdict = (
                f"at least {bound} vertices (k=1 is impossible outside dimensions "
                f"{', '.join(map(str, ADAMS_DIMENSIONS))}; raw formula gave {raw})"
            )
        else:
            bound = raw
            verdict = f"at least {bound} vertices"
    else:
        bound = 2 * d - i + 4
        details["case"] = "below-middle-degree"
        verdict = f"at least {bound} vertices"
    return BoundReport(
        rule="simply-connected-homology",
        verdict=verdict,
        bound=bound,
        dimension=d,
        hypotheses=hyp,
        applicable=True,
        flags=flags,
        details=details,
    )


def nonfree_pi1_bound(d: int, pi1_status: str = "asserted") -> BoundReport:
    """Vertex bound 3d+1 for a closed manifold whose fundamental group is not free.

    The report carries the 2d+3 baseline that already holds for any
    non-simply-connected manifold, for contrast; that baseline is
    attained by sphere-bundle-over-circle triangulations, so only the
    non-free hypothesis pushes it up to 3d+1.
    """
    if d < 3:
        raise HypothesisError("the non-free bound needs dimension at least 3")
    bound = 3 * d + 1
    baseline = 2 * d + 3
    return BoundReport(
        rule="nonfree-pi1",
        verdict=f"at least {bound} vertices",
        bound=bound,
        dimension=d,
        hypotheses={"d": d, "pi1_not_free": pi1_status},
        applicable=True,
        details={
            "baseline_nonsimply_connected": baseline,
            "baseline_note": (
                "2d+3 holds for any non-simply-connected closed manifold and is "
                "attained by sphere bundles over the circle; it cannot improve "
                "without the non-free hypothesis"
            ),
        },
    )


def homology_sphere_verdict(K: SimplicialComplex, coeff: str = "Z") -> BoundReport:
    """PL-sphere recognition: homology sphere on at most 3d vertices, 3d - 1 over Z_p.

    Dimensions 1 and 2 are decided directly (homology spheres there are
    PL-spheres regardless of size).

    Only the closed-pseudomanifold condition is checked, so the verdict
    assumes that K triangulates a manifold.  Over Z, n <= 3d then gives
    a sphere: H_1 = 0 makes pi_1 perfect; n <= 3d makes pi_1 free, so
    pi_1 is trivial; and a simply connected homology sphere is a
    homotopy sphere.  Over Z_p that argument fails, as a simply connected
    Z_p-homology sphere need not be a sphere (the Wu manifold SU(3)/SO(3)
    is a Z_3-homology 5-sphere), so the budget is the paper's n < 3d.
    """
    if not K.is_closed_pseudomanifold().is_closed_pseudomanifold:
        raise NotPseudomanifoldError("sphere recognition needs a closed pseudomanifold")
    d = K.dimension
    n = K.n_vertices
    sphere = is_homology_sphere(K, coeff=coeff)
    if d <= 2:
        budget = None
    else:
        budget = 3 * d if parse_coeff(coeff)[1] is None else 3 * d - 1
    if not sphere:
        verdict = f"no verdict: not a homology sphere over {coeff}"
    elif budget is None or n <= budget:
        verdict = "PL-sphere"
    else:
        verdict = f"no verdict: {n} vertices exceed the budget {budget}"
    return BoundReport(
        rule="homology-sphere-recognition",
        verdict=verdict,
        bound=budget,
        dimension=d,
        hypotheses={"d": d, "vertices": n, "coefficients": coeff},
        applicable=True,
        flags=("low-dimension-direct",) if budget is None else (),
        details={"vertex_budget": budget, "homology_sphere": sphere},
    )


_YES = ("true", "yes", "on", "1")
_ASSERTION_VALUES = {
    "pi1": ("not-free", "free", "trivial"),
    "simply-connected": _YES + ("false", "no", "off", "0"),
}


def _read_assertions(assertions) -> dict:
    """Assertion values, lowercased; HypothesisError on an unknown key or value."""
    out = {}
    for key, value in (assertions or {}).items():
        value = str(value).strip().lower()
        if value not in _ASSERTION_VALUES.get(key, ()):
            known = "; ".join(f"{k}={'|'.join(v)}" for k, v in _ASSERTION_VALUES.items())
            raise HypothesisError(f"unknown assertion {key}={value!r}; known: {known}")
        out[key] = value
    return out


def analyze(
    K: SimplicialComplex,
    assertions=None,
    certify: bool = True,
) -> list:
    """Run every applicable bound over a complex and report the outcomes.

    ``assertions`` may supply hypotheses the toolkit cannot verify
    (``pi1`` one of not-free, free, trivial; ``simply-connected`` a yes or
    no word); such reports are flagged as user-asserted, and an unknown
    key or value raises HypothesisError.  Verified hypotheses always
    come from the computation itself.  Every manifold-dependent report
    carries the certificate outcome as a flag, and every one whose lower
    bound exceeds the vertex count is flagged as a contradiction (some
    hypothesis must fail) rather than silently dropped.  The ``bound`` of
    ``homology-sphere-recognition`` is its 3d vertex budget, not a lower
    bound, so it is never flagged.  A REJECTED certificate replaces all
    manifold-dependent reports with one ``manifold-hypothesis`` stub.
    The abelianization of the simplified pi_1 presentation must equal
    H_1, which is read off boundary maps rather than off relators; a
    mismatch raises CrossCheckError.
    """
    asserts = _read_assertions(assertions)
    if not K.is_closed_pseudomanifold().is_closed_pseudomanifold:
        raise NotPseudomanifoldError("analysis needs a closed pseudomanifold")
    d = K.dimension
    n = K.n_vertices

    cert = small_link_certificate(K) if certify else None
    if cert is None:
        manifold_flag = "manifold-hypothesis-unchecked"
    else:
        manifold_flag = {
            "CERTIFIED": "manifold-hypothesis-supported",
            "INCONCLUSIVE": "manifold-hypothesis-unverified",
            "REJECTED": "manifold-hypothesis-rejected",
        }[cert.verdict]

    reports = []
    reports.append(
        BoundReport(
            rule="vertex-floor",
            verdict=f"at least {d + 2} vertices (boundary of the simplex is minimal)",
            bound=d + 2,
            dimension=d,
            hypotheses={"d": d, "vertices": n},
            applicable=True,
            flags=(),
            details={},
        )
    )

    prof = homology(K)
    t1 = prof.torsion(1)

    # Fundamental group: computed verdict first, assertions on top.
    fv = freeness_verdict(edge_path_presentation(K))
    ab = abelianization(fv.presentation)
    if (ab.rank, ab.torsion) != prof.group(1):
        raise CrossCheckError(f"pi_1 abelianizes to {ab.describe()} but H_1 is {prof.describe(1)}")
    pi1_assert = asserts.get("pi1", "")
    sc_asserted = asserts.get("simply-connected") in _YES or pi1_assert == "trivial"

    not_free_status = None
    if fv.status == "NOT_FREE":
        not_free_status = "verified"
    elif pi1_assert == "not-free":
        not_free_status = "asserted"

    simply_connected = None
    if fv.status == "FREE" and fv.rank == 0:
        simply_connected = "verified"
    elif sc_asserted:
        simply_connected = "asserted"

    nontrivial = None
    if fv.status == "NOT_FREE" or (fv.status == "FREE" and fv.rank > 0):
        nontrivial = "verified"
    elif prof.betti(1) > 0:
        # pi_1 maps onto H_1, so a free summand there makes it nontrivial
        nontrivial = "verified (H1)"
    elif pi1_assert == "not-free":
        nontrivial = "asserted"

    pi1_details = {
        "computed": fv.status,
        "free_rank": fv.rank,
        "H1": prof.describe(1),
    }
    if t1:
        pi1_details["H1_torsion"] = list(t1)
    if fv.reason:
        pi1_details["reason"] = fv.reason
    if pi1_assert:
        pi1_details["asserted"] = pi1_assert
    reports.append(
        BoundReport(
            rule="pi1-status",
            verdict=f"fundamental group: {fv.status}"
            + (f" (rank {fv.rank})" if fv.status == "FREE" else ""),
            bound=None,
            dimension=d,
            hypotheses={"pi1": fv.status},
            applicable=True,
            flags=(),
            details=pi1_details,
        )
    )
    if d < 3:
        reports.append(
            BoundReport(
                rule="nonfree-pi1",
                verdict="inapplicable: dimension below 3",
                bound=None,
                dimension=d,
                hypotheses={"d": d},
                applicable=False,
                flags=(),
                details={"H1_torsion": list(t1)} if t1 else {},
            )
        )

    if cert is not None and cert.verdict == "REJECTED":
        reports.append(
            BoundReport(
                rule="manifold-hypothesis",
                verdict=(
                    "combinatoriality certificate REJECTED: manifold-dependent "
                    "bounds suppressed"
                ),
                bound=None,
                dimension=d,
                hypotheses={"witness": list(cert.witness) if cert.witness else None},
                applicable=False,
                flags=(manifold_flag,),
                details={"witness_reason": cert.witness_reason},
            )
        )
        return reports

    # Everything below assumes K triangulates a manifold.
    dependent = []
    if d >= 3:
        # Non-free fundamental group forces 3d+1 vertices.
        if not_free_status:
            dependent.append(nonfree_pi1_bound(d, pi1_status=not_free_status))
        if n < 3 * d + 1:
            dependent.append(
                BoundReport(
                    rule="free-pi1-contrapositive",
                    verdict="fundamental group must be free (or trivial)",
                    bound=None,
                    dimension=d,
                    hypotheses={"vertices": n, "threshold": 3 * d + 1, "manifold": "see flags"},
                    applicable=True,
                    details={"computed_pi1": fv.status, "free_rank": fv.rank},
                )
            )
        # 2d+3 for anything non-simply-connected.
        if nontrivial:
            dependent.append(
                BoundReport(
                    rule="nonsimply-connected-baseline",
                    verdict=f"at least {2 * d + 3} vertices",
                    bound=2 * d + 3,
                    dimension=d,
                    hypotheses={"d": d, "pi1_nontrivial": nontrivial},
                    applicable=True,
                )
            )

    # Simply-connected chain from the minimal nonzero reduced degree.
    if simply_connected and d >= 2:
        reduced = homology(K, reduced=True)
        i_min = next(
            (i for i in range(1, d + 1) if reduced.group(i) != (0, ())), None
        )
        threshold = sphere_recognition_threshold(d)
        if i_min == d or i_min is None:
            dependent.append(
                BoundReport(
                    rule="sphere-recognition",
                    verdict=f"homology trivial below the top degree: represents the {d}-sphere",
                    bound=d + 2,
                    dimension=d,
                    hypotheses={"simply_connected": simply_connected},
                    applicable=True,
                    details={"sphere_threshold": threshold},
                )
            )
        elif 2 * i_min <= d:
            betti = reduced.betti(i_min)
            if betti >= 1:
                r = simply_connected_bound(d, i_min, betti)
                dependent.append(
                    r._replace(hypotheses={**r.hypotheses, "simply_connected": simply_connected})
                )
            else:
                dependent.append(
                    BoundReport(
                        rule="simply-connected-homology",
                        verdict="minimal nonzero degree is pure torsion; rank formula not evaluated",
                        bound=None,
                        dimension=d,
                        hypotheses={"i": i_min, "torsion": list(reduced.torsion(i_min))},
                        applicable=False,
                        details={"sphere_threshold": threshold},
                    )
                )
        else:
            dependent.append(
                BoundReport(
                    rule="simply-connected-homology",
                    verdict=(
                        "minimal nonzero degree lies above the middle: inconsistent "
                        "with a closed orientable manifold"
                    ),
                    bound=None,
                    dimension=d,
                    hypotheses={"i": i_min},
                    applicable=False,
                )
            )

    # Non-free pi1 forces category >= 4, which has its own vertex floor.
    if d >= 3 and not_free_status:
        bound = cat_vertex_bound(d, 4)
        dependent.append(
            BoundReport(
                rule="category-route",
                verdict=f"category at least 4, hence at least {bound} vertices",
                bound=bound,
                dimension=d,
                hypotheses={"d": d, "cat": 4, "pi1_not_free": not_free_status},
                applicable=True,
                details={"note": "weaker than the 3d+1 route except at d=3, where both give 10"},
            )
        )

    # Sphere recognition over Z, and over a small prime field that disagrees.
    base = homology_sphere_verdict(K, "Z")
    dependent.append(base)
    for coeff in ("Z2", "Z3", "Z5"):
        r = homology_sphere_verdict(K, coeff)
        if r.details["homology_sphere"] != base.details["homology_sphere"]:
            dependent.append(r)

    for r in dependent:
        flags = r.flags + (manifold_flag,)
        if r.rule != "homology-sphere-recognition" and r.bound is not None and r.bound > n:
            flags += ("contradiction: bound exceeds vertex count, a hypothesis must fail",)
        reports.append(r._replace(flags=flags))
    return reports
