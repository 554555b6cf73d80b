"""Simplicial homology and cohomology with exact integer arithmetic.

Boundary matrices follow the alternating-sum convention over sorted
vertex tuples: the column of an i-face sigma has entry (-1)^j in the
row of the face obtained by deleting sigma's j-th vertex.  Faces are
indexed in lexicographic id order, so matrices are reproducible.

Each boundary matrix is built sparse, as a SparseMatrix of +-1 entries,
and reduced over Z by the Smith normal form of ``snf``.  Betti numbers
come from its ranks and torsion from the invariant factors of the next
boundary map.  Over a prime field Z_p nothing is reduced: the profile
follows from the integral one by universal coefficients,
H_i(K; Z_p) = H_i(K) (x) Z_p + Tor(H_{i-1}(K), Z_p).  Reduced homology
and cohomology are read off the unreduced profile of the same kind and
ring, so no augmented map is reduced.  This is exact: augmenting by the
empty simplex adds only the map C_0 -> Z, which is onto when K is
nonempty, so it takes one free summand out of H_0 and of H^0, which are
free, and leaves every other group as it is.  The empty complex has a
single reduced group Z in dimension -1, which keeps duality bookkeeping
uniform.

Homology reduces the maps of the pair (K, B), B a contractible union of
facets.  B starts as the closed star st v = v * lk v, v being the
vertex in the most facets (lowest id on ties); st v is a cone, hence
contractible.  B then grows in passes over the other facets in id order
until a pass adds nothing: the shelling-like growth behind the random
discrete Morse reductions of Benedetti and Lutz (arXiv:1303.6422), made
deterministic and done facet by facet.  A facet F joins when X, the set
of vertices of F opposite its ridges in B, has 1 <= |X| < |F| and is
not a face of B.  A face of F in B cannot hold all of X, since B is
closed under faces, so it misses some x in X and lies in the ridge
F - x, which is in B.  So F meets B in the union of the ridges F - x,
x in X.  Each of them holds every vertex of F - X, which is not empty: the
union is a cone on any such vertex, hence contractible, and so is B
with F added.  The exact sequence of the pair gives H_i(K) = H_i(K, B)
for i >= 1 and H_0(K) = H_0(K, B) + Z.  The relative chains are spanned
by the faces of the facets left over that are not in B.  B's faces are
kept in one set, less those through v: no face of a facet without v is
one of them.  The faces of F outside B are exactly those that hold all
of X, so only they are added when F joins.  On the boundaries of
simplices, cross polytopes and the cyclic polytopes of the ladder, B
takes every facet but one, whose proper faces all lie in B.

The maps are reduced top degree first, and cleared: every i-face that
is a unit pivot row of d_{i+1} is left out as a column of d_i (Chen and
Kerber, "Persistent homology computation with a twist", 2011).  This is
exact over Z in any chain complex of free modules, the pair's included.
The unit pivots of d_{i+1} pick rows R and columns C with
det d_{i+1}[R, C] = +-1, and d_i d_{i+1} = 0 gives

    d_i[:, R] = -d_i[:, R'] d_{i+1}[R', C] d_{i+1}[R, C]^{-1},

R' being the other rows, with integer entries.  So the dropped columns
are integer combinations of the kept ones: the column lattice of d_i,
hence its rank and invariant factors, is unchanged.  Only the unit
pivots of ``snf``'s first phase clear; pivots of its Euclid residual do
not.  Each map is built with the cleared faces already left out.

The top map d_d (d >= 1) is read off a forest, not eliminated, when
every outside ridge of an outside facet lies in exactly two outside
facets.  The rule is local: a ridge in a facet of B is in B, so only
the outside facets are looked at, and K need not be a closed
pseudomanifold (where the rule always holds).  The relative d_d is then
the signed incidence matrix of the graph whose nodes are the outside
facets and whose edges are those ridges; an outside (d-1)-face in no
d-face gives a zero row.  Let T be the ridges of a spanning forest.  In
each tree a leaf other than the root lies on one ridge of T; expanding
along its column and removing it shows det d_d[T, C] = +-1, C being the
facets other than the roots.  So the ridges of T are unit pivots, which
clear d_{d-1} as the pivot rows of an elimination do.  Pivoting them
out signs each facet relative to its root and leaves one column per
tree: in the row of a ridge outside T the entry is 0 when its two
facets, so signed, induce opposite orientations on it, and +-2 when
they induce the same.  So the invariant factors are a 1 per ridge of T
and a 2 per tree with such a ridge.  One parity union-find over the
outside facets that skips the ridges in B (``complexes._dual_forest``)
gives the forest and the 2s, and tells whether every ridge it met lay
in two facets; otherwise d_d goes through SNF like the other maps.

Cohomology over Z reduces K's own transposed maps bottom-up and clears
with their unit pivots (de Silva, Morozov and Vejdemo-Johansson,
arXiv:1107.5665): d_{i-1}^T's pivot rows, which are (i-1)-faces, are
left out as rows of d_i, which is then transposed.  Cohomology is then
checked against homology via universal coefficients.  The two sides
reduce different chain complexes and share no pivot, so the check is a
real one, and it checks the pair (K, B) and the forest as well.  A
failed check raises CrossCheckError.

Profiles are memoized on the complex, and so are B's facets and face
set, which pi_1 reads as well.  The face lists of the pair and the
pruned matrices are dropped once reduced.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain, combinations

from .complexes import SimplicialComplex, _dual_forest, _faces, _memoized
from .errors import (
    CoefficientError,
    CrossCheckError,
    DimensionError,
    HypothesisError,
    NotPseudomanifoldError,
    _record,
)
from .snf import SparseMatrix, is_prime, smith_normal_form

_COEFF_RE = re.compile(r"[Zz](?:/)?(\d+)\Z")


def parse_coeff(coeff) -> tuple:
    """Normalize a coefficient spec to ('Z', None) or ('Zp', p)."""
    if isinstance(coeff, str):
        if coeff in ("Z", "z"):
            return "Z", None
        m = _COEFF_RE.match(coeff)
        if m:
            p = int(m.group(1))
            if not is_prime(p):
                raise CoefficientError(f"Z{p} is not a field: {p} is not prime")
            return f"Z{p}", p
    raise CoefficientError(f"unknown coefficient ring {coeff!r}; use 'Z' or 'Zp' with p prime")


def _group_text(rank, torsion, unit="Z") -> str:
    # 'Z^2 + Z/2' style text for unit^rank plus the torsion summands; '0' if none.
    parts = []
    if rank == 1:
        parts.append(unit)
    elif rank > 1:
        parts.append(f"{unit}^{rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


@_record
class HomologyProfile:
    """Betti numbers and torsion per dimension, for one coefficient ring.

    ``groups`` lists only the nontrivial dimensions as (dim, betti,
    torsion factors); ``group(i)`` fills in (0, ()) elsewhere.  Torsion
    factors are >1 and in divisibility order.
    """

    coeff: str
    reduced: bool
    kind: str
    dimension: int
    groups: tuple

    def group(self, i) -> tuple:
        for dim, betti, torsion in self.groups:
            if dim == i:
                return betti, torsion
        return 0, ()

    def betti(self, i) -> int:
        return self.group(i)[0]

    def torsion(self, i) -> tuple:
        return self.group(i)[1]

    def is_sphere(self, k: int) -> bool:
        """True when the reduced profile is exactly that of a k-sphere.

        k = -1 means the empty complex, whose lone reduced group sits in
        dimension -1.
        """
        if not self.reduced:
            raise HypothesisError("sphere profiles are defined for reduced homology")
        return self.groups == ((k, 1, ()),)

    def is_trivial(self) -> bool:
        return self.groups == ()

    def as_dict(self):
        return {
            "coefficients": self.coeff,
            "reduced": self.reduced,
            "kind": self.kind,
            "dimension": self.dimension,
            "groups": {
                str(dim): {"betti": betti, "torsion": list(torsion)}
                for dim, betti, torsion in self.groups
            },
        }

    def describe(self, i) -> str:
        """Human-readable group, e.g. 'Z^2 + Z/2' or '0'."""
        return _group_text(*self.group(i), unit=self.coeff)


@_record
class BoundaryMatrix:
    """Boundary map from i-chains to (i-1)-chains with its face indexing."""

    i: int
    reduced: bool
    row_simplices: tuple
    col_simplices: tuple
    matrix: SparseMatrix  # +-1 entries, rows and columns indexed as above

    @property
    def shape(self):
        return (len(self.row_simplices), len(self.col_simplices))


def _build_boundary(rows, cols):
    """Matrix of the boundary map from the faces ``cols`` to the faces ``rows``.

    Rows and columns follow the order of the two lists of id tuples; a
    face of a column that is not in ``rows`` gets no entry.
    """
    index = {s: r for r, s in enumerate(rows)}
    out = {}
    for c, s in enumerate(cols):
        for j in range(len(s)):
            r = index.get(s[:j] + s[j + 1 :])
            if r is not None:
                out.setdefault(r, {})[c] = -1 if j % 2 else 1
    return SparseMatrix((len(rows), len(cols)), out)


def boundary_matrix(K: SimplicialComplex, i: int, reduced: bool = False) -> BoundaryMatrix:
    """Public boundary matrix with label-level face indexing."""
    if not 0 <= i <= max(K.dimension, 0):
        raise DimensionError(f"no boundary map at degree {i} for a {K.dimension}-complex")
    # Indexed through _ifaces, which also serves the empty complex's
    # degree 0: its augmented map has the empty simplex as its one row.
    cols = tuple(K._to_labels(f) for f in K._ifaces(i))
    if i == 0 and not reduced:
        return BoundaryMatrix(0, False, (), cols, SparseMatrix((0, len(cols)), {}))
    rows = tuple(K._to_labels(f) for f in K._ifaces(i - 1))
    return BoundaryMatrix(i, reduced, rows, cols, _build_boundary(K._ifaces(i - 1), K._ifaces(i)))


def _star_vertex(facets):
    """The vertex in the most facets, lowest id on ties: B starts as its closed star."""
    counts = Counter(chain.from_iterable(facets))
    return min(counts, key=lambda u: (-counts[u], u))


def _attach(facets):
    """The facets left outside B, and the set of B's faces without the star vertex.

    ``facets`` is a sorted antichain of sorted id tuples: a complex's
    ``_id_facets``, or a link's facets as ``_links`` lists them.  B starts
    as the closed star of ``_star_vertex(facets)``.  A facet F joins
    when X, the vertices of F opposite its ridges in B, has 1 <= |X| < |F|
    and is not itself a face of B; passes over the other facets in id
    order repeat until one adds nothing.  The faces of F outside B are
    those that hold all of X, so only they are added.

    B is collapsible.  The star is a cone.  F meets B in a nonempty
    proper union of its ridges, so for y in F - X, pairing each face
    that holds X but not y with its union with y collapses F onto B.
    So when the facets make a closed combinatorial manifold K and one
    facet is left outside, B is a collapsible combinatorial manifold,
    hence a PL ball (Whitehead, Proc. London Math. Soc. 45, 1939), and K
    is a PL sphere.
    """
    v = _star_vertex(facets)
    inside = set()
    rest = []
    for f in facets:
        if v in f:
            # only faces without v are ever looked up: those of lk v
            g = tuple(u for u in f if u != v)
            inside.update(s for k in range(1, len(f)) for s in combinations(g, k))
        else:
            rest.append(f)
    grown = True
    while grown:
        grown = False
        left = []
        for f in rest:
            x = tuple(u for j, u in enumerate(f) if f[:j] + f[j + 1 :] in inside)
            if 0 < len(x) < len(f) and x not in inside:
                free = [u for u in f if u not in x]
                inside.update(
                    tuple(sorted(x + s)) for k in range(len(free) + 1) for s in combinations(free, k)
                )
                grown = True
            else:
                left.append(f)
        rest = left
    return rest, inside


@_memoized
def _attached(K):
    """``_attach`` of K's facets, memoized on K: homology and pi_1 share one B."""
    return _attach(K._id_facets)


def _relative(K):
    """Face counts and invariant factors of d_1..d_d for the pair (K, B).

    The maps are reduced top-down, each without the columns that are
    unit pivot rows of the one above.  H_0(K) has one free Z more than
    H_0(K, B), counted as one more 0-face.
    """
    d = K.dimension
    rest, inside = _attached(K)
    sizes, factors = [0] * (d + 1), [()] * (d + 2)
    cols = [f for f in rest if len(f) == d + 1]
    sizes[d] = len(cols)
    for i in range(d, 0, -1):
        rows = [s for s in _faces(rest, i - 1) if s not in inside]
        sizes[i - 1] = len(rows)
        # the forest, when each outside ridge it meets lies in two outside facets
        paired, tree, odd = _dual_forest(cols, d, inside) if i == d else (False, (), 0)
        if paired:
            factors[i], pivots = (1,) * len(tree) + (2,) * odd, set(tree)
        else:
            snf = smith_normal_form(_build_boundary(rows, cols))
            factors[i], pivots = snf.invariant_factors, {rows[r] for r in snf.pivot_rows}
        cols = [s for s in rows if s not in pivots]
    sizes[0] += 1
    return sizes, factors


def _coboundaries(K):
    """Face counts and invariant factors of d_1^T..d_d^T, reduced bottom-up.

    Each d_i loses the rows that are unit pivot rows of d_{i-1}^T.
    """
    d = K.dimension
    factors = [()] * (d + 2)
    pivots = ()
    for i in range(1, d + 1):
        rows = [s for r, s in enumerate(K._ifaces(i - 1)) if r not in pivots]
        snf = smith_normal_form(_build_boundary(rows, K._ifaces(i)).transpose())
        factors[i], pivots = snf.invariant_factors, snf.pivot_rows
    return [len(K._ifaces(i)) for i in range(d + 1)], factors


def homology(K: SimplicialComplex, coeff="Z", reduced: bool = False) -> HomologyProfile:
    """Homology profile of the complex over Z or a prime field."""
    label, p = parse_coeff(coeff)
    return K._memo(("homology", label, reduced), _profile, K, label, p, reduced, "homology")


def cohomology(K: SimplicialComplex, coeff="Z", reduced: bool = False) -> HomologyProfile:
    """Cohomology profile, from transposed boundary maps over Z.

    Checks the universal-coefficient relations against homology: equal
    Betti numbers in each degree, and degree-i cohomology torsion equal
    to degree-(i-1) homology torsion.  Raises CrossCheckError if either
    fails.
    """
    label, p = parse_coeff(coeff)
    return K._memo(("cohomology", label, reduced), _profile, K, label, p, reduced, "cohomology")


def _profile(K, label, p, reduced, kind):
    dim = K.dimension
    transposed = kind == "cohomology"
    groups = []
    if reduced:
        # Augmenting by the empty simplex takes one free Z out of degree 0,
        # or gives the empty complex its lone group Z in degree -1.
        full = (cohomology if transposed else homology)(K, label)
        groups = [(i, betti - 1 if i == 0 else betti, torsion) for i, betti, torsion in full.groups]
        groups = groups or [(-1, 1, ())]
    elif p is not None:
        # Universal coefficients: a factor Z/t with p | t in degree j adds one
        # to the Z_p Betti numbers in degrees j and j+1 (homology) or j-1.
        Z = (cohomology if transposed else homology)(K, "Z")
        step = 1 if transposed else -1
        for i in range(dim + 1):
            torsion = Z.torsion(i) + Z.torsion(i + step)
            groups.append((i, Z.betti(i) + sum(1 for t in torsion if t % p == 0), ()))
    elif dim >= 0:
        sizes, factors = (_coboundaries if transposed else _relative)(K)
        for i in range(dim + 1):
            betti = sizes[i] - len(factors[i]) - len(factors[i + 1])
            # torsion is that of the map into degree i: d_{i+1}, or d_i transposed
            torsion = tuple(t for t in factors[i if transposed else i + 1] if t != 1)
            groups.append((i, betti, torsion))
    profile = HomologyProfile(label, reduced, kind, dim, tuple(g for g in groups if g[1] or g[2]))
    if transposed and not reduced:
        hom = homology(K, label)
        for i in range(dim + 1):
            cb, ct = profile.group(i)
            hb, _ = hom.group(i)
            if cb != hb:
                raise CrossCheckError(f"universal coefficients violated at degree {i}: betti {cb} != {hb}")
            ht = hom.group(i - 1)[1]
            if ct != ht:
                raise CrossCheckError(f"universal coefficients violated at degree {i}: torsion {ct} != {ht}")
    return profile


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating face-count sum.

    The alternating sum of Betti numbers always agrees with it, so there
    is nothing to cross-check: ``homology`` sets b_i = f_i - r_i - r_{i+1}
    with r_i the rank of the i-th boundary map, and the ranks cancel in
    pairs.
    """
    return sum(f if i % 2 == 0 else -f for i, f in enumerate(K.f_vector()))


def is_homology_sphere(K: SimplicialComplex, coeff="Z") -> bool:
    """Whether a closed pseudomanifold has the reduced homology of S^d, d = dim K."""
    report = K.is_closed_pseudomanifold()
    if not report.is_closed_pseudomanifold:
        raise NotPseudomanifoldError("homology sphere test needs a closed pseudomanifold")
    return homology(K, coeff, reduced=True).is_sphere(K.dimension)
