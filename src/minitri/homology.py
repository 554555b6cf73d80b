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

Homology reduces the maps in order, top degree first, and clears: every
i-face that is a unit pivot row of d_{i+1} is left out as a column of
d_i (Chen and Kerber, "Persistent homology computation with a twist",
2011).  This is exact over Z.  The unit pivots of d_{i+1} pick rows R
and columns C with det d_{i+1}[R, C] = +-1, and d_i d_{i+1} = 0 gives

    d_i[:, R] = -d_i[:, R'] d_{i+1}[R', C] d_{i+1}[R, C]^{-1},

R' being the other rows, with integer entries.  So the dropped columns
are integer combinations of the kept ones: the column lattice of d_i,
hence its rank and invariant factors, is unchanged.  Only the unit
pivots of ``snf``'s first phase clear; pivots of its Euclid residual do
not.  Each map is built with the cleared faces already left out.

The top map d_d of a closed pseudomanifold (d >= 1) is not eliminated.
Every ridge lies in exactly two facets, so d_d is the signed incidence
matrix of the dual graph, which has the facets as nodes and the ridges
as edges: the row of a ridge holds one entry +-1 for each of its two
facets.  Strong connectivity makes the graph connected; let T be the
ridges of a spanning tree and r a root facet.  A leaf facet other than r
lies on one ridge of T, so its column of d_d[T, C], C being the facets
other than r, has a single entry +-1; expanding along it and removing
the leaf leaves a smaller tree, so det d_d[T, C] = +-1.  The f_d - 1
tree ridges are thus unit pivots, and clearing leaves them out of
d_{d-1} exactly as it does the pivot rows of an elimination.  Pivoting
them out signs every facet relative to r along the tree and leaves the
single column of r: in the row of a ridge outside T the entry is 0 when
its two facets, so signed, induce opposite orientations on it, and +-2
when they induce the same.  So the invariant factors are f_d - 1 ones,
plus one 2 when K is non-orientable.  One parity union-find over the
ridges (``SimplicialComplex._ridge_walk``) gives T, the orientability
and the closed-pseudomanifold report that decides the shortcut; no
matrix is built.  Other complexes are eliminated as
above.

Cohomology over Z reduces the transposed maps bottom-up and clears with
their own unit pivots (de Silva, Morozov and Vejdemo-Johansson,
arXiv:1107.5665): d_{i-1}^T's pivot rows, which are (i-1)-faces, are
left out as rows of d_i, which is then transposed.  Cohomology is then
checked against homology via universal coefficients; the check is a
real one because no reduction or pivot is shared between the two sides,
and it checks the spanning-tree reading of d_d as well.
A failed check raises CrossCheckError.

``_reduction`` is the only reduction cache: it memoizes one SNF per
boundary map and orientation on the complex, so homology, its reduced
variant and the torsion read of the next degree share one SNF per map.
The pruned matrices themselves are dropped once reduced.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import (
    CoefficientError,
    CrossCheckError,
    DimensionError,
    HypothesisError,
    NotPseudomanifoldError,
)
from .snf import SNFResult, SparseMatrix, is_prime, smith_normal_form

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


@dataclass(frozen=True)
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
        betti, torsion = self.group(i)
        unit = "Z" if self.coeff == "Z" else self.coeff
        parts = []
        if betti == 1:
            parts.append(unit)
        elif betti > 1:
            parts.append(f"{unit}^{betti}")
        parts.extend(f"Z/{t}" for t in torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
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


def _build_boundary(K: SimplicialComplex, i: int, cleared=frozenset(), clear_rows=False):
    """Matrix of the boundary map at chain degree i, over id-level faces.

    Rows and columns are indexed in ``_ifaces`` order; at i = 0 the one
    row is the empty simplex.  Faces whose index is in ``cleared`` are
    left out, as columns (i-faces) or, with ``clear_rows``, as rows
    ((i-1)-faces); the other faces on that side are renumbered in order,
    and the opposite side keeps face indices.
    """
    cols = K._ifaces(i)
    faces = K._ifaces(i - 1)
    dropped_rows, dropped_cols = (cleared, ()) if clear_rows else ((), cleared)
    index = {}
    for r, s in enumerate(faces):
        if r not in dropped_rows:
            index[s] = len(index)
    rows = {}
    c = 0
    for k, s in enumerate(cols):
        if k in dropped_cols:
            continue
        for j in range(i + 1):
            r = index.get(s[:j] + s[j + 1 :])
            if r is not None:
                rows.setdefault(r, {})[c] = -1 if j % 2 else 1
        c += 1
    return SparseMatrix((len(index), c), rows)


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
    return BoundaryMatrix(i, reduced, rows, cols, _build_boundary(K, i))


def _reduction(K: SimplicialComplex, i: int, transposed=False):
    """Smith normal form of the degree-i boundary map (or its transpose), memoized."""
    return K._memo(("reduction", i, transposed), _reduce, K, i, transposed)


def _reduce(K, i, transposed):
    # The top map of a closed pseudomanifold is read off its dual spanning
    # tree, with the tree ridges as pivot rows (see the module docstring).
    if not transposed and i == K.dimension >= 1:
        report, orientable, tree = K._ridge_walk()
        if report.is_closed_pseudomanifold:
            ridges = K._ifaces(i - 1)
            f_top = len(K._ifaces(i))
            factors = (1,) * (f_top - 1) + ((2,) if not orientable else ())
            pivots = frozenset(bisect_left(ridges, r) for r in tree)
            return SNFResult((len(ridges), f_top), factors, pivots)
    # Clearing: the unit pivot rows of the neighbouring map, reduced first,
    # index columns that the remaining columns already generate: columns
    # of d_i for homology, rows of d_i (columns of d_i^T) for cohomology.
    if transposed:
        cleared = _reduction(K, i - 1, True).pivot_rows if i >= 2 else frozenset()
    else:
        cleared = _reduction(K, i + 1).pivot_rows if i < K.dimension else frozenset()
    M = _build_boundary(K, i, cleared, clear_rows=transposed)
    return smith_normal_form(M.transpose() if transposed else M)


def _rank(K, i, transposed):
    # Rank of the degree-i boundary map; zero for d_0 and outside the complex.
    if i < 1 or i > K.dimension:
        return 0
    return _reduction(K, i, transposed).rank


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
    else:
        for i in range(dim + 1):
            f_i = len(K._ifaces(i))
            betti = f_i - _rank(K, i, transposed) - _rank(K, i + 1, transposed)
            # torsion is that of the map into degree i: d_{i+1}, or d_i transposed
            t = i if transposed else i + 1
            torsion = _reduction(K, t, transposed).torsion_factors if 1 <= t <= dim else ()
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


def is_homology_sphere(K: SimplicialComplex, d: int | None = None, coeff="Z") -> bool:
    """Whether a closed pseudomanifold has the reduced homology of S^d."""
    report = K.is_closed_pseudomanifold()
    if not report.is_closed_pseudomanifold:
        raise NotPseudomanifoldError("homology sphere test needs a closed pseudomanifold")
    if d is None:
        d = K.dimension
    if d != K.dimension:
        raise HypothesisError(f"complex has dimension {K.dimension}, not {d}")
    return homology(K, coeff, reduced=True).is_sphere(d)
