"""Exact Smith normal form of integer matrices, and mod-p ranks read from it.

There is one reduction, over Z.  The matrix is stored as a dict of rows
and reduced by pivots taken Markowitz style: the sparsest column first,
then the sparsest row within that column.  Only entries +-1 are pivots,
so each step is unimodular and contributes an invariant factor 1.
After a pivot has cleared its column, its row and column are dropped.

Boundary matrices have entries in {-1, 0, 1} and reduce almost entirely
by unit pivots (Dumas, Heckenbach, Saunders and Welker 2003).  The
small residual that has no unit entry left goes to an exact dense
reduction: repeatedly move a minimal-magnitude pivot to the corner,
clear its row and column with floor-division steps (Euclid through pivot
re-selection), and absorb any entry the pivot does not divide before
advancing, so pivots come out as invariant factors d_1 | d_2 | ...
directly.  Python integers are arbitrary precision, so no overflow guard
is needed.

The rank over F_p is the number of invariant factors that p does not
divide (see ``rank_mod_p``), so no elimination runs modulo p.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import CoefficientError, HypothesisError


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors of an integer matrix.

    ``invariant_factors`` are the positive diagonal entries of the Smith
    normal form in divisibility order; ``rank`` is their count.
    """

    shape: tuple
    invariant_factors: tuple

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def torsion_factors(self) -> tuple:
        return tuple(d for d in self.invariant_factors if d != 1)

    def as_dict(self):
        return {
            "shape": list(self.shape),
            "rank": self.rank,
            "invariant_factors": list(self.invariant_factors),
        }


class SparseMatrix:
    """Integer matrix as a dict of rows: ``rows[i][j]`` is the nonzero entry (i, j)."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape, rows):
        self.shape = tuple(shape)
        self.rows = rows

    def transpose(self):
        m, n = self.shape
        rows = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                rows.setdefault(j, {})[i] = v
        return SparseMatrix((n, m), rows)

    def tolist(self):
        m, n = self.shape
        out = [[0] * n for _ in range(m)]
        for i, row in self.rows.items():
            for j, v in row.items():
                out[i][j] = v
        return out


def _sparse_rows(matrix):
    """Shape and a fresh dict-of-rows copy of ``matrix``."""
    if isinstance(matrix, SparseMatrix):
        shape, source = matrix.shape, matrix.rows.items()
    else:
        shape = getattr(matrix, "shape", None)
        if hasattr(matrix, "tolist"):
            matrix = matrix.tolist()
        dense = [[int(v) for v in row] for row in matrix]
        if shape is not None and len(shape) == 2:
            n = shape[1]
        else:
            n = len(dense[0]) if dense else 0
        if any(len(row) != n for row in dense):
            raise HypothesisError("matrix rows have unequal lengths")
        shape = (len(dense), n)
        source = ((i, dict(enumerate(row))) for i, row in enumerate(dense))
    rows = {}
    for i, row in source:
        row = {j: v for j, v in row.items() if v}
        if row:
            rows[i] = row
    return shape, rows


def _eliminate(rows) -> int:
    """Pivot ``rows`` in place on entries +-1 and return the number of pivots.

    ``rows`` is left holding the residual, which has no unit entry.
    """
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    # Lazy priority queue of (nonzeros, column): an entry is stale once the
    # column's count has changed; every column an update touches is pushed
    # again, so a column left behind has no pivot since its last change.
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    pivots = 0
    while heap:
        count, j = heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != count:
            continue
        best = None
        for i in col:
            if rows[i][j] not in (1, -1):
                continue
            size = len(rows[i])
            if best is None or size < best_size:
                best, best_size = i, size
        if best is None:
            continue
        prow = rows.pop(best)
        u = prow.pop(j)  # +-1, its own inverse
        col.discard(best)
        for c in prow:
            cols[c].discard(best)
        items = prow.items()
        for k in col:
            row = rows[k]
            f = row.pop(j) * u
            for c, v in items:
                old = row.get(c)
                new = (old or 0) - f * v
                if new:
                    if old is None:
                        cols[c].add(k)
                    row[c] = new
                else:
                    del row[c]
                    cols[c].discard(k)
            if not row:
                del rows[k]
        del cols[j]
        for c in prow:
            if cols[c]:
                heappush(heap, (len(cols[c]), c))
            else:
                del cols[c]
        pivots += 1
    return pivots


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form over the integers, exactly.

    ``matrix`` may be a SparseMatrix, a nested list, or an array-like
    with ``.tolist()`` and ``.shape`` such as a numpy array.
    """
    shape, rows = _sparse_rows(matrix)
    units = _eliminate(rows)
    factors = ()
    if rows:
        cols = sorted({j for row in rows.values() for j in row})
        residual = [[row.get(j, 0) for j in cols] for row in rows.values()]
        factors = tuple(_snf_dense_python(residual, (len(residual), len(cols))))
    return SNFResult(shape, (1,) * units + factors)


def _snf_dense_python(rows, shape):
    m, n = shape
    A = [row[:] for row in rows]

    factors = []
    l = 0
    while l < min(m, n):
        # Minimal-magnitude pivot in the active submatrix, row-major ties.
        best = None
        for i in range(l, m):
            rowi = A[i]
            for j in range(l, n):
                v = rowi[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != l:
            A[l], A[pi] = A[pi], A[l]
        if pj != l:
            for row in A:
                row[l], row[pj] = row[pj], row[l]
        if A[l][l] < 0:
            A[l] = [-v for v in A[l]]
        p = A[l][l]

        dirty = False
        for i in range(l + 1, m):
            q = A[i][l] // p
            if q:
                Ai, Al = A[i], A[l]
                for j in range(n):
                    Ai[j] -= q * Al[j]
            if A[i][l]:
                dirty = True
        if dirty:
            continue
        dirty = False
        for j in range(l + 1, n):
            q = A[l][j] // p
            if q:
                for i in range(m):
                    A[i][j] -= q * A[i][l]
            if A[l][j]:
                dirty = True
        if dirty:
            continue
        if p != 1:
            bad = None
            for i in range(l + 1, m):
                rowi = A[i]
                if any(rowi[j] % p for j in range(l + 1, n)):
                    bad = i
                    break
            if bad is not None:
                Al, Ab = A[l], A[bad]
                for j in range(n):
                    Al[j] += Ab[j]
                continue
        factors.append(p)
        l += 1

    return factors


def rank_mod_p(matrix, p: int) -> int:
    """Rank of an integer matrix over the field with p elements.

    Counts the invariant factors that p does not divide.  U A V = D with
    U and V unimodular and D the Smith normal form; unimodular matrices
    stay invertible mod p, so A and D have the same rank over F_p.
    """
    if not is_prime(p):
        raise CoefficientError(f"{p} is not prime")
    return sum(1 for d in smith_normal_form(matrix).invariant_factors if d % p)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True
