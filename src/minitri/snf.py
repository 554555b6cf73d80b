"""Exact Smith normal form of integer matrices, and mod-p ranks read from it.

There is one reduction, over Z, on one representation: the matrix is a
dict of rows.  First it pivots on entries +-1, Markowitz style: the
sparsest column first, then the sparsest row within that column.  Each
such step is unimodular and contributes an invariant factor 1; after a
pivot has cleared its column, its row and column are dropped.

Boundary matrices have entries in {-1, 0, 1} and reduce almost entirely
by unit pivots (Dumas, Heckenbach, Saunders and Welker 2003).  The
residual, which has no unit entry left, is diagonalized on the same
rows by Euclid's algorithm: pivot on an entry of least magnitude, leave
remainders in its column by row operations and then in its row by
column operations, and pivot again on any remainder, which is smaller.
The invariant factors are read off the diagonal: units first, then each
pair of other entries replaced by their gcd and lcm, which leaves
d_1 | d_2 | ....  Python integers are arbitrary precision, so no
overflow guard is needed.

The rank over F_p is the number of invariant factors that p does not
divide (see ``rank_mod_p``), so no elimination runs modulo p.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .errors import CoefficientError, HypothesisError, _record


@_record
class SNFResult:
    """Invariant factors of an integer matrix.

    ``invariant_factors`` are the positive diagonal entries of the Smith
    normal form in divisibility order; ``rank`` is their count.

    ``pivot_rows`` holds the rows of the unit pivots taken before the
    residual: the rows R of a set of pivots whose block A[R, C] has
    determinant +-1.  If B A = 0, the columns R of B are then integer
    combinations of its other columns, which is what lets homology clear
    them.  Residual pivots are not included.  It takes no part in
    comparisons or ``as_dict``.
    """

    shape: tuple
    invariant_factors: tuple
    pivot_rows: frozenset = frozenset()
    _uncompared = ("pivot_rows",)

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


def _eliminate(rows) -> list:
    """Pivot ``rows`` in place on entries +-1 and return the pivot rows.

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
    pivots = []
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
        pivots.append(best)
    return pivots


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form over the integers, exactly.

    ``matrix`` may be a SparseMatrix, a nested list, or an array-like
    with ``.tolist()`` and ``.shape`` such as a numpy array.
    """
    shape, rows = _sparse_rows(matrix)
    pivots = _eliminate(rows)
    diagonal = _reduce_residual(rows)
    units = len(pivots) + diagonal.count(1)
    d = [x for x in diagonal if x != 1]
    # diag(a, b) and diag(gcd, lcm) have the same Smith normal form; after
    # position a has met every later one, it divides all of them.
    for a in range(len(d)):
        for b in range(a + 1, len(d)):
            g = gcd(d[a], d[b])
            d[a], d[b] = g, d[a] // g * d[b]
    return SNFResult(shape, (1,) * units + tuple(d), frozenset(pivots))


def _reduce_residual(rows) -> list:
    """Diagonalize ``rows`` in place and return the diagonal's magnitudes.

    Each step pivots on an entry v of least magnitude.  Row operations
    leave a remainder mod v in each other entry of its column; once the
    column is clear, column operations, which touch only the pivot row,
    do the same along the row.  A remainder is smaller than |v|, so the
    next step pivots on it (Euclid's algorithm).  A pivot left alone in
    its row and column is recorded and its row dropped.
    """
    diagonal = []
    while rows:
        _, i, j = min((abs(v), i, j) for i, row in rows.items() for j, v in row.items())
        prow = rows[i]
        v = prow[j]
        dirty = False
        for k in [k for k, row in rows.items() if j in row and k != i]:
            row = rows[k]
            f = row[j] // v
            for c, w in prow.items():
                new = row.get(c, 0) - f * w
                if new:
                    row[c] = new
                else:
                    del row[c]
            if j in row:
                dirty = True
            elif not row:
                del rows[k]
        if dirty:
            continue
        for c in [c for c in prow if c != j]:
            prow[c] %= v
            if prow[c]:
                dirty = True
            else:
                del prow[c]
        if not dirty:
            diagonal.append(abs(v))
            del rows[i]
    return diagonal


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
