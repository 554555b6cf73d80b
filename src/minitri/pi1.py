"""Edge-path presentations of the fundamental group and freeness verdicts.

Only the 2-skeleton matters for pi_1, so presentations are read off a
spanning tree: one generator per non-tree edge, one relator per
triangle.  The complex read is K/B, B the contractible union of facets
that ``homology`` grows: contracting B keeps pi_1 (Hatcher, *Algebraic
Topology*, Prop. 0.17) and leaves few cells.  Freeness is undecidable
in general; ``freeness_verdict`` is three-valued and every NOT_FREE
answer carries a certificate that can be re-validated independently (a
torsion coefficient of the abelianization, or an explicit homomorphism
onto a nontrivial permutation group).
"""

from __future__ import annotations

import random
from collections import Counter, deque
from itertools import permutations

from .complexes import SimplicialComplex, _faces
from .errors import ConnectivityError, DimensionError, HypothesisError, _as_dict, _plain, _record
from .homology import _attach, _group_text
from .snf import SparseMatrix, smith_normal_form


def _free_reduce(word):
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _cyclic_reduce(word):
    w = list(_free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _gen_name(i):
    # 1-based generator index to a short name: a..z, then g27, g28, ...
    if i <= 26:
        return "abcdefghijklmnopqrstuvwxyz"[i - 1]
    return f"g{i}"


def _word_text(word):
    if not word:
        return "1"
    parts = []
    j = 0
    while j < len(word):
        g = word[j]
        run = 1
        while j + run < len(word) and word[j + run] == g:
            run += 1
        exp = run if g > 0 else -run
        name = _gen_name(abs(g))
        parts.append(name if exp == 1 else f"{name}^{exp}")
        j += run
    return " ".join(parts)


@_record
class GroupPresentation:
    """Finite presentation with relators as tuples of signed 1-based indices."""

    ngens: int
    relators: tuple

    def __post_init__(self):
        for r in self.relators:
            for g in r:
                if g == 0 or abs(g) > self.ngens:
                    raise HypothesisError(f"relator index {g} out of range 1..{self.ngens}")
            if _free_reduce(r) != tuple(r):
                raise HypothesisError(f"relator {r!r} is not freely reduced")

    def __str__(self):
        gens = ", ".join(_gen_name(i + 1) for i in range(self.ngens))
        rels = ", ".join(_word_text(r) for r in self.relators)
        return f"< {gens} | {rels} >"

    def as_dict(self):
        return {
            "generators": self.ngens,
            "relators": [list(r) for r in self.relators],
            "text": str(self),
        }


def edge_path_presentation(K: SimplicialComplex, rng=None) -> GroupPresentation:
    """Presentation of pi_1 read off K/B, B the contractible part of homology.

    B is the union of facets that ``homology._attach`` grows from a
    vertex star.  Contracting it is a homotopy equivalence (Hatcher,
    *Algebraic Topology*, Prop. 0.17), so K/B, with one 0-cell for B and
    a cell per face outside B, has the same pi_1.  A BFS spanning tree
    of its 1-skeleton starts at B, reading B's vertices and then each
    neighbour list in id order; an int seed or a random.Random shuffles
    every neighbour list, which moves the tree outside B only.
    Generators are the non-tree edges outside B in id order; a triangle
    a < b < c outside B gives ab . bc . (ac)^-1 with its B and tree
    edges dropped, freely reduced as its letters are distinct.  B = one
    vertex gives K's own presentation.
    """
    if K.dimension < 1:
        raise DimensionError("pi_1 needs a complex of dimension at least 1")
    if isinstance(rng, int):
        rng = random.Random(rng)

    rest, inside = _attach(K)
    # every face outside B lies in a facet left outside B
    todo = {u for (u,) in _faces(rest, 0) if (u,) not in inside}
    edges = [e for e in _faces(rest, 1) if e not in inside]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    gen = {}  # edge outside B -> generator index, 0 for a tree edge
    queue = deque(sorted(u for u in adj if u not in todo))
    while queue:
        u = queue.popleft()
        nbrs = sorted(adj[u])
        if rng is not None:
            rng.shuffle(nbrs)
        for v in nbrs:
            if v in todo:
                todo.remove(v)
                gen[(u, v) if u < v else (v, u)] = 0
                queue.append(v)
    if todo:
        raise ConnectivityError("pi_1 presentation needs a connected complex")

    ngens = 0
    for e in edges:
        if e not in gen:
            ngens += 1
            gen[e] = ngens

    relators = []
    for a, b, c in _faces(rest, 2):
        if (a, b, c) not in inside:
            word = (gen.get((a, b), 0), gen.get((b, c), 0), -gen.get((a, c), 0))
            relators.append(tuple(g for g in word if g))
    return GroupPresentation(ngens, tuple(relators))


def _substitute(word, target, replacement):
    # Replace every occurrence of the generator `target` by the word
    # `replacement` (and inverses accordingly); the result is unreduced.
    inv = tuple(-g for g in reversed(replacement))
    out = []
    for g in word:
        if g == target:
            out.extend(replacement)
        elif g == -target:
            out.extend(inv)
        else:
            out.append(g)
    return out


def _canonical_cyclic(word):
    # Least rotation of the word or its inverse, for duplicate detection.
    if not word:
        return ()
    best = None
    for w in (word, tuple(-g for g in reversed(word))):
        for s in range(len(w)):
            rot = w[s:] + w[:s]
            if best is None or rot < best:
                best = rot
    return best


def _once(word):
    # Generators occurring exactly once in the word, up to sign.
    return [g for g, c in Counter(abs(x) for x in word).items() if c == 1]


def tietze_simplify(P: GroupPresentation, effort_budget: int = 10000) -> GroupPresentation:
    """Shrink a presentation without changing the group.

    Relators are cyclically reduced first.  Each step then drops empty
    relators and cyclic duplicates (a rotation of another relator or of
    its inverse; the earlier relator of P is kept) and makes one move:
    it eliminates a generator g that occurs exactly once in a relator r,
    removing r and substituting the word that r solves for g into the
    other relators.  The move chosen is the least
    ``(len(r) - 1, occurrences of g outside r, position of r, g)``, with
    positions and generator numbers as in P; the test oracle
    ``tietze_simplify_naive`` in tests/oracles.py checks this order.
    A move costs work in proportion to the relators that contain g, and
    only those are re-keyed for the duplicate check.

    Runs until no move is left or ``effort_budget`` moves are made.
    Duplicates are dropped before each move, not after the last one:
    when the budget runs out right after a move, or is 0, the result
    drops only empty relators and exact duplicates, so relators that the
    last move changed may still be cyclic duplicates.  The surviving
    generators are renumbered 1..n in their order in P, and the
    relators sorted.
    """
    rels = {}  # stable id (position in P) -> cyclically reduced word
    # Surviving generator -> ids of the relators containing it.
    occ = {g: set() for g in range(1, P.ngens + 1)}
    total = Counter()  # generator -> occurrences in all relators
    once = {}  # id -> generators occurring exactly once in it, if any
    # Canonical cyclic form -> id of the deduplicated relator that has it.
    # A relator's form changes only when a move eliminates a generator in
    # it, so no relator can take an outdated entry's form again.
    keys = {}

    def add(i, r):
        rels[i] = r
        counts = {}
        for x in r:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        for g, c in counts.items():
            total[g] += c
            occ[g].add(i)
        gs = [g for g, c in counts.items() if c == 1]
        if gs:
            once[i] = gs

    def remove(i):
        for x in rels.pop(i):
            total[abs(x)] -= 1
            occ[abs(x)].discard(i)
        once.pop(i, None)

    def dedup(ids):
        for i in ids:
            if not rels[i]:
                remove(i)
                continue
            key = _canonical_cyclic(rels[i])
            j = keys.setdefault(key, i)
            if j != i:  # the earlier relator of P stays
                remove(max(i, j))
                keys[key] = min(i, j)

    for i, r in enumerate(P.relators):
        add(i, _cyclic_reduce(r))
    changed = set(rels)
    budget = effort_budget
    while budget > 0:
        dedup(changed)
        best = None
        for i, gs in once.items():
            n = len(rels[i]) - 1
            if best is not None and n > best[0]:
                continue
            for g in gs:
                cost = (n, total[g] - 1, i, g)
                if best is None or cost < best:
                    best = cost
        if best is None:
            break
        _, _, ri, g = best
        r = rels[ri]
        pos = next(i for i, x in enumerate(r) if abs(x) == g)
        # Rotate the occurrence to the front; r ~ g w  =>  g = w^-1
        # (or g^-1 w => g = w).
        rot = r[pos:] + r[:pos]
        rest = rot[1:]
        word = tuple(-x for x in reversed(rest)) if rot[0] == g else rest
        remove(ri)
        changed = set(occ[g])
        for j in changed:
            new = _cyclic_reduce(_substitute(rels[j], g, word))
            remove(j)
            add(j, new)
        del occ[g]
        budget -= 1

    number = {g: k for k, g in enumerate(occ, 1)}
    relators = {
        tuple(number[x] if x > 0 else -number[-x] for x in r)
        for r in rels.values()
        if r
    }
    return GroupPresentation(ngens=len(number), relators=tuple(sorted(relators)))


@_record
class AbelianInvariants:
    """H_1-style invariants of a presented group: free rank plus torsion."""

    rank: int
    torsion: tuple

    def describe(self):
        return _group_text(self.rank, self.torsion)

    @property
    def trivial(self):
        return self.rank == 0 and not self.torsion


def abelianization(P: GroupPresentation) -> AbelianInvariants:
    """Invariants of the abelianized group, by SNF of the exponent matrix."""
    rows = {}
    for i, r in enumerate(P.relators):
        row = rows[i] = {}
        for g in r:
            j = abs(g) - 1
            row[j] = row.get(j, 0) + (1 if g > 0 else -1)
    res = smith_normal_form(SparseMatrix((len(P.relators), P.ngens), rows))
    return AbelianInvariants(P.ngens - res.rank, res.torsion_factors)


# -- finite quotients --------------------------------------------------------


def _perm_mul(p, q):
    return tuple(p[j] for j in q)


def _perm_inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _relator_image(word, images, n):
    acc = tuple(range(n))
    for g in word:
        p = images[abs(g) - 1]
        acc = _perm_mul(acc, p if g > 0 else _perm_inv(p))
    return acc


def _fixes_every_point(seq, points):
    # Whether applying seq[0], then seq[1], ... returns every point to
    # itself, traced one point at a time up to the first that moves.
    for x in points:
        y = x
        for p in seq:
            y = p[y]
        if y != x:
            return False
    return True


def _partitions(n, largest):
    # Partitions of n into parts of at most `largest`, largest parts first.
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _cycle_type_representatives(n):
    # One permutation of range(n) per conjugacy class of S_n: the parts
    # of each partition as consecutive cycles, so 1^n gives the identity.
    reps = []
    for parts in _partitions(n, n):
        p, start = [], 0
        for k in parts:
            p.extend(start + (j + 1) % k for j in range(k))
            start += k
        reps.append(tuple(p))
    return reps


def find_symmetric_quotient(
    P: GroupPresentation, max_degree: int = 5, node_budget: int = 500000
):
    """Search for a nontrivial homomorphism to S_n, n <= max_degree.

    Backtracking over generator images in index order.  Conjugating a
    homomorphism by any element of S_n keeps it nontrivial and fixes
    the identity images, so while every earlier generator maps to the
    identity, a generator is tried only on one permutation per cycle
    type; after the first nonidentity image the rest range over all of
    S_n, and each degree is still searched exhaustively.  A relator is
    checked as soon as its highest generator is assigned, shortest
    relators first.  Returns (n, images) or None.
    The homomorphism is nontrivial when at least one image is not the
    identity.

    A relator holds when its image fixes every point.  The check traces
    one point at a time through the relator's letters, last letter
    first, and stops at the first point that moves, so no permutation is
    composed.  A generator's inverse image is computed only when a
    relator being checked reads it.  ``validate_not_free_certificate``
    re-checks a hit by composing the permutations instead.
    """
    return _quotient_search(P, max_degree, node_budget)[0]


def _quotient_search(P, max_degree, node_budget):
    # (hit or None, whether some degree ran out of node_budget).
    if P.ngens == 0:
        return None, False
    # Each relator is kept reversed, with the generators whose inverse it
    # reads, so that a point is traced through it from its last letter.
    by_max = {}
    for r in sorted((r for r in P.relators if r), key=len):
        inverted = tuple(sorted({-g for g in r if g < 0}))
        by_max.setdefault(max(abs(g) for g in r), []).append((r[::-1], inverted))

    for n in range(2, max_degree + 1):
        ident = tuple(range(n))
        perms = list(permutations(range(n)))
        first = _cycle_type_representatives(n)
        # letters[g] is the image of the signed letter g: generators at
        # 1..ngens, and at the negative indices, from the end, the inverses,
        # None until a relator being checked reads one.
        letters = [ident] * (2 * P.ngens + 1)
        nodes = 0

        def assign(g, trivial_so_far):
            nonlocal nodes
            if g > P.ngens:
                return not trivial_so_far
            checks = by_max.get(g, ())
            for p in first if trivial_so_far else perms:
                nodes += 1
                if nodes > node_budget:
                    return False
                letters[g], letters[-g] = p, None
                for word, inverted in checks:
                    for h in inverted:
                        if letters[-h] is None:
                            letters[-h] = _perm_inv(letters[h])
                    if not _fixes_every_point([letters[x] for x in word], ident):
                        break
                else:
                    if assign(g + 1, trivial_so_far and p == ident):
                        return True
            letters[g] = letters[-g] = ident
            return False

        found = assign(1, True)
        # assign refers to itself through this cell; emptying it frees perms
        # now instead of at the next full garbage collection.
        assign = None
        if found:
            return (n, tuple(letters[1 : P.ngens + 1])), False
        if nodes > node_budget:
            return None, True
    return None, False


@_record
class FreenessVerdict:
    status: str  # FREE | NOT_FREE | UNKNOWN
    rank: int | None
    # NOT_FREE: the certificate kind.  UNKNOWN: budget-exhausted:tietze,
    # budget-exhausted:quotient-search or no-certificate-found.
    reason: str | None
    certificate: dict | None
    presentation: GroupPresentation

    def as_dict(self):
        d = _as_dict(self)
        cert = self.certificate
        if isinstance(cert, dict):
            d["certificate"] = {k: _plain(cert[k]) for k in cert if k != "presentation"}
        return d


def freeness_verdict(
    P: GroupPresentation,
    effort_budget: int = 10000,
    max_degree: int = 5,
    node_budget: int = 500000,
) -> FreenessVerdict:
    """Three-valued freeness decision with machine-checkable certificates.

    FREE when simplification removes every relator.  NOT_FREE when the
    abelianization has torsion (free groups have torsion-free H_1), or
    when it is trivial yet a nontrivial finite permutation quotient
    exists (a nontrivial perfect group is not free).  UNKNOWN otherwise,
    with the reason: the first budget that ran out, or
    no-certificate-found when every search ran to completion.
    """
    Q = tietze_simplify(P, effort_budget=effort_budget)
    if not Q.relators:
        return FreenessVerdict("FREE", Q.ngens, None, None, Q)
    ab = abelianization(Q)
    if ab.torsion:
        cert = {"kind": "torsion-in-H1", "torsion": ab.torsion, "presentation": Q}
        return FreenessVerdict("NOT_FREE", None, "torsion-in-H1", cert, Q)
    # A generator occurring once in a relator is a Tietze move left
    # undone, which tietze_simplify leaves only when its budget ran out.
    if any(_once(r) for r in Q.relators):
        reason = "budget-exhausted:tietze"
    else:
        reason = "no-certificate-found"
    if ab.trivial:
        hit, exhausted = _quotient_search(Q, max_degree, node_budget)
        if exhausted and reason == "no-certificate-found":
            reason = "budget-exhausted:quotient-search"
        if hit is not None:
            n, images = hit
            cert = {
                "kind": "perfect-and-nontrivial-quotient",
                "degree": n,
                "images": images,
                "presentation": Q,
            }
            return FreenessVerdict(
                "NOT_FREE", None, "perfect-and-nontrivial-quotient", cert, Q
            )
    return FreenessVerdict("UNKNOWN", None, reason, None, Q)


def _int_sequence(x) -> bool:
    return isinstance(x, (tuple, list)) and all(isinstance(v, int) for v in x)


def validate_not_free_certificate(verdict: FreenessVerdict) -> bool:
    """Re-check a NOT_FREE certificate from scratch.

    A certificate of the wrong shape (not a dict, a field missing or of
    the wrong type) is rejected, never raised on.
    """
    cert = verdict.certificate
    if verdict.status != "NOT_FREE" or not isinstance(cert, dict):
        return False
    Q = cert.get("presentation")
    if not isinstance(Q, GroupPresentation):
        return False
    if cert.get("kind") == "torsion-in-H1":
        torsion = cert.get("torsion")
        if not _int_sequence(torsion) or not torsion or any(t < 2 for t in torsion):
            return False
        factors = abelianization(Q).torsion
        return all(any(f % t == 0 for f in factors) for t in torsion)
    if cert.get("kind") == "perfect-and-nontrivial-quotient":
        n, images = cert.get("degree"), cert.get("images")
        if not isinstance(n, int) or n < 2 or not isinstance(images, (tuple, list)):
            return False
        if len(images) != Q.ngens or not all(_int_sequence(p) for p in images):
            return False
        images = [tuple(p) for p in images]
        # lengths before anything of size n; no images is the trivial map
        if not images or any(len(p) != n for p in images):
            return False
        ident = tuple(range(n))
        if any(tuple(sorted(p)) != ident for p in images):
            return False
        if all(p == ident for p in images):
            return False
        if not abelianization(Q).trivial:
            return False
        return all(_relator_image(r, images, n) == ident for r in Q.relators)
    return False
