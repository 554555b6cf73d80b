"""The contract of the frozen result records, one case per record class."""

import pickle

import pytest

from minitri.bounds import BoundReport
from minitri.combinatorial import (
    BistellarMove,
    BistellarResult,
    CombinatorialityCertificate,
    LevelSummary,
)
from minitri.complexes import PseudomanifoldReport
from minitri.errors import HypothesisError
from minitri.homology import BoundaryMatrix, HomologyProfile
from minitri.pi1 import AbelianInvariants, FreenessVerdict, GroupPresentation
from minitri.snf import SNFResult, SparseMatrix
from minitri.verify import CheckReport, GroupComparison, LinkSphereCheck

P = GroupPresentation(2, ((1, 1), (2, -1, 2)))
LEVEL = LevelSummary(1, 6, 5, None, 0, 0, "circle recognizer")
MOVE = BistellarMove((1, 2), (3, 4))
COMPARISON = GroupComparison(0, "homology", "Z", "Z", "Z", True)

# (class, field names in order, field values, hashable)
CASES = [
    (PseudomanifoldReport, ("dimension", "pure", "ridge_degree_two", "strongly_connected"),
     (2, True, True, True), True),
    (HomologyProfile, ("coeff", "reduced", "kind", "dimension", "groups"),
     ("Z", False, "homology", 2, ((0, 1, ()), (1, 0, (2,)))), True),
    (BoundaryMatrix, ("i", "reduced", "row_simplices", "col_simplices", "matrix"),
     (1, False, ((0,), (1,)), ((0, 1),), SparseMatrix((2, 1), {0: {0: -1}, 1: {0: 1}})), True),
    (SNFResult, ("shape", "invariant_factors", "pivot_rows"),
     ((2, 2), (1, 2), frozenset({0})), True),
    (GroupPresentation, ("ngens", "relators", "gen_edges", "tree_edges"),
     (2, ((1, 1),), ((0, 1), (1, 2)), ((0, 2),)), True),
    (AbelianInvariants, ("rank", "torsion"), (1, (2,)), True),
    (FreenessVerdict, ("status", "rank", "reason", "certificate", "presentation"),
     ("NOT_FREE", None, "torsion", {"kind": "torsion"}, P), False),
    (LevelSummary, ("sphere_dim", "simplices_checked", "max_link_vertices", "allowed_vertices",
                    "size_violations", "rejections", "method"),
     (3, 10, 8, 9, 0, 0, "homology k-sphere + 3k vertex budget"), True),
    (CombinatorialityCertificate, ("verdict", "dimension", "levels", "witness",
                                   "witness_reason", "pl_sphere"),
     ("CERTIFIED", 2, (LEVEL,), None, None, False), True),
    (BistellarMove, ("face", "cofacet"), ((1,), (2, 3, 4)), True),
    (BistellarResult, ("success", "moves", "restarts_used", "final_facets", "detail"),
     (True, (MOVE,), 1, ((1, 2, 3),), "done"), True),
    (BoundReport, ("rule", "verdict", "bound", "dimension", "hypotheses", "applicable",
                   "flags", "details"),
     ("nonfree-pi1", "at least 10", 10, 3, {"d": 3}, True, ("manifold",), {"note": "x"}), False),
    (GroupComparison, ("index", "kind", "coeff", "left", "right", "equal", "advisory", "note"),
     (1, "cohomology", "Z2", "Z/2", "Z/2", True, True, "top degree"), True),
    (LinkSphereCheck, ("simplex", "sphere_dim", "observed", "passed"),
     ((1, 2), 0, "S^0", True), True),
    (CheckReport, ("name", "passed", "entries", "notes"),
     ("complement", True, (COMPARISON,), ("a note",)), True),
]

# (class, required values, defaults of the remaining fields)
DEFAULTS = [
    (SNFResult, ((2, 2), (1, 2)), {"pivot_rows": frozenset()}),
    (GroupPresentation, (1, ()), {"gen_edges": (), "tree_edges": ()}),
    (BoundReport, ("r", "v", None, None, {}, False), {"flags": (), "details": {}}),
    (GroupComparison, (0, "homology", "Z", "0", "0", True), {"advisory": False, "note": ""}),
    (CheckReport, ("local", False, ()), {"notes": ()}),
]


def _ids(cases):
    return [case[0].__name__ for case in cases]


def _other(value):
    """A different value of the same kind, which keeps a presentation valid."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, str)):
        return value + type(value)(1)
    if isinstance(value, tuple):
        return value + (value[0] if value else (1,),)
    if isinstance(value, dict):
        return {**value, "other": 1}
    if value is None:
        return 0
    return SparseMatrix((0, 0), {})


@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_positional_and_keyword_construction(case):
    cls, names, values, _ = case
    rec = cls(*values)
    assert [getattr(rec, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == rec
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS, ids=_ids(DEFAULTS))
def test_defaults(cls, required, defaults):
    rec = cls(*required)
    assert {name: getattr(rec, name) for name in defaults} == defaults


def test_bound_report_details_are_fresh_per_instance():
    a = BoundReport("r", "v", None, None, {}, False)
    b = BoundReport("r", "v", None, None, {}, False)
    assert a.details == {} and a.details is not b.details
    a.details["k"] = 1
    assert b.details == {}


@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_frozen(case):
    cls, names, values, _ = case
    rec = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert [getattr(rec, name) for name in names] == list(values)


@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_equality_and_hash(case):
    cls, names, values, hashable = case
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != object() and a != tuple(values)
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        # a dict field makes the record unhashable
        with pytest.raises(TypeError):
            hash(a)
    # a record differs from one with any compared field changed
    for name in names:
        if (cls, name) != (SNFResult, "pivot_rows"):
            assert a != a._replace(**{name: _other(getattr(a, name))}), name


def test_snf_equality_ignores_pivot_rows():
    a = SNFResult((2, 2), (1, 2), frozenset({0}))
    b = SNFResult((2, 2), (1, 2), frozenset({1}))
    assert a == b and hash(a) == hash(b)
    assert a != SNFResult((2, 2), (1, 3), frozenset({0}))


def test_group_presentation_validates_relators():
    for relators in (((3,),), ((0,),), ((1, -1),)):
        with pytest.raises(HypothesisError):
            GroupPresentation(2, relators)
    with pytest.raises(HypothesisError):
        P._replace(ngens=1)


@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_replace(case):
    cls, names, values, _ = case
    rec = cls(*values)
    assert rec._replace() == rec
    last = names[-1]
    other = _other(values[-1])
    changed = rec._replace(**{last: other})
    assert getattr(changed, last) is other
    assert [getattr(changed, name) for name in names[:-1]] == list(values[:-1])
    assert getattr(rec, last) is values[-1]
    with pytest.raises(TypeError):
        rec._replace(no_such_field=1)


@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_pickle_round_trip(case):
    cls, names, values, _ = case
    rec = cls(*values)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    if isinstance(rec, BoundaryMatrix):
        # SparseMatrix compares by identity; compare its contents
        assert (back.matrix.shape, back.matrix.rows) == (rec.matrix.shape, rec.matrix.rows)
        assert back._replace(matrix=rec.matrix) == rec
    else:
        assert back == rec
    if isinstance(rec, SNFResult):
        assert back.pivot_rows == rec.pivot_rows
    with pytest.raises(AttributeError):
        setattr(back, names[0], None)


def test_repr_names_every_field():
    assert repr(SNFResult((2, 2), (1, 2))) == (
        "SNFResult(shape=(2, 2), invariant_factors=(1, 2), pivot_rows=frozenset())"
    )
