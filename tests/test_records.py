"""The contract of the frozen result records, one case per record class."""

import collections
import importlib
import json
import pickle
import pkgutil

import pytest

import minitri

from minitri.bounds import BoundReport
from minitri.combinatorial import (
    BistellarMove,
    CombinatorialityCertificate,
    LevelSummary,
)
from minitri.complexes import PseudomanifoldReport
from minitri.errors import HypothesisError, _record
from minitri.homology import BoundaryMatrix, HomologyProfile
from minitri.pi1 import AbelianInvariants, FreenessVerdict, GroupPresentation
from minitri.snf import SNFResult, SparseMatrix
from minitri.verify import CheckReport, GroupComparison, LinkSphereCheck

P = GroupPresentation(2, ((1, 1), (2, -1, 2)))
LEVEL = LevelSummary(1, 6, 5, None, 0, 0, "circle recognizer")
COMPARISON = GroupComparison(0, "homology", "Z", "Z", "Z", True)

# (class, field names in order, field values, hashable, keys of as_dict())
CASES = [
    (PseudomanifoldReport, ("dimension", "pure", "ridge_degree_two", "strongly_connected"),
     (2, True, True, True), True,
     {"dimension", "pure", "ridge_degree_two", "strongly_connected", "is_closed_pseudomanifold"}),
    (HomologyProfile, ("coeff", "reduced", "kind", "dimension", "groups"),
     ("Z", False, "homology", 2, ((0, 1, ()), (1, 0, (2,)))), True,
     {"coefficients", "reduced", "kind", "dimension", "groups"}),
    (BoundaryMatrix, ("i", "reduced", "row_simplices", "col_simplices", "matrix"),
     (1, False, ((0,), (1,)), ((0, 1),), SparseMatrix((2, 1), {0: {0: -1}, 1: {0: 1}})), True,
     {"i", "reduced", "row_simplices", "col_simplices", "matrix"}),
    (SNFResult, ("shape", "invariant_factors", "pivot_rows"),
     ((2, 2), (1, 2), frozenset({0})), True,
     {"shape", "rank", "invariant_factors"}),
    (GroupPresentation, ("ngens", "relators"), (2, ((1, 1),)), True,
     {"generators", "relators", "text"}),
    (AbelianInvariants, ("rank", "torsion"), (1, (2,)), True,
     {"rank", "torsion"}),
    (FreenessVerdict, ("status", "rank", "reason", "certificate", "presentation"),
     ("NOT_FREE", None, "torsion-in-H1",
      {"kind": "torsion-in-H1", "torsion": (2,), "presentation": P}, P), False,
     {"status", "rank", "reason", "certificate", "presentation"}),
    (LevelSummary, ("sphere_dim", "simplices_checked", "max_link_vertices", "allowed_vertices",
                    "size_violations", "rejections", "method"),
     (3, 10, 8, 9, 0, 0, "homology k-sphere + 3k vertex budget"), True,
     {"sphere_dim", "simplices_checked", "max_link_vertices", "allowed_vertices",
      "size_violations", "rejections", "method"}),
    (CombinatorialityCertificate, ("verdict", "dimension", "levels", "witness",
                                   "witness_reason", "pl_sphere"),
     ("CERTIFIED", 2, (LEVEL,), None, None, False), True,
     {"verdict", "dimension", "levels", "witness", "witness_reason", "pl_sphere"}),
    (BistellarMove, ("face", "cofacet"), ((1,), (2, 3, 4)), True,
     {"face", "cofacet"}),
    (BoundReport, ("rule", "verdict", "bound", "dimension", "hypotheses", "applicable",
                   "flags", "details"),
     ("nonfree-pi1", "at least 10", 10, 3, {"d": 3}, True, ("manifold",), {"note": "x"}), False,
     {"rule", "verdict", "bound", "dimension", "hypotheses", "applicable", "flags", "details"}),
    (GroupComparison, ("index", "kind", "coeff", "left", "right", "equal", "advisory", "note"),
     (1, "cohomology", "Z2", "Z/2", "Z/2", True, True, "top degree"), True,
     {"index", "kind", "coefficients", "left", "right", "equal", "advisory", "note"}),
    (LinkSphereCheck, ("simplex", "sphere_dim", "observed", "passed"),
     ((1, 2), 0, "S^0", True), True,
     {"simplex", "sphere_dim", "observed", "passed"}),
    (CheckReport, ("name", "passed", "entries", "notes"),
     ("complement", True, (COMPARISON,), ("a note",)), True,
     {"name", "passed", "entries", "notes"}),
]

# (class, required values, defaults of the remaining fields)
DEFAULTS = [
    (SNFResult, ((2, 2), (1, 2)), {"pivot_rows": frozenset()}),
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
    cls, names, values, *_ = case
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
    cls, names, values, *_ = case
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
    cls, names, values, hashable, _ = case
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
    cls, names, values, *_ = case
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
    cls, names, values, *_ = case
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


@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_as_dict_keys_and_json_types(case):
    cls, _, values, _, keys = case
    d = cls(*values).as_dict()
    assert set(d) == keys
    if cls is not BoundaryMatrix:
        # only plain JSON types: a tuple or a record would not come back equal
        assert json.loads(json.dumps(d)) == d


def test_freeness_verdict_certificate_drops_its_presentation():
    images = ((1, 0, 2), (0, 2, 1))
    cert = {"kind": "perfect-and-nontrivial-quotient", "degree": 3, "images": images,
            "presentation": P}
    d = FreenessVerdict("NOT_FREE", None, cert["kind"], cert, P).as_dict()
    assert d["certificate"] == {"kind": cert["kind"], "degree": 3, "images": [[1, 0, 2], [0, 2, 1]]}
    assert d["presentation"] == P.as_dict()


Pair = collections.namedtuple("Pair", "a b")


@_record
class _Leaf:
    value: int


@_record
class _Tree:
    name: str
    leaves: tuple
    meta: dict
    pair: Pair


def test_shared_as_dict_converts_by_field():
    meta = {"k": (1, 2)}
    tree = _Tree("t", ((_Leaf(1), 2), _Leaf(3)), meta, Pair(4, 5))
    d = tree.as_dict()
    assert d == {"name": "t", "leaves": [[{"value": 1}, 2], {"value": 3}], "meta": meta,
                 "pair": [4, 5]}
    # a dict is copied, but only one level deep
    assert d["meta"] is not meta and d["meta"]["k"] is meta["k"]


def test_record_keeps_its_own_methods():
    @_record
    class Own:
        x: int

        def as_dict(self):
            return {"own": self.x}

        def __repr__(self):
            return "own"

    assert Own(1).as_dict() == {"own": 1}
    assert repr(Own(1)) == "own"
    assert Own(1) == Own(1) and Own(1)._replace(x=2).x == 2


def test_cases_list_every_record():
    # A record class in any minitri module must have a case above, so that
    # a new record cannot skip the contract tests.
    records = set()
    for info in pkgutil.iter_modules(minitri.__path__):
        module = importlib.import_module(f"minitri.{info.name}")
        records.update(obj for obj in vars(module).values()
                       if isinstance(obj, type) and hasattr(obj, "_fields")
                       and obj.__module__ == module.__name__)
    assert records == {case[0] for case in CASES}
