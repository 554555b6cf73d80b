"""Exception types shared across the toolkit, and the decorator of its result records.

Everything derives from ComplexError so callers can catch toolkit
failures with a single except clause.  The CLI maps ComplexError to
exit code 2 (bad input) unless a command decides otherwise.

Every result record is a ``_record`` class, and its ``as_dict()`` (the
JSON of the library and the CLI) is made from its fields by one rule: a
tuple becomes a list, a nested record its own ``as_dict()``, a dict a
shallow copy, and any other value stays.  A record whose JSON differs
from its fields defines its own ``as_dict``, which wins.
"""


class ComplexError(Exception):
    """Base class for all toolkit errors."""


class FacetInputError(ComplexError):
    """Malformed facet input: empty facet list, empty facet, duplicate
    vertex inside a facet, or an unparseable facet file line."""


class DimensionError(ComplexError):
    """Dimension argument out of range for the complex at hand."""


class MissingSimplexError(ComplexError):
    """A simplex argument is not a face of the complex."""


class VertexSetError(ComplexError):
    """A vertex-set argument is invalid: unknown vertex, or overlapping
    vertex labels in a join."""


class NotPseudomanifoldError(ComplexError):
    """Operation requires a closed pseudomanifold and the check failed."""


class ConnectivityError(ComplexError):
    """Operation requires a connected complex."""


class CoefficientError(ComplexError):
    """Coefficient ring specifier is not 'Z' or 'Zp' with p prime."""


class HypothesisError(ComplexError):
    """Arguments violate a documented hypothesis of the computation
    (wrong parameter range, degenerate input, unsupported case)."""


class FixtureError(ComplexError):
    """Unknown fixture name or parameters out of range."""


class CrossCheckError(ComplexError):
    """Two independent computations of the same invariant disagree, such
    as cohomology and homology under universal coefficients."""


# -- frozen result records ---------------------------------------------------


class _Fresh:
    """Record field default built anew, by ``factory()``, for each instance."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


def _record(cls):
    """Make ``cls`` a frozen record over its annotated fields, in order.

    A field's class attribute is its default; a ``_Fresh`` default is
    built per instance.  Fields named in the class's ``_uncompared`` take
    no part in ``==`` and ``hash``.  ``__init__`` (which calls
    ``__post_init__`` if the class has one) and the comparison key are
    generated per class; the other methods are shared, and one the class
    defines itself wins over the shared one.  The shared ``as_dict`` maps
    each field by name through ``_plain``.
    """
    fields = tuple(cls.__annotations__)
    env = {"_set": object.__setattr__}
    params, body = [], []
    for name in fields:
        if name not in cls.__dict__:
            params.append(name)
        else:
            default = env[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
            if isinstance(default, _Fresh):
                delattr(cls, name)
                body.append(f" if {name} is _d_{name}: {name} = _d_{name}.factory()")
        body.append(f" _set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()")
    key = "".join(f"self.{n}, " for n in fields if n not in getattr(cls, "_uncompared", ()))
    exec(
        f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
        + f"\ndef _key(self):\n return ({key})\n",
        env,
    )
    for name in ("__init__", "_key"):
        env[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, env[name])
    for name, method in _SHARED:
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls._fields = fields
    return cls


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._key() == other._key()
    return NotImplemented


def _hash(self):
    return hash(self._key())


def _repr(self):
    items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({items})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _replace(self, **changes):
    """A copy of the record with the given fields changed."""
    return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


def _plain(value):
    """``value`` in plain JSON types: tuples and lists become lists, records dicts."""
    if hasattr(value, "as_dict"):
        return value.as_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def _as_dict(self):
    """The record as a dict of its fields, each converted by ``_plain``."""
    return {name: _plain(getattr(self, name)) for name in self._fields}


_SHARED = (
    ("__eq__", _eq),
    ("__hash__", _hash),
    ("__repr__", _repr),
    ("__setattr__", _setattr),
    ("__delattr__", _delattr),
    ("_replace", _replace),
    ("as_dict", _as_dict),
)
