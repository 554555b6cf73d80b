"""Exception types shared across the toolkit.

Everything derives from ComplexError so callers can catch toolkit
failures with a single except clause.  The CLI maps ComplexError to
exit code 2 (bad input) unless a command decides otherwise.
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
