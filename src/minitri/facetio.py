"""Text interchange for complexes and assertion files.

Facet files carry one facet per line as whitespace-separated vertex
labels.  Blank lines are skipped and ``#`` starts a comment, full-line
or trailing.  A token consisting only of digits (with optional sign) is
read back as an integer label; every other token stays a string, so
integer-labelled fixtures round-trip exactly.

Assertion files use ``key=value`` lines with the same comment rules.
"""

from __future__ import annotations

import re

from .complexes import SimplicialComplex, from_facets
from .errors import FacetInputError

_INT_TOKEN = re.compile(r"[+-]?\d+\Z")


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_token(tok: str):
    return int(tok) if _INT_TOKEN.match(tok) else tok


def loads(text: str) -> SimplicialComplex:
    """Parse facet-file text into a complex."""
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        toks = line.split()
        facet = [_parse_token(t) for t in toks]
        if len(set(facet)) != len(facet):
            raise FacetInputError(f"line {lineno}: facet repeats a vertex: {line!r}")
        facets.append(facet)
    if not facets:
        raise FacetInputError("no facets found in input")
    return from_facets(facets)


def _load(path, parse):
    # A malformed file, undecodable bytes included, is named in the error.
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FacetInputError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return parse(text)
    except FacetInputError as exc:
        raise FacetInputError(f"{path}: {exc}") from None


def load(path) -> SimplicialComplex:
    return _load(path, loads)


def dumps(complex_: SimplicialComplex) -> str:
    """Serialize facets, one per line, in the complex's deterministic order.

    A label is written only if ``loads`` reads it back as itself: the
    string ``'01'`` would come back as the integer 1.
    """
    lines = []
    for facet in complex_.facets:
        parts = []
        for lab in facet:
            s = str(lab)
            if not s or any(c.isspace() for c in s) or "#" in s or _parse_token(s) != lab:
                raise FacetInputError(f"label {lab!r} cannot be written to a facet file")
            parts.append(s)
        if not parts:
            raise FacetInputError("the empty complex cannot be written to a facet file")
        lines.append(" ".join(parts))
    if not lines:
        raise FacetInputError("the empty complex cannot be written to a facet file")
    return "\n".join(lines) + "\n"


def dump(complex_: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(complex_))


def parse_assertions(text: str) -> dict:
    """Parse ``key=value`` assertion lines into a dict of strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise FacetInputError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise FacetInputError(f"line {lineno}: expected key=value, got {line!r}")
        out[key] = value
    return out


def load_assertions(path) -> dict:
    return _load(path, parse_assertions)
