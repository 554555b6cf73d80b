"""Span tracer that wraps minitri's public functions from outside the package.

Each traced function is replaced, in every minitri namespace that binds
it (the defining module, modules that imported it by name, the package
itself, and ``SimplicialComplex`` for methods), by a wrapper that
records a span ``[name, parent, start, end, counts]``.  ``parent`` is the
index of the enclosing span or -1 for a root.  Spans stay in memory; the
caller aggregates them with :meth:`Tracer.summary`.

Self time of a span is its duration minus the durations of its direct
children.  Time inside a traced pass that no root span covers is
reported as ``untraced_s``; the two add up to the pass wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


def _shape(matrix):
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        return tuple(shape)
    rows = list(matrix)
    return len(rows), len(rows[0]) if rows else 0


def _snf_counts(args, kwargs, result):
    m, n = result.shape
    return {"cells": m * n, "max_cols": n}


def _rank_counts(args, kwargs, result):
    m, n = _shape(args[0] if args else kwargs["matrix"])
    return {"cells": m * n}


def _certificate_counts(args, kwargs, result):
    return {"links": sum(level.simplices_checked for level in result.levels)}


def _tietze_counts(args, kwargs, result):
    P = args[0] if args else kwargs["P"]
    return {
        "gens_in": P.ngens,
        "gens_out": result.ngens,
        "relators_in": len(P.relators),
        "relators_out": len(result.relators),
    }


def _quotient_counts(args, kwargs, result):
    return {"found": int(result is not None)}


# module -> traced attributes; "SimplicialComplex.x" names a method.
TARGETS = {
    "snf": {"smith_normal_form": _snf_counts, "rank_mod_p": _rank_counts},
    "homology": {"homology": None, "cohomology": None},
    "complexes": {
        "from_facets": None,
        "SimplicialComplex.link": None,
        "SimplicialComplex.is_closed_pseudomanifold": None,
    },
    "combinatorial": {
        "small_link_certificate": _certificate_counts,
        "recognize_circle": None,
        "recognize_2sphere": None,
    },
    "pi1": {
        "tietze_simplify": _tietze_counts,
        "edge_path_presentation": None,
        "abelianization": None,
        "find_symmetric_quotient": _quotient_counts,
    },
    "bounds": {"analyze": None},
    "verify": {
        "alexander_duality_check": None,
        "complement_homology_check": None,
        "local_homology_sweep": None,
    },
    "facetio": {"load": None},
    "cli": {"main": None},
}

# Counters aggregated by maximum; every other counter is summed.
_MAX_COUNTERS = {"max_cols"}


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self, clock=clock):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    @property
    def active(self):
        """True while the wrappers are installed."""
        return bool(self._patches)

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name, fn, count=None):
        """Return a wrapper of ``fn`` that records a span named ``name``."""
        spans, stack, now = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, now(), None, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = now()
            if count is not None:
                spans[index][4] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded ``minitri`` namespace binding it.

        ``minitri.cli`` is traced only when it is already imported.  The
        module is looked up in ``sys.modules``: ``minitri.homology`` as an
        attribute is the function, not the module.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("minitri")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "minitri" or n.startswith("minitri.")]
        for mod_name, attrs in TARGETS.items():
            module = sys.modules.get(f"minitri.{mod_name}")
            if module is None:
                continue
            for attr, count in attrs.items():
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[fn_name]
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original, count)
                if owner_name:
                    self._patch(owner, fn_name, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def add_process(self, spawned, record):
        """Merge the spans a traced child process wrote (see cli_shim.py).

        The child's interpreter start-up, from ``spawned`` to its first
        statement, and its ``import minitri.cli`` become root spans named
        ``cli.interpreter`` and ``cli.import``.
        """
        self.spans.append(["cli.interpreter", -1, spawned, record["started"], None])
        self.spans.append(["cli.import", -1, *record["import"], None])
        offset = len(self.spans)
        for name, parent, start, end, counts in record["spans"]:
            self.spans.append([name, parent + offset if parent >= 0 else -1, start, end, counts])

    def summary(self, wall_s):
        """Per-name stats plus the time no root span covers.

        Returns ``(stats, untraced_s)`` where ``stats[name]`` holds
        ``self_s``, ``calls`` and the summed counters.  Root intervals
        are merged before subtraction, so overlapping roots would make
        the self times exceed the covered time and fail the caller's
        accounting check instead of hiding.
        """
        child_s = [0.0] * len(self.spans)
        roots = []
        for _, parent, start, end, _ in self.spans:
            if parent < 0:
                roots.append((start, end))
            else:
                child_s[parent] += end - start
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(roots):
            covered += max(0.0, end - max(start, reach))
            reach = max(reach, end)

        stats = {}
        for i, (name, _, start, end, counts) in enumerate(self.spans):
            entry = stats.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - child_s[i]
            entry["calls"] += 1
            for key, value in (counts or {}).items():
                if key in _MAX_COUNTERS:
                    entry[key] = max(entry.get(key, 0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
        return stats, wall_s - covered
