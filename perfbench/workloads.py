"""Seeded inputs, operations and fixed expectations of the three workloads.

Every expectation here is a mathematical fact about a source
triangulation (its homology, its fundamental group, whether it is a
manifold or a polytopal sphere), written down by hand.  None is
obtained by running minitri, so a wrong verdict cannot hide behind an
expectation computed by the code under test.

An op is one library call on one input, or one CLI invocation.  Ops
rebuild their complex from a facet list (or facet file) inside the op,
so no memoized ``K._cache`` value carries over between ops or passes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import minitri as mt
from minitri import fixtures

ROOT = Path(__file__).resolve().parent.parent


def _sphere(d):
    return ((0, 1, ()), (d, 1, ()))


@dataclass(frozen=True)
class Source:
    """A source triangulation and the facts its verdicts are checked against.

    ``homology`` and ``homology_z2`` are non-reduced profiles in the
    ``HomologyProfile.groups`` format.  ``pi1`` is "trivial", "Z/2" or
    "Z^2".  ``sphere`` marks polytope boundaries, which are PL spheres.
    """

    name: str
    build: Callable[[], mt.SimplicialComplex]
    homology: tuple
    homology_z2: tuple
    pi1: str
    manifold: bool = True
    orientable: bool = True
    sphere: bool = False

    @property
    def euler(self):
        return sum(b if i % 2 == 0 else -b for i, b, _ in self.homology)


def _suspended_rp2():
    return fixtures.rp2_6().join(mt.from_facets([(7,), (8,)]))


CP2_9 = Source(
    "cp2_9", fixtures.cp2_9,
    ((0, 1, ()), (2, 1, ()), (4, 1, ())), ((0, 1, ()), (2, 1, ()), (4, 1, ())), "trivial",
)
C10_5 = Source("C(10,5)", lambda: fixtures.cyclic_polytope(10, 5),
               _sphere(4), _sphere(4), "trivial", sphere=True)
CROSS4 = Source("cross_polytope(4)", lambda: fixtures.cross_polytope(4),
                _sphere(4), _sphere(4), "trivial", sphere=True)
C9_4 = Source("C(9,4)", lambda: fixtures.cyclic_polytope(9, 4),
              _sphere(3), _sphere(3), "trivial", sphere=True)
CROSS3 = Source("cross_polytope(3)", lambda: fixtures.cross_polytope(3),
                _sphere(3), _sphere(3), "trivial", sphere=True)
TORUS_7 = Source(
    "torus_7", fixtures.torus_7,
    ((0, 1, ()), (1, 2, ()), (2, 1, ())), ((0, 1, ()), (1, 2, ()), (2, 1, ())), "Z^2",
)
RP2_6 = Source(
    "rp2_6", fixtures.rp2_6,
    ((0, 1, ()), (1, 0, (2,))), ((0, 1, ()), (1, 1, ()), (2, 1, ())), "Z/2",
    orientable=False,
)
# Suspension of RP^2: the links of the two apexes are RP^2, so it is a
# closed pseudomanifold but not a manifold.
SUSP_RP2 = Source(
    "suspension(rp2_6)", _suspended_rp2,
    ((0, 1, ()), (2, 0, (2,))), ((0, 1, ()), (2, 1, ()), (3, 1, ())), "trivial",
    manifold=False, orientable=False,
)

# Copies per source.  Op latencies fall in clusters: 12 surfaces and
# presentations; 8 small 3-dimensional inputs; 3 of C(9,4); 8
# 4-dimensional inputs; PSL(2,7).  These counts put op_p50_ms (between
# ranks 16 and 17 of 32) in the middle of the small 3-dimensional
# cluster and op_tail_ms (rank 22) in the middle of the C(9,4) cluster,
# so that neither statistic reads across a gap between clusters.
CORPUS_COPIES = (
    (CP2_9, 3), (C10_5, 3), (CROSS4, 2), (C9_4, 3),
    (CROSS3, 4), (TORUS_7, 5), (RP2_6, 5), (SUSP_RP2, 4),
)
CLI_SOURCES = (CP2_9, C9_4, CROSS4, RP2_6, TORUS_7)

# Groups as (generators, relators); relators are signed 1-based letters.
_A, _B = 1, 2
PRESENTATIONS = (
    ("A5", ((_A, _A), (_B,) * 3, (_A, _B) * 5), 5),
    # <x, y | x^3 = y^5 = (xy)^2>, relators x^3 y^-5 and y^4 x^-1 y^-1 x^-1.
    ("binary_icosahedral", ((_A,) * 3 + (-_B,) * 5, (_B,) * 4 + (-_A, -_B, -_A)), 5),
    # The smallest permutation representation of PSL(2,7) has degree 7.
    ("PSL(2,7)", ((_A, _A), (_B,) * 3, (_A, _B) * 7, (-_A, -_B, _A, _B) * 4), 7),
)


@dataclass
class Op:
    """One timed operation and the check of its verdict.

    ``check`` returns a list of problems; an empty list means the verdict
    matches the fixed expectation.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    f_vector: Optional[tuple] = None


# -- seeded input generation --------------------------------------------------


def relabel(facets, rng):
    """Random integer labels, shuffled facet order and vertex order."""
    verts = sorted({v for f in facets for v in f})
    mapping = dict(zip(verts, rng.sample(range(10 * len(verts)), len(verts))))
    out = []
    for f in facets:
        g = [mapping[v] for v in f]
        rng.shuffle(g)
        out.append(tuple(g))
    rng.shuffle(out)
    return out


def stellar_subdivide(K, rng):
    """Cone a fresh vertex over the boundary of a random facet.

    ``apply_bistellar_move`` never adds a vertex, and vertex-minimal
    inputs such as cp2_9 have no legal flip without one.
    """
    facets = list(K.facets)
    F = facets.pop(rng.randrange(len(facets)))
    v = max(K.vertices) + 1
    facets.extend(tuple(x for x in F if x != y) + (v,) for y in F)
    return mt.from_facets(facets)


def randomize(source, rng, subdivisions):
    """Stellar subdivisions, then 2-5 random pairs of bistellar flips.

    Flips preserve the PL type, so the result keeps the source's
    homology, fundamental group and manifold status.  The second flip of
    a pair has the inverse type of the first (any location but the exact
    undo, when another exists), so the f-vector after the flips is the
    f-vector after the subdivisions: seeds change the triangulation, not
    its size.  Flips that remove a vertex are not drawn.  Labels stay
    integers so that no set iteration order depends on the hash seed.
    """
    K = source.build()
    for _ in range(subdivisions):
        K = stellar_subdivide(K, rng)
    for _ in range(rng.randint(2, 5)):
        first = rng.choice([m for m in mt.bistellar_moves(K) if len(m.face) > 1])
        K = mt.apply_bistellar_move(K, first)
        undo = mt.BistellarMove(face=first.cofacet, cofacet=first.face)
        inverse = [m for m in mt.bistellar_moves(K) if len(m.face) == len(first.cofacet)]
        K = mt.apply_bistellar_move(K, rng.choice([m for m in inverse if m != undo] or inverse))
    return K


def generate_corpus(rng):
    """Randomized triangulations, taking the sources in turn.

    Successive copies of a source alternate one and two subdivisions.
    """
    rounds = max(n for _, n in CORPUS_COPIES)
    return [
        (source, randomize(source, rng, 1 + copy % 2))
        for copy in range(rounds)
        for source, n in CORPUS_COPIES
        if copy < n
    ]


def write_facets(path, facets):
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets), encoding="utf-8")


# -- checks -------------------------------------------------------------------


def expect_groups(expected):
    def check(profile):
        if profile.groups != expected:
            return [f"homology {profile.groups} != expected {expected}"]
        return []
    return check


def pi1_problems(kind, status, rank, verdict=None):
    """Compare a freeness status with the known group.

    ``verdict``, when given, is a zero-argument callable returning the
    full verdict; it is called only for Z/2, whose NOT_FREE certificate
    must validate.  UNKNOWN is incomplete, not wrong, for the trivial
    group and Z^2.
    """
    if kind == "trivial":
        if status == "NOT_FREE" or (status == "FREE" and rank != 0):
            return [f"trivial pi1 reported {status} rank {rank}"]
    elif kind == "Z^2":
        if status == "FREE":
            return ["Z^2 reported FREE"]
    elif status != "NOT_FREE":
        return [f"Z/2 reported {status}"]
    elif verdict is not None and not mt.validate_not_free_certificate(verdict()):
        return ["NOT_FREE certificate does not validate"]
    return []


def check_not_free(verdict):
    if verdict.status != "NOT_FREE":
        return [f"perfect nontrivial group reported {verdict.status}"]
    if not mt.validate_not_free_certificate(verdict):
        return ["NOT_FREE certificate does not validate"]
    return []


def check_analysis(source):
    def check(result):
        K, reports = result
        rules = {r.rule: r for r in reports}
        problems = []
        rejected = "manifold-hypothesis" in rules
        if rejected == source.manifold:
            problems.append("manifold REJECTED" if rejected else "non-manifold not REJECTED")
        # analyze memoizes this profile on K; no recomputation happens here.
        problems += expect_groups(source.homology)(mt.homology(K))
        details = rules["pi1-status"].details
        problems += pi1_problems(
            source.pi1, details["computed"], details["free_rank"],
            lambda: mt.freeness_verdict(mt.edge_path_presentation(K)),
        )
        return problems
    return check


def _groups_json(groups):
    return {str(i): {"betti": b, "torsion": list(t)} for i, b, t in groups}


def _verdict_from_json(data):
    """Rebuild a FreenessVerdict from ``pi1 --json`` output for re-validation."""
    pres = data["presentation"]
    Q = mt.GroupPresentation(pres["generators"], tuple(tuple(r) for r in pres["relators"]))
    cert = data["certificate"]
    if cert is not None:
        cert = dict(cert, presentation=Q)
        for key in ("torsion", "images"):
            if key in cert:
                cert[key] = tuple(tuple(v) if isinstance(v, list) else v for v in cert[key])
    return mt.FreenessVerdict(data["status"], data["rank"], data["reason"], cert, Q)


def check_cli(source, command, n_vertices):
    """Check one CLI invocation's exit status and JSON verdict."""

    def check(child):
        if child.returncode not in (0, 1):
            return [f"exit {child.returncode}: {child.stderr.strip()[-200:]}"]
        try:
            out = json.loads(child.stdout)
        except ValueError:
            return ["stdout is not JSON"]
        problems = []
        code = child.returncode
        if command == "info":
            fv = out["f_vector"]
            alt = sum(f if i % 2 == 0 else -f for i, f in enumerate(fv))
            if (out["vertices"], out["euler_characteristic"], alt) != (
                    n_vertices, source.euler, source.euler):
                problems.append(f"info {out['vertices']} vertices, chi {out['euler_characteristic']}")
            if not out["pseudomanifold"]["is_closed_pseudomanifold"]:
                problems.append("not a closed pseudomanifold")
            if out.get("orientable") != source.orientable:
                problems.append(f"orientable {out.get('orientable')}")
        elif command in ("homology", "homology-z2"):
            want = source.homology if command == "homology" else source.homology_z2
            if out["homology"]["groups"] != _groups_json(want):
                problems.append(f"{command} {out['homology']['groups']}")
        elif command == "links":
            if len(out["links"]) != n_vertices or not all(r["homology_sphere"] for r in out["links"]):
                problems.append("a vertex link is not a homology sphere")
        elif command == "pi1":
            v = out["verdict"]
            problems += pi1_problems(source.pi1, v["status"], v["rank"],
                                     lambda: _verdict_from_json(v))
        elif command == "bounds":
            flags = [f for r in out["reports"] for f in r["flags"]]
            if code != 0 or "manifold-hypothesis-rejected" in flags:
                problems.append(f"bounds exit {code} on a manifold")
            pi1 = next(r for r in out["reports"] if r["rule"] == "pi1-status")["details"]
            problems += pi1_problems(source.pi1, pi1["computed"], pi1["free_rank"])
        elif command == "check-combinatorial":
            cert = out["certificate"]
            if cert["verdict"] == "REJECTED" or code != (cert["verdict"] != "CERTIFIED"):
                problems.append(f"certificate {cert['verdict']} exit {code}")
            if source.sphere and not (cert["verdict"] == "CERTIFIED" and cert["pl_sphere"]):
                problems.append("polytopal sphere not certified as a PL-sphere")
        else:
            checks = out["checks"] if "checks" in out else [out["check"]]
            if code != 0 or not all(c["passed"] for c in checks):
                problems.append(f"{command} failed")
        return problems

    return check


# -- workloads ------------------------------------------------------------------


def _homology(facets, coeff):
    return mt.homology(mt.from_facets(facets), coeff=coeff)


def _analyze(path):
    K = mt.load(path)
    return K, mt.analyze(K)


def _freeness(presentation, degree):
    return mt.freeness_verdict(presentation, max_degree=degree)


def ladder_ops(seed, workdir, runner=None):
    """Homology of a few large complexes, over Z and two prime fields."""
    rng = random.Random(seed)
    cross6 = fixtures.cross_polytope(6)
    c16_6 = fixtures.cyclic_polytope(16, 6)
    octa3 = fixtures.cross_polytope(3)
    # Join with a 3-sphere is a fourfold suspension: H_5 = H_1(RP^2) = Z/2.
    susp4_rp2 = fixtures.rp2_6().join(mt.from_facets([tuple(v + 100 for v in f) for f in octa3.facets]))
    rungs = (
        ("cross_polytope(5)", fixtures.cross_polytope(5), "Z", _sphere(5)),
        ("cross_polytope(6)", cross6, "Z", _sphere(6)),
        ("C(16,6)", c16_6, "Z", _sphere(5)),
        ("cp2_9", fixtures.cp2_9(), "Z", CP2_9.homology),
        ("suspension^4(rp2_6)", susp4_rp2, "Z", ((0, 1, ()), (5, 0, (2,)))),
        ("cross_polytope(6)", cross6, "Z2", _sphere(6)),
        ("C(16,6)", c16_6, "Z3", _sphere(5)),
    )
    return [
        Op(f"homology {coeff} {name}",
           lambda facets=relabel(K.facets, rng), coeff=coeff: _homology(facets, coeff),
           expect_groups(expected), K.f_vector())
        for name, K, coeff, expected in rungs
    ]


def corpus_ops(seed, workdir, runner=None):
    """``analyze`` over a randomized corpus, plus three freeness verdicts."""
    rng = random.Random(seed)
    ops = []
    for i, (source, K) in enumerate(generate_corpus(rng)):
        path = workdir / f"corpus-{i:02d}.facets"
        write_facets(path, relabel(K.facets, rng))
        ops.append(Op(f"analyze {source.name} #{i}", lambda path=path: _analyze(path),
                      check_analysis(source), K.f_vector()))
    for name, relators, degree in PRESENTATIONS:
        P = mt.GroupPresentation(2, relators)
        ops.append(Op(f"freeness_verdict {name}", lambda P=P, d=degree: _freeness(P, d),
                      check_not_free))
    return ops


# (check name, subcommand, extra arguments)
CLI_COMMANDS = (
    ("info", "info", ()),
    ("homology", "homology", ()),
    ("homology-z2", "homology", ("--coeff", "z2")),
    ("links", "links", ()),
    ("pi1", "pi1", ("--seed", "{seed}")),
    ("bounds", "bounds", ()),
    ("check-combinatorial", "check-combinatorial", ()),
    ("verify-complement", "verify-complement", ()),
    ("verify-local", "verify-local", ()),
    ("verify-duality", "verify-duality", ("--seed", "{seed}")),  # needs a PL-sphere
)


def cli_ops(seed, workdir, runner):
    """Every subcommand as a separate CLI process over five facet files."""
    rng = random.Random(seed)
    ops = []
    for source in CLI_SOURCES:
        K = source.build()
        path = workdir / f"{source.name}.facets"
        write_facets(path, relabel(K.facets, rng))
        for command, subcommand, extra in CLI_COMMANDS:
            if command == "verify-duality" and not source.sphere:
                continue
            argv = [subcommand, str(path), *(a.format(seed=seed) for a in extra), "--json"]
            ops.append(Op(f"minitri {command} {source.name}", lambda argv=argv: runner(argv),
                          check_cli(source, command, K.n_vertices), K.f_vector()))
    return ops


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int
    spawned: float
    ended: float


def run_child(argv, workdir, clock):
    """Run a child process to completion and collect its peak RSS.

    Output goes to files so that no pipe can fill up; ``wait4`` returns
    the child's own resource usage.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        spawned = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(), err.read().decode(),
                           usage.ru_maxrss, spawned, ended)


def plain_cli(workdir, clock):
    """Runner for the untraced passes: ``python -m minitri.cli``, as users run it."""
    return lambda argv: run_child([sys.executable, "-m", "minitri.cli", *argv], workdir, clock)


WORKLOADS = {
    "homology_ladder": ladder_ops,
    "manifold_corpus": corpus_ops,
    "cli_batch": cli_ops,
}
