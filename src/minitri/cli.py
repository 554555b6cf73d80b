"""Command-line front end.

Subcommands map one-to-one onto the library's analyses.  Exit codes are
meant for scripting over triangulation corpora: 0 success, 1 when a
check or certificate came back negative, 2 for input errors (bad facet
file, unknown fixture, unmet hypothesis).  Human-readable tables by
default, ``--json`` for machines.

Each facet-file handler takes the loaded complex and the parsed
arguments and returns ``(code, payload, lines)``: the exit code, the
JSON object without its ``file`` key, and the table's lines.  ``main``
loads the file and prints one or the other, so the exit code cannot
depend on ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import facetio
from .complexes import _compact
from .errors import ComplexError, HypothesisError
from .homology import euler_characteristic, homology


def _label_list(text: str) -> tuple:
    # Tokens read as in a facet file, so "1_0" stays a string label.
    return tuple(facetio._parse_token(t) for t in text.replace(",", " ").split())


def _cmd_info(K, args):
    # The pseudomanifold report needs dimension >= 1; S^0 still gets its f-vector.
    pm = K.is_closed_pseudomanifold() if K.dimension >= 1 else None
    closed = pm is not None and pm.is_closed_pseudomanifold
    payload = {
        "dimension": K.dimension,
        "vertices": K.n_vertices,
        "facets": len(K.facets),
        "f_vector": list(K.f_vector()),
        "euler_characteristic": euler_characteristic(K),
        "connected": K.is_connected(),
        "pseudomanifold": None if pm is None else pm.as_dict(),
    }
    lines = [
        f"dimension            {K.dimension}",
        f"vertices             {K.n_vertices}",
        f"facets               {len(K.facets)}",
        f"f-vector             {tuple(payload['f_vector'])}",
        f"euler characteristic {payload['euler_characteristic']}",
        f"connected            {payload['connected']}",
        f"closed pseudomanifold {'n/a' if pm is None else closed}",
    ]
    if closed:
        payload["orientable"] = K.is_orientable()
        lines.append(f"orientable           {payload['orientable']}")
    elif pm is not None:
        if not pm.pure:
            lines.append("  not pure")
        if not pm.ridge_degree_two:
            lines.append("  some ridge is not in exactly two facets")
        if not pm.strongly_connected:
            lines.append("  facet-adjacency graph disconnected")
    return 0, payload, lines


def _cmd_homology(K, args):
    prof = homology(K, coeff=args.coeff, reduced=args.reduced)
    kind = "reduced homology" if args.reduced else "homology"
    low = -1 if args.reduced else 0
    lines = [f"{kind} over {prof.coeff}"]
    lines += [f"  H{i} = {prof.describe(i)}" for i in range(low, K.dimension + 1)]
    return 0, {"homology": prof.as_dict()}, lines


def _cmd_links(K, args):
    d = K.dimension
    rows = []
    links = K._links(0)
    for i, v in enumerate(K.vertices):
        lk = _compact(K.labels, links[(i,)])
        prof = homology(lk, reduced=True)
        rows.append(
            {
                "vertex": v,
                "link_dimension": lk.dimension,
                "link_vertices": lk.n_vertices,
                "link_facets": len(lk.facets),
                "homology_sphere": prof.is_sphere(d - 1),
            }
        )
    lines = [
        f"vertex links of a {d}-dimensional complex",
        f"{'vertex':>10}  {'dim':>4}  {'vertices':>8}  {'facets':>6}  sphere-homology",
    ]
    lines += [
        f"{str(r['vertex']):>10}  {r['link_dimension']:>4}  "
        f"{r['link_vertices']:>8}  {r['link_facets']:>6}  {r['homology_sphere']}"
        for r in rows
    ]
    return 0, {"dimension": d, "links": rows}, lines


def _cmd_pi1(K, args):
    import random

    from .pi1 import abelianization, edge_path_presentation, freeness_verdict
    rng = random.Random(args.seed) if args.seed is not None else None
    P = edge_path_presentation(K, rng=rng)
    verdict = freeness_verdict(P)
    Q = verdict.presentation
    ab = abelianization(Q)
    payload = {
        "raw": {"generators": P.ngens, "relators": len(P.relators)},
        "simplified": Q.as_dict(),
        "presentation": str(Q),
        "abelianization": ab.as_dict(),
        "verdict": verdict.as_dict(),
    }
    rank = f" (rank {verdict.rank})" if verdict.status == "FREE" else ""
    lines = [
        f"edge-path presentation: {P.ngens} generators, {len(P.relators)} relators",
        f"simplified:            {payload['presentation']}",
        f"abelianization:        {ab.describe()}",
        f"verdict:               {verdict.status}{rank}",
    ]
    if verdict.reason:
        lines.append(f"reason:                {verdict.reason}")
    return 0, payload, lines


def _cmd_bounds(K, args):
    from .bounds import analyze
    assertions = facetio.load_assertions(args.assert_file) if args.assert_file else None
    reports = analyze(K, assertions=assertions, certify=not args.no_certify)
    negative = any(
        "manifold-hypothesis-rejected" in r.flags
        or any(f.startswith("contradiction") for f in r.flags)
        for r in reports
    )
    lines = [f"{'rule':34s} {'bound':>5}  verdict"]
    for r in reports:
        bound = "-" if r.bound is None else str(r.bound)
        mark = "" if r.applicable else "  [inapplicable]"
        lines.append(f"{r.rule:34s} {bound:>5}  {r.verdict}{mark}")
        lines += [f"{'':34s} {'':>5}  * {f}" for f in r.flags]
    return int(negative), {"reports": [r.as_dict() for r in reports]}, lines


def _cmd_check_combinatorial(K, args):
    from .combinatorial import small_link_certificate
    cert = small_link_certificate(K)
    lines = [f"verdict: {cert.verdict}"]
    for lev in cert.levels:
        budget = "-" if lev.allowed_vertices is None else str(lev.allowed_vertices)
        lines.append(
            f"  links of dimension {lev.sphere_dim}: {lev.simplices_checked} checked, "
            f"max {lev.max_link_vertices} vertices (budget {budget}), "
            f"{lev.size_violations} oversized, {lev.rejections} rejected [{lev.method}]"
        )
    if cert.witness is not None:
        lines.append(f"witness: {cert.witness} ({cert.witness_reason})")
    lines.append(f"PL-sphere: {cert.pl_sphere}")
    return int(cert.verdict != "CERTIFIED"), {"certificate": cert.as_dict()}, lines


def _cmd_verify_duality(K, args):
    from .verify import alexander_duality_check
    reports = []
    if args.vertices is not None:
        reports.append(alexander_duality_check(K, _label_list(args.vertices)))
    else:
        import random
        rng = random.Random(args.seed)
        verts = list(K.vertices)
        if args.partitions < 1:
            raise HypothesisError(f"--partitions must be at least 1, not {args.partitions}")
        if len(verts) < 2:
            raise HypothesisError(f"a partition needs two vertices; the complex has {len(verts)}")
        for _ in range(args.partitions):
            size = rng.randint(1, len(verts) - 1)
            V = tuple(rng.sample(verts, size))
            reports.append(alexander_duality_check(K, V))
    lines = []
    for r in reports:
        lines.append(f"{'pass' if r.passed else 'FAIL'}  {r.name}")
        if not r.passed:
            lines += [f"    degree {e.index}: {e.left} vs {e.right}" for e in r.entries if not e.equal]
    passed = sum(r.passed for r in reports)
    lines.append(f"{passed}/{len(reports)} partitions verified")
    return int(passed < len(reports)), {"checks": [r.as_dict() for r in reports]}, lines


def _cmd_verify_complement(K, args):
    from .verify import complement_homology_check
    facets = [_label_list(args.facet)] if args.facet is not None else list(K.facets)
    reports = [complement_homology_check(K, f) for f in facets]
    lines = []
    for r in reports:
        lines.append(f"{'pass' if r.passed else 'FAIL'}  {r.name}")
        lines += [f"      {note}" for note in r.notes]
        if not r.passed:
            lines += [f"    {e.kind} degree {e.index}: {e.left} vs {e.right}"
                      for e in r.entries if not e.equal and not e.advisory]
    passed = sum(r.passed for r in reports)
    lines.append(f"{passed}/{len(reports)} facets verified")
    return int(passed < len(reports)), {"checks": [r.as_dict() for r in reports]}, lines


def _cmd_verify_local(K, args):
    from .verify import local_homology_sweep
    report = local_homology_sweep(K)
    lines = [f"{'pass' if report.passed else 'FAIL'}  {report.name}: {len(report.entries)} simplices checked"]
    if not report.passed:
        lines += [f"    {e.simplex}: expected sphere of dim {e.sphere_dim}, got {e.observed}"
                  for e in report.entries if not e.passed]
    return int(not report.passed), {"check": report.as_dict()}, lines


def _cmd_fixture(args) -> int:
    from . import fixtures
    if args.name == "list":
        for name in fixtures.fixture_names():
            print(name)
        return 0
    if not args.out:
        print("error: output file required (fixture NAME OUT)", file=sys.stderr)
        return 2
    params = {}
    if args.d is not None:
        params["d"] = args.d
    if args.n is not None:
        params["n"] = args.n
    K = fixtures.fixture(args.name, **params)
    facetio.dump(K, args.out)
    print(f"wrote {args.out}: {len(K.facets)} facets, {K.n_vertices} vertices, dimension {K.dimension}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minitri",
        description="Simplicial complex toolkit: homology, fundamental group, "
        "triangulation size bounds, combinatoriality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        return p

    add("info", _cmd_info, "f-vector, dimension, pseudomanifold report")

    p = add("homology", _cmd_homology, "homology profile")
    p.add_argument("--coeff", default="Z", help="Z or Zp with p prime (default Z)")
    p.add_argument("--reduced", action="store_true")

    add("links", _cmd_links, "vertex link summaries")

    p = add("pi1", _cmd_pi1, "edge-path presentation and freeness verdict")
    p.add_argument("--seed", type=int, default=None, help="randomize the spanning tree")

    p = add("bounds", _cmd_bounds, "run all vertex-count bounds")
    p.add_argument("--assert", dest="assert_file", default=None, metavar="FILE",
                   help="key=value assertions file (pi1=not-free, simply-connected=true)")
    p.add_argument("--no-certify", action="store_true",
                   help="skip the combinatoriality certificate")

    add("check-combinatorial", _cmd_check_combinatorial,
        "small-link combinatoriality certificate")

    p = add("verify-duality", _cmd_verify_duality,
            "complement duality on a certified sphere")
    p.add_argument("--vertices", default=None, metavar="V1,V2,...",
                   help="one explicit vertex set (default: random partitions)")
    p.add_argument("--partitions", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("verify-complement", _cmd_verify_complement,
            "deleted-facet complement homology check")
    p.add_argument("--facet", default=None, metavar="V1,V2,...",
                   help="one facet (default: sweep all facets)")

    add("verify-local", _cmd_verify_local,
        "local homology sweep over all simplex links")

    p = sub.add_parser("fixture", help="write a named fixture to a facet file")
    p.set_defaults(func=_cmd_fixture, file=None)
    p.add_argument("name", help="fixture name, or 'list'")
    p.add_argument("out", nargs="?", default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
    try:
        if args.file is None:
            return args.func(args)
        code, payload, lines = args.func(facetio.load(args.file), args)
        if args.json:
            print(json.dumps({"file": args.file, **payload}, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        return code
    except (ComplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
