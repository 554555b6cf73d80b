import argparse
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from minitri import facetio, fixtures
from minitri.cli import _build_parser, main
from minitri.complexes import from_facets


@pytest.fixture
def rp2_file(tmp_path):
    path = tmp_path / "rp2.facets"
    facetio.dump(fixtures.rp2_6(), path)
    return str(path)


@pytest.fixture
def c94_file(tmp_path):
    path = tmp_path / "c94.facets"
    facetio.dump(fixtures.cyclic_polytope(9, 4), path)
    return str(path)


def test_fixture_round_trip(tmp_path):
    out = tmp_path / "cross3.facets"
    assert main(["fixture", "cross_polytope", str(out), "--d", "3"]) == 0
    K = facetio.load(out)
    assert K == fixtures.cross_polytope(3)


def test_fixture_list(capsys):
    assert main(["fixture", "list"]) == 0
    out = capsys.readouterr().out
    assert "rp2_6" in out and "cyclic_polytope" in out


def test_fixture_unknown_name(tmp_path):
    assert main(["fixture", "nope", str(tmp_path / "x.facets")]) == 2


def test_fixture_missing_output():
    assert main(["fixture", "rp2_6"]) == 2


def test_info_human(rp2_file, capsys):
    assert main(["info", rp2_file]) == 0
    out = capsys.readouterr().out
    assert "dimension            2" in out
    assert "orientable           False" in out


def test_info_json(rp2_file, capsys):
    assert main(["info", rp2_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == 6
    assert payload["pseudomanifold"]["is_closed_pseudomanifold"]
    assert payload["orientable"] is False


def test_info_on_zero_dimensional_complex(tmp_path, capsys):
    path = tmp_path / "s0.facets"
    path.write_text("1\n2\n")
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "f-vector             (2,)" in out
    assert "closed pseudomanifold n/a" in out
    assert main(["info", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_vector"] == [2]
    assert payload["pseudomanifold"] is None
    assert "orientable" not in payload


def test_homology_human(rp2_file, capsys):
    assert main(["homology", rp2_file]) == 0
    out = capsys.readouterr().out
    assert "H1 = Z/2" in out


def test_homology_json_with_coeff(rp2_file, capsys):
    assert main(["homology", rp2_file, "--coeff", "z2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["homology"]["coefficients"] == "Z2"


def test_homology_bad_coeff(rp2_file, capsys):
    assert main(["homology", rp2_file, "--coeff", "z4"]) == 2


def test_links(c94_file, capsys):
    assert main(["links", c94_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["links"]) == 9
    assert all(row["homology_sphere"] for row in payload["links"])


def test_pi1(rp2_file, capsys):
    assert main(["pi1", rp2_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["status"] == "NOT_FREE"
    assert payload["abelianization"]["torsion"] == [2]


def test_pi1_seeded(rp2_file, capsys):
    assert main(["pi1", rp2_file, "--seed", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"]["status"] == "NOT_FREE"


def test_bounds_human(rp2_file, capsys):
    assert main(["bounds", rp2_file]) == 0
    out = capsys.readouterr().out
    assert "nonfree-pi1" in out
    assert "inapplicable" in out


def test_bounds_json(c94_file, capsys):
    assert main(["bounds", c94_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rules = {r["rule"] for r in payload["reports"]}
    assert "free-pi1-contrapositive" in rules


def test_bounds_assert_file(c94_file, tmp_path, capsys):
    afile = tmp_path / "a.txt"
    afile.write_text("pi1=not-free\n")
    # asserted hypothesis contradicts the vertex count: exit 1
    assert main(["bounds", c94_file, "--assert", str(afile)]) == 1


@pytest.mark.parametrize("line", ["pi1=notfree", "pi=not-free", "simply-connected=maybe"])
def test_bounds_assert_file_typo(c94_file, tmp_path, capsys, line):
    afile = tmp_path / "a.txt"
    afile.write_text(line + "\n")
    assert main(["bounds", c94_file, "--assert", str(afile)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bounds_assert_file_errors_name_the_file(c94_file, tmp_path, capsys):
    afile = tmp_path / "typo.txt"
    afile.write_text("just-a-word\n")
    assert main(["bounds", c94_file, "--assert", str(afile)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {afile}: line 1: expected key=value")


def test_bounds_no_certify_flags_instead_of_certifying(c94_file, capsys, monkeypatch):
    from minitri.bounds import analyze

    certified = json.loads(json.dumps([r.as_dict() for r in analyze(facetio.load(c94_file))]))

    def refuse(K):
        raise AssertionError("--no-certify ran the certificate")

    monkeypatch.setattr("minitri.bounds.small_link_certificate", refuse)
    assert main(["bounds", c94_file, "--no-certify", "--json"]) == 0
    unchecked = json.loads(capsys.readouterr().out)["reports"]
    assert [r["rule"] for r in unchecked] == [r["rule"] for r in certified]
    # each report the certificate supported is flagged unchecked instead; nothing else moves
    swap = {"manifold-hypothesis-supported": "manifold-hypothesis-unchecked"}
    for got, want in zip(unchecked, certified):
        assert got == {**want, "flags": [swap.get(f, f) for f in want["flags"]]}
    assert sum("manifold-hypothesis-unchecked" in r["flags"] for r in unchecked) == 3


def test_check_combinatorial_certified(c94_file, capsys):
    assert main(["check-combinatorial", c94_file]) == 0
    assert "CERTIFIED" in capsys.readouterr().out


def test_check_combinatorial_inconclusive(tmp_path, capsys):
    path = tmp_path / "c124.facets"
    facetio.dump(fixtures.cyclic_polytope(12, 4), path)
    assert main(["check-combinatorial", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["verdict"] == "INCONCLUSIVE"


def test_verify_duality(c94_file, capsys):
    assert main(["verify-duality", c94_file, "--partitions", "5"]) == 0
    assert "5/5" in capsys.readouterr().out


def test_verify_duality_explicit_vertices(c94_file, capsys):
    assert main(["verify-duality", c94_file, "--vertices", "1,2,3"]) == 0


def test_verify_duality_needs_sphere(rp2_file):
    assert main(["verify-duality", rp2_file, "--partitions", "2"]) == 2


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_duality_refuses_no_partitions(c94_file, n, capsys):
    assert main(["verify-duality", c94_file, "--partitions", n]) == 2
    assert main(["verify-duality", c94_file, "--partitions", n, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--partitions" in captured.err


def test_verify_duality_one_vertex(tmp_path, capsys):
    path = tmp_path / "point.facets"
    path.write_text("1\n")
    assert main(["verify-duality", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_duality_on_zero_sphere(tmp_path, capsys):
    path = tmp_path / "s0.facets"
    path.write_text("1\n2\n")
    assert main(["verify-duality", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: duality needs a certified PL-sphere")


def test_verify_complement(rp2_file, capsys):
    assert main(["verify-complement", rp2_file, "--facet", "1,2,4"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_verify_complement_all_facets(rp2_file, capsys):
    assert main(["verify-complement", rp2_file]) == 0
    assert "10/10" in capsys.readouterr().out


def test_verify_complement_non_facet(rp2_file):
    assert main(["verify-complement", rp2_file, "--facet", "1,2"]) == 2


def test_empty_vertices_is_the_empty_set(c94_file, capsys):
    # "" names V = {} as "," does; it must not run the random partitions of an omitted --vertices
    outputs = []
    for text in ("", ","):
        assert main(["verify-duality", c94_file, "--partitions", "2", "--vertices", text]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("\n1/1 partitions verified\n")


def test_empty_facet_is_the_empty_set(rp2_file, capsys):
    # "" names the empty set as "," does; it must not sweep all facets as an omitted --facet does
    for text in ("", ","):
        assert main(["verify-complement", rp2_file, "--facet", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "() does not span a facet" in captured.err


def test_label_options_read_tokens_as_facet_files_do(tmp_path, capsys):
    # "1_0" is a string label in a facet file, so --facet and --vertices
    # must not read it as the integer 10
    path = tmp_path / "underscore.facets"
    path.write_text("1_0 2 3\n1_0 2 4\n1_0 3 4\n2 3 4\n")
    assert main(["verify-complement", str(path), "--facet", "1_0,2,3"]) == 0
    assert main(["verify-duality", str(path), "--vertices", "1_0"]) == 0
    assert main(["verify-duality", str(path), "--vertices", "10"]) == 2
    assert "vertex 10 is not in the complex" in capsys.readouterr().err


def test_undecodable_files_are_input_errors(c94_file, tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 2 \xff\n")
    assert main(["info", str(path)]) == 2
    assert main(["bounds", c94_file, "--assert", str(path)]) == 2
    assert capsys.readouterr().err.count(f"error: {path}: not UTF-8 text") == 2


def test_verify_local(c94_file, capsys):
    assert main(["verify-local", c94_file]) == 0


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_text("1 2 3\n4 4 5\n")
    assert main(["info", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file():
    assert main(["info", "/nonexistent/path.facets"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0


def _fresh_python(*args):
    """Run a fresh interpreter on the package sources and return the finished process."""
    src = Path(__file__).parent.parent / "src"
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )


# In-process tests run after the session has imported every module, so only
# a fresh interpreter shows what a subcommand loads and whether its handler
# imports everything it calls.
_FILE_COMMANDS = ("info", "homology", "links", "pi1", "bounds", "check-combinatorial",
                  "verify-complement", "verify-local")


def test_file_commands_list_every_file_subcommand():
    # The fresh-interpreter tests below cover _FILE_COMMANDS and verify-duality,
    # so a new subcommand that takes a file must join them.
    sub, = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    takes_file = {name for name, p in sub.choices.items()
                  if {"file", "json"} <= {a.dest for a in p._actions}}
    assert takes_file == {*_FILE_COMMANDS, "verify-duality"}


@pytest.fixture
def rejected_file(tmp_path):
    # The suspension of the torus: a closed pseudomanifold whose two cone
    # points have torus links, so the certificate rejects it.
    path = tmp_path / "susp_torus.facets"
    facetio.dump(fixtures.torus_7().join(from_facets([(100,), (101,)])), path)
    return str(path)


_NEGATIVE_ON_REJECTED = ("bounds", "check-combinatorial", "verify-complement", "verify-local")


@pytest.mark.parametrize("argv", [
    *([command, source] for source in ("rp2", "c94", "rejected")
      for command in (*_FILE_COMMANDS, "verify-duality")),
    ["bounds", "c94", "--assert", "not-free"],
], ids="-".join)
def test_exit_code_does_not_depend_on_json(argv, rp2_file, c94_file, rejected_file, tmp_path, capsys):
    command, source = argv[:2]
    if command == "verify-duality" and source != "c94":
        expected = 2  # not a certified sphere
    elif "--assert" in argv or (source == "rejected" and command in _NEGATIVE_ON_REJECTED):
        expected = 1
    else:
        expected = 0
    assertions = tmp_path / "not-free.txt"
    assertions.write_text("pi1=not-free\n")
    files = {"rp2": rp2_file, "c94": c94_file, "rejected": rejected_file, "not-free": str(assertions)}
    argv = [files.get(arg, arg) for arg in argv]
    assert main(argv) == expected
    human = capsys.readouterr().out
    assert main([*argv, "--json"]) == expected
    if expected == 2:
        assert human == ""
    else:
        assert human.endswith("\n") and not human.endswith("\n\n")


@pytest.mark.parametrize("argv", [
    *([command, "c94", "--json"] for command in (*_FILE_COMMANDS, "verify-duality")),
    *([command, "rp2", "--json"] for command in _FILE_COMMANDS),
    ["fixture", "list"],
], ids="-".join)
def test_fresh_interpreter_matches_in_process(argv, c94_file, rp2_file, capsys):
    argv = [{"c94": c94_file, "rp2": rp2_file}.get(arg, arg) for arg in argv]
    code = main(argv)
    expected = capsys.readouterr().out
    proc = _fresh_python("-m", "minitri.cli", *argv)
    assert (proc.returncode, proc.stdout) == (code, expected), proc.stderr


def test_cli_import_leaves_numpy_out(rp2_file):
    script = textwrap.dedent("""
        import sys

        LAZY = [f"minitri.{m}" for m in ("pi1", "combinatorial", "bounds", "verify", "fixtures")]

        def refuse(step, *names):
            found = [m for m in names if m in sys.modules]
            if found:
                sys.exit(f"{step} loaded {' '.join(found)}")

        import minitri
        refuse("import minitri", *LAZY)
        from minitri.cli import main
        refuse("import minitri.cli", "numpy", "concurrent.futures", *LAZY)
        for command in ("info", "homology"):
            main([command, sys.argv[1], "--json"])
            refuse(command, *LAZY)
        main(["pi1", sys.argv[1], "--json"])
        refuse("pi1", "minitri.bounds", "minitri.verify", "minitri.combinatorial")
        if "minitri.pi1" not in sys.modules:
            sys.exit("pi1 did not load minitri.pi1")
    """)
    proc = _fresh_python("-c", script, rp2_file)
    assert proc.returncode == 0, proc.stderr


# Run as ``python -m minitri.cli`` does, but note the modules loaded before
# the package, so what a site hook of the host loads is not counted.
_GUARD = textwrap.dedent("""
    import runpy
    import sys

    before = set(sys.modules)
    try:
        runpy.run_module("minitri.cli", run_name="__main__", alter_sys=True)
    finally:
        added = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
        print("start-up guard:", *added, file=sys.stderr)
""")


@pytest.mark.parametrize("argv", [
    *([command, "rp2", "--json"] for command in (*_FILE_COMMANDS, "verify-duality")),
    ["fixture", "rp2_6", "out"],
    ["fixture", "list"],
], ids="-".join)
def test_subcommands_skip_dataclasses_and_inspect(argv, rp2_file, tmp_path):
    argv = [{"rp2": rp2_file, "out": str(tmp_path / "out.facets")}.get(arg, arg) for arg in argv]
    code = main(argv)
    proc = _fresh_python("-c", _GUARD, *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == "start-up guard:", proc.stderr


def test_package_surface_in_fresh_interpreter():
    script = textwrap.dedent("""
        import ast
        import importlib
        import pathlib
        import sys
        import types

        # The first import of a submodule binds it onto the package, over
        # the function that shares the name ``homology``.
        import minitri.homology, minitri.bounds, minitri.verify

        problems = []
        if not isinstance(minitri.homology, types.FunctionType):
            problems.append(f"minitri.homology is {minitri.homology!r}")
        if minitri.__all__ != sorted(set(minitri.__all__)):
            problems.append("__all__ is unsorted or has duplicates")
        tree = ast.parse(pathlib.Path(minitri.__file__).read_text())
        eager = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names}
        lazy = {name for names in minitri._LAZY.values() for name in names}
        missing = sorted((eager | lazy) - set(minitri.__all__))
        if not eager or missing:
            problems.append(f"__all__ lacks {missing}; eager imports found: {sorted(eager)}")
        submodules = {"bounds", "combinatorial", "complexes", "errors", "facetio", "fixtures",
                      "homology", "pi1", "snf", "verify"}
        public = {name for name in dir(minitri) if not name.startswith("_")}
        if public != set(minitri.__all__) | submodules:
            problems.append(f"dir() differs from __all__ and the submodules: {sorted(public)}")
        # Submodules first, as resolving a name loads its submodule.
        unreachable = [name for name in [*sorted(submodules), *sorted(public)]
                       if not hasattr(minitri, name)]
        if unreachable:
            problems.append(f"dir() lists unreachable names {unreachable}")
        try:
            minitri.no_such_name
            problems.append("no AttributeError for an unknown name")
        except AttributeError:
            pass
        from minitri import facetio, fixtures
        if (facetio, fixtures) != (sys.modules["minitri.facetio"], sys.modules["minitri.fixtures"]):
            problems.append("from minitri import facetio, fixtures gave no submodules")
        namespace = {}
        exec("from minitri import *", namespace)
        for name in minitri.__all__:
            value = namespace.get(name)
            home = importlib.import_module(getattr(value, "__module__", "minitri"))
            if value is None or value is not getattr(home, name, None):
                problems.append(f"{name} is not its defining module's object")
        # A lazy name follows its submodule: resolved while a patch of the
        # submodule is in place, it must not keep the patch once undone.
        for name in sorted(minitri._SOURCE):
            home = importlib.import_module(f"minitri.{minitri._SOURCE[name]}")
            original, patch = getattr(home, name), object()
            setattr(home, name, patch)
            patched = getattr(minitri, name)
            setattr(home, name, original)
            if (patched, getattr(minitri, name)) != (patch, original):
                problems.append(f"minitri.{name} does not follow a patch of its submodule")
        sys.exit("; ".join(problems) or None)
    """)
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
