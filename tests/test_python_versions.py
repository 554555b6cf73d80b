"""Smoke test on the oldest Python that pyproject.toml allows and the newest one on PATH.

The records' generated ``__init__`` and the package's syntax must work on
every version the package claims; the main test run covers only one.
"""

import os
import re
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FLOOR_MINOR = int(re.search(
    r'requires-python\s*=\s*">=\s*3\.(\d+)"', (ROOT / "pyproject.toml").read_text()
).group(1))

# Stdlib only: build every record class, run a verdict, and start the CLI.
SCRIPT = textwrap.dedent("""
    import pickle
    import subprocess
    import sys
    import tempfile

    import minitri as mt
    from minitri import facetio, fixtures
    from minitri.combinatorial import LevelSummary
    from minitri.homology import BoundaryMatrix
    from minitri.verify import CheckReport, GroupComparison, LinkSphereCheck

    P = mt.GroupPresentation(2, ((1, 1),))
    level = LevelSummary(1, 6, 5, None, 0, 0, "circle recognizer")
    comparison = GroupComparison(0, "homology", "Z", "Z", "Z", True)
    records = [
        mt.PseudomanifoldReport(2, True, True, True),
        mt.HomologyProfile("Z", False, "homology", 2, ((0, 1, ()),)),
        BoundaryMatrix(1, False, ((0,),), ((0, 1),), None),
        mt.SNFResult((2, 2), (1, 2), frozenset({0})),
        P,
        mt.AbelianInvariants(1, (2,)),
        mt.FreenessVerdict("NOT_FREE", None, "torsion", None, P),
        level,
        mt.CombinatorialityCertificate("CERTIFIED", 2, (level,), None, None, False),
        mt.BistellarMove((1,), (2, 3, 4)),
        mt.BistellarResult(True, (), 1, ((1, 2, 3),), "done"),
        mt.BoundReport("rule", "verdict", None, 3, {}, True),
        comparison,
        LinkSphereCheck((1, 2), 0, "S^0", True),
        CheckReport("complement", True, (comparison,)),
    ]
    for rec in records:
        assert pickle.loads(pickle.dumps(rec)) == rec._replace() == rec, rec
        try:
            rec.extra = 1
        except AttributeError:
            pass
        else:
            sys.exit(f"{type(rec).__name__} is not frozen")
    reports = mt.analyze(fixtures.rp2_6())
    assert reports and all(r.as_dict() for r in reports)

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/rp2.facets"
        facetio.dump(fixtures.rp2_6(), path)
        proc = subprocess.run([sys.executable, "-B", "-m", "minitri.cli", "info", path],
                              capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "orientable           False" in proc.stdout, proc.stdout
    print(*sys.version_info[:2])
""")


def _start(minor):
    """The ``python3.<minor>`` on PATH, if it starts and is CPython of that version."""
    exe = shutil.which(f"python3.{minor}")
    if exe is None:
        return None
    # pyenv shims pick a version that is not the global one from
    # PYENV_VERSION; other interpreters ignore it.
    env = dict(os.environ, PYENV_VERSION=f"3.{minor}")
    try:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:2])"],
            env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if probe.returncode != 0 or probe.stdout.split() != ["cpython", "3", str(minor)]:
        return None
    return exe, env


def _interpreter(which):
    """(minor, executable, environment) of the floor or the newest python3.x that starts."""
    minors = [FLOOR_MINOR] if which == "floor" else range(20, FLOOR_MINOR - 1, -1)
    for minor in minors:
        found = _start(minor)
        if found:
            return (minor, *found)
    return None


@pytest.mark.parametrize("which", ["floor", "newest"])
def test_smoke_on_python_version(which):
    found = _interpreter(which)
    if found is None:
        pytest.skip(f"no python3.x interpreter for the {which} version starts")
    minor, exe, env = found
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([exe, "-B", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", str(minor)]
