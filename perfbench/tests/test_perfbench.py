"""Tests of the benchmark's own code: checks, tracer arithmetic, generator.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import random
import sys

import minitri as mt
import pytest
import run
import tracer
import workloads


def test_checker_flags_wrong_expectation():
    op = workloads.ladder_ops(0, None)[3]  # homology over Z of cp2_9
    assert op.name == "homology Z cp2_9"
    profile = op.run()
    assert op.check(profile) == []
    wrong = workloads.expect_groups(((0, 1, ()), (4, 1, ())))
    assert wrong(profile)


def test_pi1_checks_flag_wrong_verdicts():
    assert workloads.pi1_problems("trivial", "FREE", 0) == []
    assert workloads.pi1_problems("trivial", "UNKNOWN", None) == []
    assert workloads.pi1_problems("trivial", "FREE", 2)
    assert workloads.pi1_problems("trivial", "NOT_FREE", None)
    assert workloads.pi1_problems("Z^2", "FREE", 2)
    assert workloads.pi1_problems("Z/2", "UNKNOWN", None)
    # A forged certificate: Z/2 claimed from a presentation of Z.
    Z = mt.GroupPresentation(1, ())
    forged = mt.FreenessVerdict("NOT_FREE", None, "torsion-in-H1",
                                {"kind": "torsion-in-H1", "torsion": (2,), "presentation": Z}, Z)
    assert workloads.pi1_problems("Z/2", "NOT_FREE", None, lambda: forged)
    assert workloads.check_not_free(forged)


def test_cli_check_flags_wrong_verdict():
    check = workloads.check_cli(workloads.RP2_6, "homology", 6)

    def child(code, groups):
        out = json.dumps({"homology": {"groups": groups}})
        return workloads.ChildResult(code, out, "", 0, 0.0, 0.0)

    rp2 = {"0": {"betti": 1, "torsion": []}, "1": {"betti": 0, "torsion": [2]}}
    assert check(child(0, rp2)) == []
    assert check(child(0, {"0": {"betti": 1, "torsion": []}}))
    assert check(child(2, rp2))


def test_analysis_check_flags_rejected_manifold():
    source = workloads.RP2_6
    K = source.build()
    reports = mt.analyze(K)
    assert workloads.check_analysis(source)((K, reports)) == []
    as_non_manifold = dataclasses.replace(source, manifold=False)
    assert workloads.check_analysis(as_non_manifold)((K, reports))


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_arithmetic_on_nested_calls():
    t = tracer.Tracer(clock=FakeClock())
    inner = t.wrap("m.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = t.wrap("m.outer", outer_body)
    start = t.clock()
    outer()
    inner()
    wall = t.clock() - start
    # Readings: start 1; outer 2..7 with inner spans 3..4 and 5..6;
    # inner 8..9; end 10.
    stats, untraced = t.summary(wall)
    assert stats["m.outer"] == {"self_s": 3.0, "calls": 1}
    assert stats["m.inner"] == {"self_s": 3.0, "calls": 3}
    assert untraced == 3.0
    assert stats["m.outer"]["self_s"] + stats["m.inner"]["self_s"] + untraced == wall


def test_overlapping_roots_break_accounting():
    t = tracer.Tracer()
    t.spans[:] = [["a", -1, 0.0, 2.0, None], ["b", -1, 1.0, 3.0, None]]
    stats, untraced = t.summary(4.0)
    assert sum(e["self_s"] for e in stats.values()) + untraced != 4.0


def test_tracer_wraps_every_rebinding_and_restores():
    hom = sys.modules["minitri.homology"]
    comb = sys.modules["minitri.combinatorial"]
    bounds = sys.modules["minitri.bounds"]
    originals = (hom.smith_normal_form, comb.homology, bounds.small_link_certificate,
                 mt.homology, mt.SimplicialComplex.link)
    t = tracer.Tracer()
    with t.installed():
        assert hom.smith_normal_form is not originals[0]
        assert comb.homology is not originals[1] and comb.homology is mt.homology
        assert bounds.small_link_certificate is not originals[2]
        K = mt.fixture("cross_polytope", d=2)
        assert mt.homology(K).groups == ((0, 1, ()), (2, 1, ()))
        K.link((0,))
        names = {span[0] for span in t.spans}
        assert {"homology.homology", "snf.smith_normal_form", "complexes.link"} <= names
        parents = {span[0]: span[1] for span in t.spans}
        assert t.spans[parents["snf.smith_normal_form"]][0] == "homology.homology"
    assert (hom.smith_normal_form, comb.homology, bounds.small_link_certificate,
            mt.homology, mt.SimplicialComplex.link) == originals


def test_child_process_spans_are_merged():
    t = tracer.Tracer()
    record = {"started": 1.5, "import": [1.5, 2.0],
              "spans": [["cli.main", -1, 2.5, 4.0, None], ["facetio.load", 0, 2.6, 2.8, None]]}
    t.add_process(1.0, record)
    stats, untraced = t.summary(4.5 - 1.0)
    assert stats["cli.interpreter"]["self_s"] == 0.5
    assert stats["cli.import"]["self_s"] == 0.5
    assert stats["cli.main"]["self_s"] == pytest.approx(1.3)
    assert untraced == pytest.approx(1.0)


def test_tail_index():
    assert run.tail_index(7) == 6
    assert run.tail_index(26) == 15
    assert sorted(range(26))[run.tail_index(26)] == 15  # ten larger values remain


def test_untraced_run_fills_window_with_a_partial_last_pass():
    now = [0.0]

    def one_second():
        now[0] += 1.0

    ops = [workloads.Op(f"op{i}", one_second, lambda result: []) for i in range(2)]
    record = run.timed_passes(ops, 5.5, 0, None, lambda: now[0])
    # The third pass stops before its second op, which would end at 6.
    assert record.latencies == [[1.0, 1.0], [1.0, 1.0], [1.0]]
    assert (record.attempted, record.failed) == (5, 0)
    assert run.op_means([[1.0, 3.0], [2.0, 5.0], [6.0]]) == [3.0, 4.0]


def test_generator_is_deterministic_per_seed():
    def facets(seed):
        return [K.facets for _, K in workloads.generate_corpus(random.Random(seed))[:8]]

    assert facets(3) == facets(3)
    assert facets(3) != facets(4)


def test_generator_keeps_source_homology_and_pseudomanifold():
    for source, K in workloads.generate_corpus(random.Random(5))[:8]:
        assert K.is_closed_pseudomanifold().is_closed_pseudomanifold, source.name
        assert mt.homology(K).groups == source.homology, source.name
        assert mt.homology(K, coeff="Z2").groups == source.homology_z2, source.name
