"""minitri benchmark: three seeded workloads, each a single-process closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists and which layer it loads):
``homology_ladder``, ``manifold_corpus`` and ``cli_batch``.

A pass runs every op of the workload once, in sequence; the next op
starts only when the previous one returned.  Passes repeat within
``--seconds``: the first pass always runs whole, and after it an op
whose previous latency would carry it past the deadline is not started,
so the last pass may stop part-way and the run measures its whole
window.  Each timing comes from every op's mean latency over the run.
Every op's verdict is checked against a fixed expectation after its
pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics, with the tracing overhead between the two kinds.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s: the median of at least SETUP_PROBES set-ups, and of more while
# they have taken under SETUP_PROBE_SECONDS in all.  A set-up of about
# 0.3 s (cli_batch) spreads by a quarter from run to run when only three
# are taken; the budget gives such short set-ups about nine samples.
SETUP_PROBES = 3
SETUP_PROBE_SECONDS = 3.0
# op_tail_ms: the latency with TAIL_BEYOND slower ops in the pass.  A pass
# with fewer than MIN_TAIL_OPS ops reports its slowest op instead.
TAIL_BEYOND = 10
MIN_TAIL_OPS = 20
# Tolerance of the check that self times plus untraced time equal the wall.
ACCOUNTING_TOLERANCE_S = 1e-6


def tail_index(n_ops):
    """Index, in ascending order, of the latency reported as op_tail_ms."""
    return n_ops - 1 - TAIL_BEYOND if n_ops >= MIN_TAIL_OPS else n_ops - 1


def run_pass(ops, clock, deadline=None, previous=None):
    """Run the ops in order; return (wall, latencies, [(result, error)]).

    With ``deadline``, the pass stops before the first op whose latency
    in ``previous`` (the pass before) would end it after the deadline.
    """
    latencies, results = [], []
    start = clock()
    for i, op in enumerate(ops):
        if deadline is not None and clock() + previous[i] > deadline:
            break
        t = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # the op failed; the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        results.append((result, error))
    return clock() - start, latencies, results


def check_pass(ops, results, problems):
    """Check each op's verdict; record problems by op name; return failures."""
    failed = 0
    for op, (result, error) in zip(ops, results):
        if error is None:
            try:
                found = op.check(result)
            except Exception as exc:  # a malformed result fails its op
                found = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            found = [error]
        if found:
            failed += 1
            problems.setdefault(op.name, found)
    return failed


def probe_setup(workloads, name, seed, workdir, clock):
    """Median over fresh interpreters that import minitri and build inputs."""
    samples = []
    start = clock()
    while len(samples) < SETUP_PROBES or clock() - start < SETUP_PROBE_SECONDS:
        i = len(samples)
        probe_dir = workdir / f"probe-{i}"
        probe_dir.mkdir()
        child = workloads.run_child(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(probe_dir)],
            workdir, clock)
        shutil.rmtree(probe_dir)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-500:]}")
        data = json.loads(child.stdout.splitlines()[-1])
        samples.append({
            "setup_s": child.ended - child.spawned,
            "interpreter_s": data["started"] - child.spawned,
            "import_s": data["import_s"],
        })
    medians = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    return dict(medians, probes=len(samples))


def layer_values(stats):
    """Flatten tracer stats into ``<module>.<function>.<stat>`` values."""
    out = {}
    for name, entry in stats.items():
        for key, value in entry.items():
            out[f"{name}.{key}"] = value
    return out


def derived_layer_values(values, n_passes):
    """Per-pass means, plus the ratios computed from summed counts."""
    out = {key: value / n_passes for key, value in values.items()}
    gens_in = values.get("pi1.tietze_simplify.gens_in", 0)
    if gens_in:
        out["pi1.tietze_simplify.gens_eliminated_ratio"] = (
            gens_in - values["pi1.tietze_simplify.gens_out"]) / gens_in
    calls = values.get("pi1.find_symmetric_quotient.calls", 0)
    if calls:
        out["pi1.find_symmetric_quotient.found_ratio"] = (
            values["pi1.find_symmetric_quotient.found"] / calls)
    for stage in ("interpreter", "import"):
        if f"cli.{stage}.self_s" in out:
            out[f"cli.{stage}_s"] = out[f"cli.{stage}.self_s"]
    return out


def select(spec_metrics, values, known_layers):
    """Pick the metrics BENCHMARK.json names; a layer never called reads 0."""
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        if name not in values:
            if name.rsplit(".", 1)[0] not in known_layers:
                raise KeyError(f"no value for metric {name}")
            values[name] = 0
        out[name] = {"value": values[name], "unit": metric["unit"]}
    return out


@dataclass
class Record:
    """What the timed passes of one run produced."""

    walls: list = field(default_factory=list)  # untraced passes
    latencies: list = field(default_factory=list)  # per untraced pass, per op
    traced_walls: list = field(default_factory=list)
    layer_sums: dict = field(default_factory=dict)
    accounting_errors: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    child_peak_kb: int = 0

    def add_checks(self, ops, results):
        self.attempted += len(results)
        self.failed += check_pass(ops, results, self.problems)
        self.child_peak_kb = max([self.child_peak_kb] + [
            getattr(result, "maxrss_kb", 0) for result, _ in results])

    def add_trace(self, stats, untraced, wall):
        self_sum = sum(entry["self_s"] for entry in stats.values())
        if abs(self_sum + untraced - wall) > ACCOUNTING_TOLERANCE_S:
            self.accounting_errors.append((self_sum, untraced, wall))
        self.traced_walls.append(wall)
        sums = self.layer_sums
        for key, value in layer_values(stats).items():
            sums[key] = sums.get(key, 0) + value
        sums["trace.untraced_s"] = sums.get("trace.untraced_s", 0) + untraced


def timed_passes(ops, seconds, trace, tracer, clock):
    """Run and check passes until ``seconds`` elapse.

    Without ``trace``, every pass after the first stops before an op
    that would end after the deadline, so that the timed ops fill the
    window: a pass of cli_batch takes about 16 s, and whole passes alone
    would leave a fifth of the window unmeasured.  With ``trace``, whole
    traced and untraced passes alternate, so that the overhead compares
    passes from the same period; no pass may overrun, and at least one
    of each kind runs.  The traced kind goes first: the first pass after
    set-up can run slower, which then overstates the overhead rather
    than hiding it.
    """
    record = Record()
    deadline = clock() + seconds
    traced = bool(trace)
    while True:
        if traced:
            tracer.reset()
            with tracer.installed():
                wall, _, results = run_pass(ops, clock)
            record.add_trace(*tracer.summary(wall), wall)
        else:
            cutoff = deadline if record.latencies and not trace else None
            wall, latencies, results = run_pass(
                ops, clock, cutoff, record.latencies[-1] if cutoff else None)
            if latencies:
                record.walls.append(wall)
                record.latencies.append(latencies)
        record.add_checks(ops, results)
        if not trace and len(results) < len(ops):
            return record
        if trace and clock() + wall >= deadline and record.walls and record.traced_walls:
            return record
        traced = bool(trace) and not traced


def op_means(rows):
    """Each op's mean latency over the passes that reached it, in op order."""
    return [statistics.mean(row[i] for row in rows if i < len(row)) for i in range(len(rows[0]))]


def end_to_end_values(record, setup):
    # Means over the run: host speed here switches between a fast and a
    # slow state for seconds at a time, and a mean moves smoothly with
    # the share of fast time where a median of a few passes jumps.
    means = sorted(op_means(record.latencies))
    peak_kb = record.child_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": sum(means),
        "op_p50_ms": statistics.median(means) * 1000,
        "op_tail_ms": means[tail_index(len(means))] * 1000,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer_values(record, setup):
    values = derived_layer_values(record.layer_sums, len(record.traced_walls))
    if "cli.interpreter_s" not in values:
        # Library workloads start their one interpreter during set-up.
        values["cli.interpreter_s"] = setup["interpreter_s"]
        values["cli.import_s"] = setup["import_s"]
    values["trace.wall_s"] = statistics.median(record.traced_walls)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(record.walls) - 1
    return values


def measure(args, spec, workdir):
    import workloads
    from tracer import TARGETS, Tracer, clock

    setup = probe_setup(workloads, args.workload, args.seed, workdir, clock)
    tracer = Tracer()
    span_file = workdir / "spans.json"
    plain_cli = workloads.plain_cli(workdir, clock)

    def cli_runner(argv):
        # Traced passes run each command through the shim, which writes spans.
        if not tracer.active:
            return plain_cli(argv)
        span_file.unlink(missing_ok=True)
        child = workloads.run_child(
            [sys.executable, str(HERE / "cli_shim.py"), str(span_file), *argv], workdir, clock)
        tracer.add_process(child.spawned, json.loads(span_file.read_text(encoding="utf-8")))
        return child

    ops = workloads.WORKLOADS[args.workload](args.seed, workdir, cli_runner)
    record = timed_passes(ops, args.seconds, args.trace, tracer, clock)

    n_ops = len(ops)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(record.walls)} untraced passes (the last ran {len(record.latencies[-1])} "
          f"ops) and {len(record.traced_walls)} traced passes of {n_ops} ops; "
          f"setup_s is the median of {setup['probes']} set-ups")
    print("latencies " + json.dumps(record.latencies))
    print("inputs " + json.dumps(
        [{"op": op.name, "f_vector": op.f_vector} for op in ops if op.f_vector]))
    for name, found in record.problems.items():
        print(f"FAILED {name}: {'; '.join(found)}", file=sys.stderr)
    for self_sum, untraced, wall in record.accounting_errors:
        print(f"ACCOUNTING self {self_sum} + untraced {untraced} != wall {wall}",
              file=sys.stderr)

    if args.trace:
        known = {f"{m}.{a.rpartition('.')[2]}" for m, attrs in TARGETS.items() for a in attrs}
        metrics = select(spec["per_layer"], per_layer_values(record, setup), known)
    else:
        metrics = select(spec["end_to_end"], end_to_end_values(record, setup), set())
        rank = tail_index(n_ops) + 1
        print(f"# op_tail_ms: op latency ranked {rank} of {n_ops} per pass "
              f"(p{100 * rank / n_ops:.1f}, {n_ops - rank} slower ops)")
    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']:.6g} {metric['unit']}")
    passes = len(record.walls) + len(record.traced_walls)
    print(f"{'failed_ratio':52s} {record.failed}/{record.attempted} "
          f"(failed ops over ops attempted in {passes} passes)")
    correct = record.failed == 0 and not record.accounting_errors
    print(json.dumps({"correct": correct, "attempted": record.attempted,
                      "failed": record.failed, "metrics": metrics}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("homology_ladder", "manifold_corpus", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "minitri" / "__init__.py").is_file():
        print(f"error: no minitri sources in {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
