"""Host-wall benchmark of Lobster: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tc-road --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
Their times are reference seconds: wall seconds scaled by a host-speed
probe timed around each interval (see ``measure.py``); the raw wall
times are printed too.
``--trace 1`` measures the per-layer metrics instead: it traces the
set-ups, then alternates untraced and traced operations (the ratio of
their medians is ``trace.overhead``) and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Timed groups of cold set-ups per run; ``setup_s`` is the median over
#: groups of a group's seconds per set-up.
SETUP_GROUPS = 25
#: A group holds as many set-ups as last about this long (judged from one
#: warm set-up), so that a group is timed as reliably as an operation.
SETUP_GROUP_S = 0.1
#: One group runs after every this many operations, so that set-ups meet
#: the same drift of the host as the operations do.
SETUP_EVERY = 4
#: Untimed operations after set-up (allocator and caches warm up); their
#: outputs are checked and count in ``attempted`` and ``failed``.
WARMUP_OPS = 2
#: An untraced run holds at least this many operations, so that p90 has
#: ten samples beyond it; a traced run at least this many of each kind.
MIN_OPS = 100
MIN_TRACED_OPS = 10
#: Operations stop being started this long after the process began, so
#: the run exits well within three minutes whatever happens.
HARD_STOP_S = 150.0

#: Op-scope span name -> per-layer metric (mean self seconds per
#: operation).  Self times of all spans under an operation sum to its
#: duration; the root's self time is the unattributed remainder.
SELF_METRICS = {
    "apm.dispatch": "apm.dispatch_self_s",
    "apm.interp": "apm.interp_self_s",
    "runtime.run": "runtime.run_self_s",
    "runtime.load": "runtime.load_s",
    "runtime.advance": "runtime.advance_self_s",
    "runtime.dedup": "runtime.dedup_s",
    "runtime.remove": "runtime.remove_s",
    "runtime.rows_to_python": "runtime.rows_to_python_s",
    "gpu.join": "gpu.join_s",
    "gpu.sort": "gpu.sort_s",
    "provenance.otimes": "provenance.otimes_s",
    "provenance.oplus": "provenance.oplus_s",
    "provenance.backward": "provenance.backward_s",
    "nn.step": "nn.step_s",
    "stream.apply": "stream.diff_s",
    "stream.window": "stream.window_s",
    "op": "trace.unattributed_s",
}
#: Set-up-scope span name -> metric (mean self seconds per set-up).
SETUP_METRICS = {
    "datalog.frontend": "datalog.frontend_s",
    "ram.plan": "ram.plan_s",
    "apm.lower": "apm.lower_s",
    "runtime.load": "setup.load_s",
    "setup": "setup.unattributed_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import it; a
    directory without the program fails here, before any result."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")
    return numpy, repro


class Run:
    """One workload's measured operations and their outcome."""

    def __init__(self, workload, started: float):
        self.workload = workload
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.op = 0
        #: A second instance of the workload for the repeated set-ups, so
        #: that they can run between operations without touching the
        #: state the operations use.
        self.spare = copy.copy(workload)

    def step(self, timed):
        """Prepare, run (through ``timed``, which returns the output and
        its seconds) and check one operation; None if it raised."""
        workload, op = self.workload, self.op
        self.op += 1
        prepared = workload.prepare(op)
        self.attempted += 1
        try:
            output, seconds = timed(lambda: workload.operation(prepared))
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if not workload.check(op, prepared, output):
            print(f"{workload.name}: operation {op} disagrees with the reference", file=sys.stderr)
            self.failed += 1
        self.work += workload.work(prepared, output)
        return seconds

    def more(self, deadline: float, count: int, minimum: int) -> bool:
        now = time.perf_counter()
        return (now < deadline or count < minimum) and now - self.started < HARD_STOP_S

    def setup_group(self, timed, size: int):
        """Run ``size`` cold set-ups of the spare back to back through
        ``timed``.  Its last set-up's state is dropped and collected
        before (untimed) and dropped after, so that it is not held while
        operations run."""
        self.spare.release()
        gc.collect()

        def group():
            for _ in range(size):
                self.spare.setup()

        try:
            return timed(group)
        finally:
            self.spare.release()

    def finish(self) -> None:
        if not self.workload.finish():
            print(f"{self.workload.name}: final state disagrees with the reference", file=sys.stderr)
            self.failed += 1


def measure_untraced(run: Run, seconds: float) -> tuple[dict, list[float]]:
    from measure import HostProbe, Normalized, tail_percentile

    timer = Normalized(HostProbe())
    timer(run.workload.setup)  # the set-up the operations run on
    # A second, warm set-up sizes the groups; neither is counted.
    size = max(1, round(SETUP_GROUP_S / run.setup_group(timer, 1)[1]))
    setup_s: list[float] = []
    setup_wall: list[float] = []

    def setup_group():
        setup_s.append(run.setup_group(timer, size)[1] / size)
        setup_wall.append(timer.wall[-1] / size)

    for _ in range(WARMUP_OPS):
        run.step(timer)
    run.work = 0
    samples: list[float] = []
    op_wall: list[float] = []
    deadline = time.perf_counter() + seconds
    while run.more(deadline, len(samples), MIN_OPS):
        if run.op % SETUP_EVERY == 0 and len(setup_s) < SETUP_GROUPS:
            setup_group()
        seconds_ = run.step(timer)
        if seconds_ is not None:
            samples.append(seconds_)
            op_wall.append(timer.wall[-1])
    while len(setup_s) < SETUP_GROUPS:
        setup_group()
    run.finish()
    p90 = tail_percentile(samples)
    if p90 is None:
        raise RuntimeError(f"only {len(samples)} operations completed; p90 needs {MIN_OPS}")
    print(f"raw wall seconds: setup {statistics.median(setup_wall):.6g} ({size} per group)  "
          f"op p50 {statistics.median(op_wall):.6g}  op p90 {tail_percentile(op_wall):.6g}")
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "op_s.p90": (p90, "s"),
        "work_per_s": (run.work / sum(samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, samples


def measure_traced(run: Run, seconds: float, seed: int) -> tuple[dict, list[float]]:
    from measure import HostProbe, Normalized
    from spans import OP_ROOT, SETUP_ROOT, Installed, SpanRecorder, layer_patches, summarize

    workload = run.workload
    recorder = SpanRecorder()
    patches = layer_patches(workload.provenance_class())
    timer = Normalized(HostProbe())

    def traced(root, op, fn):
        installed = Installed(patches, recorder)
        try:
            return recorder.root(root, op, fn)
        finally:
            installed.restore()

    for k in range(SETUP_GROUPS):
        run.setup_group(lambda fn: traced(SETUP_ROOT, -1 - k, fn), 1)
    workload.setup()
    for _ in range(WARMUP_OPS):
        run.step(timer)
    plain: list[float] = []
    with_spans: list[float] = []
    deadline = time.perf_counter() + seconds
    while run.more(deadline, min(len(plain), len(with_spans)), MIN_TRACED_OPS):
        if run.op % 2:
            op = run.op
            seconds_ = run.step(lambda fn: timer(lambda: traced(OP_ROOT, op, fn)))
            if seconds_ is not None:
                with_spans.append(seconds_)
        else:
            seconds_ = run.step(timer)
            if seconds_ is not None:
                plain.append(seconds_)
    run.finish()

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(out_dir / f"spans-{workload.name}-seed{seed}.json.gz")

    ops = summarize(recorder, OP_ROOT)
    unexpected = set(ops.self_s) - set(SELF_METRICS)
    if unexpected:
        raise RuntimeError(f"spans with no per-layer metric inside operations: {sorted(unexpected)}")
    n = ops.n
    metrics = {metric: (ops.self_s.get(span, 0.0) / n, "s") for span, metric in SELF_METRICS.items()}
    attributed = sum(value for value, _ in metrics.values())
    op_s = ops.inclusive_s[OP_ROOT] / n
    if abs(attributed - op_s) > 1e-9 * max(1.0, op_s):
        raise RuntimeError(f"self times sum to {attributed}, operations took {op_s}")
    counters = ops.counters

    def ratio(numerator, denominator):
        return counters.get(numerator, 0.0) / counters[denominator] if counters.get(denominator) else 0.0

    metrics.update({
        "trace.op_s": (op_s, "s"),
        "trace.ops": (n, "count"),
        "trace.overhead": (statistics.median(with_spans) / statistics.median(plain), "ratio"),
        "apm.instructions": (workload.engine.apm.instruction_count(), "count"),
        "apm.iterations": (counters.get("iterations", 0.0) / n, "count"),
        "apm.variant_calls": (ops.calls.get("apm.dispatch", 0) / n, "count"),
        "runtime.rows_resorted": (counters.get("rows_resorted", 0.0) / n, "count"),
        "runtime.new_ratio": (ratio("rows_new_or_improved", "delta_rows_offered"), "ratio"),
        "gpu.join_out_rows": (counters.get("join_out_rows", 0.0) / n, "count"),
        "gpu.kernel_launches": (counters.get("kernel_launches", 0.0) / n, "count"),
        "gpu.modeled_busy_s": (counters.get("modeled_busy_s", 0.0) / n, "s"),
        "provenance.tag_bytes": (counters.get("tag_bytes", 0.0) / n, "bytes"),
        "stream.apply_s": (ops.inclusive_s.get("stream.apply", 0.0) / n, "s"),
        "stream.maintained_ratio": (ratio("maintained_ticks", "ticks"), "ratio"),
        "stream.changes_per_tick": (ratio("view_changes", "ticks"), "count"),
    })
    setups = summarize(recorder, SETUP_ROOT)
    for span, metric in SETUP_METRICS.items():
        metrics[metric] = (setups.self_s.get(span, 0.0) / setups.n, "s")
    metrics["setup.traced_s"] = (setups.inclusive_s[SETUP_ROOT] / setups.n, "s")
    return metrics, plain


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    # One thread: the benchmark measures the single-process host path.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    numpy, repro = import_program()
    from repro.perf.stats import summarize as trial_stats
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    # The imported modules and the generated inputs live for the whole
    # run.  Frozen, they are not rescanned by every full collection,
    # whose cost would otherwise land at random inside timed intervals.
    gc.collect()
    gc.freeze()
    run = Run(workload, started)
    if args.trace:
        metrics, samples = measure_traced(run, args.seconds, args.seed)
    else:
        metrics, samples = measure_untraced(run, args.seconds)

    stats = trial_stats(samples)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{workload.describe()}  work unit: {workload.work_unit}")
    print(f"host: nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"numpy {numpy.__version__}  repro {repro.__version__}")
    print(f"untraced operations: {len(samples)}  mean {stats.label()}  "
          f"failed_ratio {run.failed / max(run.attempted, 1):.4f} ({run.failed}/{run.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
