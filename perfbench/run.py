"""Benchmark of the conesurf pipeline: what a user waits for in
`conesurf solve` and `conesurf verify`, end to end and per layer.

    python3 perfbench/run.py --workload e2e_radial --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client in one process; each operation
starts when the previous one has ended.  An operation is the workload's CLI
commands on the seeded config, followed by the checks on every output.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with `--trace 1` operations alternate
between untraced and traced, and the metrics are the per-layer ones taken
from the traced operations.  The run record (configs, every operation,
spans) is written to .perfbench_runs/ in the checkout.  See README.md.
"""

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl  # first: pins BLAS threads before numpy loads
import tracer as tr

HERE = Path(__file__).resolve().parent
WORK_DIR = wl.ROOT / ".perfbench_work"
RECORD_DIR = wl.ROOT / ".perfbench_runs"
SETUP_SAMPLES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric, unit, and its source in one traced operation: the self
# time or the call count of a tracer stem, or a tracer counter; None marks
# the metrics computed over the whole run
PER_LAYER = (
    ("fields.eval_calls", "count", ("calls", "fields.eval")),
    ("fields.eval_s", "s", ("self", "fields.eval")),
    ("fields.grad_calls", "count", ("calls", "fields.grad")),
    ("fields.grad_s", "s", ("self", "fields.grad")),
    ("fields.potential_calls", "count", ("calls", "fields.potential")),
    ("fields.potential_s", "s", ("self", "fields.potential")),
    ("solver.solve_s", "s", ("self", "solver.solve")),
    ("solver.iterations", "count", ("counter", "solver.iterations")),
    ("solver.energy_s", "s", ("self", "solver.energy")),
    ("solver.residual_s", "s", ("self", "solver.residual")),
    ("mesh.build_calls", "count", ("calls", "mesh.build")),
    ("mesh.build_s", "s", ("self", "mesh.build")),
    ("mesh.second_derivatives_s", "s", ("self", "mesh.second_derivatives")),
    ("verifier.gauss_map_s", "s", ("self", "verifier.gauss_map")),
    ("verifier.density_s", "s", ("self", "verifier.density")),
    ("verifier.eigen_s", "s", ("self", "verifier.eigen")),
    ("verifier.enclosure_s", "s", ("self", "verifier.enclosure")),
    ("verifier.radial_normal_s", "s", ("self", "verifier.radial_normal")),
    ("verifier.cone_condition_s", "s", ("self", "verifier.cone_condition")),
    ("verifier.degree_s", "s", ("self", "verifier.degree")),
    ("verifier.jacobian_s", "s", ("self", "verifier.jacobian")),
    ("verifier.radial_graph_s", "s", ("self", "verifier.radial_graph")),
    ("verifier.radial_graph_calls", "count", ("calls", "verifier.radial_graph")),
    ("boundary.axis_at_calls", "count", ("calls", "boundary.axis_at")),
    ("boundary.domain_s", "s", ("self", "boundary.domain")),
    ("io.write_s", "s", ("self", "io.write")),
    ("io.read_s", "s", ("self", "io.read")),
    ("io.bytes_written", "bytes", ("counter", "io.bytes_written")),
    ("cli.self_s", "s", ("self", "cli")),
    ("trace_overhead_s", "s", None),
    ("fail_frac", "ratio", None),
    ("warnings_leaked", "count", None),
)


def measure_setup(workload, seed, n=SETUP_SAMPLES):
    """Seconds from starting a fresh interpreter until it has imported
    conesurf and generated the inputs, for n cold starts."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code} after {line!r}")
        samples.append(t1 - t0)
    return samples


def layer_values(before, after):
    """Per-layer values of one traced operation from two tracer snapshots."""
    values = {}
    for name, _, source in PER_LAYER:
        if source is None:
            continue
        what, key = source
        if what == "counter":
            values[name] = after[1].get(key, 0) - before[1].get(key, 0)
        else:
            column = 0 if what == "calls" else 1
            zero = [0, 0.0]
            values[name] = (after[0].get(key, zero)[column]
                            - before[0].get(key, zero)[column])
    return values


class Run:
    """The operations of one benchmark run and what they measured."""

    def __init__(self, cli, workload, config, reference, scratch):
        self.cli = cli
        self.workload = workload
        self.config = config
        self.reference = reference
        self.scratch = scratch
        self.tracer = tr.Tracer()
        self.ops = []

    def operation(self, kind, traced=False, config=None, commands=None):
        op_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        gc.collect()  # the previous operation's garbage is not this one's time
        tracer = self.tracer if traced else None
        before = None
        if traced:
            self.tracer.op_id = len(self.ops)
            self.tracer.install()
            before = self.tracer.snapshot()
        try:
            outcome = wl.run_operation(
                self.cli, self.workload, config or self.config, op_dir,
                self.reference, tracer, commands,
            )
        finally:
            if traced:
                after = self.tracer.snapshot()
                self.tracer.uninstall()
        shutil.rmtree(op_dir)
        record = {
            "kind": kind,
            "traced": traced,
            "solve_s": outcome.seconds("solve"),
            "verify_s": outcome.seconds("verify"),
            "codes": [s.code for s in outcome.steps],
            "warnings_leaked": outcome.warnings_leaked,
            "problems": outcome.problems,
        }
        record["pipeline_s"] = record["solve_s"] + record["verify_s"]
        if traced:
            record["layers"] = layer_values(before, after)
        for problem in outcome.problems:
            print(f"{kind} operation {len(self.ops)}: {problem}", file=sys.stderr)
        self.ops.append(record)
        return record

    def timed(self, traced=None):
        return [op for op in self.ops if op["kind"] == "timed"
                and (traced is None or op["traced"] == traced)]


def median_of(ops, key):
    return statistics.median(op[key] for op in ops)


def end_to_end_metrics(run, setup):
    timed = run.timed(traced=False)
    return {
        "setup_s": statistics.median(setup),
        "solve_s": median_of(timed, "solve_s"),
        "verify_s": median_of(timed, "verify_s"),
        "pipeline_s": median_of(timed, "pipeline_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run):
    traced = run.timed(traced=True)
    # median_low: a measured value, so that exact counts stay integers
    values = {
        name: statistics.median_low(op["layers"][name] for op in traced)
        for name in traced[0]["layers"]
    }
    values["trace_overhead_s"] = (median_of(traced, "pipeline_s")
                                  - median_of(run.timed(traced=False), "pipeline_s"))
    values["fail_frac"] = sum(bool(op["problems"]) for op in run.ops) / len(run.ops)
    values["warnings_leaked"] = sum(op["warnings_leaked"] for op in run.ops)
    return values


def measure(run, seconds, trace):
    """Warm-up, the known-defect probe, then operations until `seconds`
    have passed (and, when tracing, at least one of each kind)."""
    run.operation("warmup")
    if run.workload == "flat_verify":
        # untimed: the zero-field solve at (96, 192) exits 3 because the
        # fixed residual_tol is below the round-off floor there
        run.operation("probe", config=wl.probe_config(run.config), commands=("solve",))
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or (trace and n < 2):
        run.operation("timed", traced=bool(trace and n % 2 == 1))
        n += 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = wl.import_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup = measure_setup(args.workload, args.seed)
    config = wl.make_config(args.workload, args.seed)
    reference = wl.load_reference(args.workload, args.seed)

    WORK_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        run = Run(cli, args.workload, config, reference, scratch)
        measure(run, args.seconds, args.trace)
    finally:
        shutil.rmtree(scratch)

    if args.trace:
        metrics, units = per_layer_metrics(run), {n: u for n, u, _ in PER_LAYER}
    else:
        metrics, units = end_to_end_metrics(run, setup), dict(END_TO_END)
    samples = {"setup_s": len(setup), "peak_rss_mb": 1,
               "fail_frac": len(run.ops), "warnings_leaked": len(run.ops)}
    n_timed = len(run.timed(traced=bool(args.trace)))
    for name in metrics:
        n = samples.get(name, n_timed)
        print(f"{name:28s} {metrics[name]:>14.6g} {units[name]:6s} (n={n})")

    RECORD_DIR.mkdir(exist_ok=True)
    record_path = RECORD_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "args": vars(args),
        "python": platform.python_version(),
        "config": config,
        "probe_config": wl.probe_config(config) if args.workload == "flat_verify" else None,
        "setup_s_samples": setup,
        "operations": run.ops,
        "metrics": metrics,
        "spans": run.tracer.spans,
    }))

    counted = [op for op in run.ops if op["kind"] != "probe"]
    failed = sum(bool(op["problems"]) for op in counted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(counted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
