"""
whitneyext benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program is imported from
./src.  With --trace 0 the run measures the end-to-end metrics with
tracing off: set-up time (median of several set-ups spread over the
run), op latency percentiles, throughput and peak memory.  With --trace 1
the ops run alternately traced and untraced; the traced ops give
per-layer self times and counts, the untraced ones the tracing overhead.  Every op's output is
checked against an exact reference right after the op, outside its clock.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A run record with every op's
latency goes to perfbench/out/.  See perfbench/README.md.
"""

import os

# one BLAS thread: the workloads are single-threaded by definition
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import hostspeed
import tracer
from workloads import WORKLOADS

SETUP_REPS = 7
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> (unit, in the JSON result).  Self times of
# layers that some workload never enters read exactly zero there; they are
# printed and recorded but left out of the JSON result.
_ALWAYS_ENTERED = ("multiindex", "decomp", "pou", "extend")
PER_LAYER = {
    **{f"{layer}.self_ms": ("ms", layer in _ALWAYS_ENTERED) for layer in tracer.LAYERS},
    "decomp.locate_calls": ("count", True),
    "decomp.in_family_calls": ("count", True),
    "decomp.box_distance_calls": ("count", True),
    "decomp.candidates": ("count", True),
    "decomp.family_yield": ("ratio", True),
    "decomp.anchor_hit_ratio": ("ratio", True),
    "decomp.home_level_mean": ("level", True),
    "pou.psi_calls": ("count", True),
    "pou.supporting_cubes": ("count", True),
    "pou.support_yield": ("ratio", True),
    "taylorarith.mul_calls": ("count", True),
    "taylorarith.compose_calls": ("count", True),
    "taylorarith.context_ms": ("ms", True),
    "jets.taylor_poly_calls": ("count", True),
    "extend.construct_ms": ("ms", True),
    "fdb.eval_poly_calls": ("count", True),
    "fdb.build_table_ms": ("ms", False),
    "exprlang.eval_taylor_calls": ("count", True),
    "atlas.pullback_calls": ("count", True),
    "cli.bytes_out": ("bytes", True),
    "check.margin_max": ("ratio", True),
    "trace.overhead_frac": ("ratio", True),
    "trace.coverage": ("ratio", True),
}


def import_program(root):
    """Import whitneyext afresh from root/src and return its modules."""
    src = root / "src"
    if not (src / "whitneyext" / "__init__.py").is_file():
        raise FileNotFoundError(f"no whitneyext sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "whitneyext" or m.startswith("whitneyext.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("whitneyext")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"whitneyext resolved to {package.__file__}, outside {src}")
    importlib.import_module("whitneyext.cli")
    return types.SimpleNamespace(**{layer: sys.modules[f"whitneyext.{layer}"] for layer in tracer.LAYERS})


def run_record(args):
    """Where and on what a run was made."""
    head = None
    try:
        ref = Path(".git/HEAD").read_text().strip()
        head = Path(".git", ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass  # not a git checkout
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": head,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Ops:
    """What the closed loop observed, op by op."""

    def __init__(self):
        self.latencies = []
        self.references = []
        self.margins = []
        self.failures = []
        self.out_bytes = []
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    def fail_frac(self):
        return len(self.failures) / max(self.attempted, 1)


def closed_loop(workload, state, rng, seconds, ops, on_op=None):
    """
    Draw an input, time the op, then collect and check its output outside
    the clock; repeat until `seconds` have passed, adding to `ops`.  The
    host-speed reference is timed before each op.  An op fails on an
    exception or an output outside the oracle bound.  `on_op(i, before)`
    runs just outside the clock on both sides of op i.
    """
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = ops.attempted
        inp = workload.make_input(state, rng)
        ops.references.append(hostspeed.time_reference())
        if on_op:
            on_op(i, True)
        t0 = time.perf_counter()
        try:
            raw, error = workload.op(state, inp), None
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        ops.latencies.append(time.perf_counter() - t0)
        if on_op:
            on_op(i, False)
        try:
            if error:
                raise error
            out = workload.collect(state, inp, raw)
            margin = workload.check(state, inp, out)
        except Exception as exc:
            ops.failures.append((i, repr(exc)))
            continue
        if isinstance(out, bytes):
            ops.out_bytes.append(len(out))
        ops.margins.append(margin)
        if not margin <= 1.0:
            ops.failures.append((i, f"error {margin:.3g} x bound"))
    ops.wall += time.perf_counter() - start
    return ops


def ratio(num, den):
    return num / den if den else 0.0


def run_plain(workload, args, root, out, record):
    # Each set-up is followed by an equal slice of the timed phase, so that
    # the set-ups sample the machine's speed across the whole run, as the
    # ops do.  Timings are reported at reference speed (see hostspeed.py).
    setup_times, setup_refs, ops = [], [], Ops()
    rng = np.random.default_rng([args.seed, 1])
    for _ in range(SETUP_REPS):
        setup_refs.append([hostspeed.time_reference() for _ in range(2 * hostspeed.NEIGHBOURS + 1)])
        t0 = time.perf_counter()
        wx = import_program(root)
        state = workload.setup(wx, args.seed, out)
        setup_times.append(time.perf_counter() - t0)
        closed_loop(workload, state, rng, args.seconds / SETUP_REPS, ops)
    setup_ref = [hostspeed.at_reference_speed(t, r) for t, r in zip(setup_times, setup_refs)]
    lat_ms = [v * 1e3 for v in hostspeed.rescale(ops.latencies, ops.references)]
    p90 = float(np.percentile(lat_ms, 90))
    beyond = sum(v > p90 for v in lat_ms)
    metrics = {
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
        "ops_per_s": (ops.attempted - len(ops.failures)) / (sum(lat_ms) / 1e3),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record.update(
        ops=ops.attempted,
        loop_wall_s=ops.wall,
        p90_samples_beyond=beyond,
        setup_reps_s=setup_times,
        setup_reference_ms=[[v * 1e3 for v in r] for r in setup_refs],
        setup_reps_at_reference_s=setup_ref,
        latencies_ms=[v * 1e3 for v in ops.latencies],
        reference_ms=[v * 1e3 for v in ops.references],
        latencies_at_reference_ms=lat_ms,
        raw_op_p50_ms=statistics.median(ops.latencies) * 1e3,
        raw_setup_s=statistics.median(setup_times),
        margin_max=max(ops.margins, default=0.0),
        fail_frac=ops.fail_frac(),
        failures=ops.failures[:20],
    )
    print(f"workload {workload.name}  seed {args.seed}  ops {ops.attempted}  loop {ops.wall:.2f} s")
    print(
        f"  measured: op p50 {record['raw_op_p50_ms']:.4f} ms, set-up {record['raw_setup_s']:.4f} s,"
        f" reference kernel {statistics.median(record['reference_ms']):.4f} ms; at reference speed:"
    )
    for name, unit in END_TO_END.items():
        extra = f"  (n={len(lat_ms)}, {beyond} beyond)" if name == "op_p90_ms" else ""
        print(f"  {name:<12} {metrics[name]:12.4f} {unit}{extra}")
    print(f"  {'fail_frac':<12} {ops.fail_frac():12.4f} ratio  ({len(ops.failures)}/{ops.attempted})")
    print(f"  {'margin_max':<12} {record['margin_max']:12.4f} ratio  (largest error / bound)")
    return metrics, END_TO_END, ops


def layer_metrics(stats, setup_stats, ops, traced_ms, plain_ms):
    """The per-layer metrics from traced ops (`stats`) and set-up."""
    n = max(stats.ops, 1)
    calls, notes = stats.calls, stats.notes

    def per_op(*names):
        return sum(calls[name] for name in names) / n

    locate = "decomp.Decomposition.locate"
    in_family = "decomp.Decomposition.in_family"
    neighbors = "decomp.Decomposition.neighbors"
    construct = "extend.Extension.__init__"
    supporting = notes["pou.partition_taylor"] + notes["pou.phi_weights_real"]
    out = {f"{layer}.self_ms": stats.self_s[layer] * 1e3 / n for layer in tracer.LAYERS}
    out.update(
        {
            "decomp.locate_calls": per_op(locate),
            "decomp.in_family_calls": per_op(in_family),
            "decomp.box_distance_calls": per_op("decomp.FinitePoints.box_distance", "decomp.BoxUnion.box_distance"),
            "decomp.candidates": notes[neighbors] / n,
            "decomp.family_yield": ratio(notes[in_family], calls[in_family]),
            "decomp.anchor_hit_ratio": 1.0
            - ratio(
                calls["decomp.FinitePoints.nearest"] + calls["decomp.BoxUnion.nearest"],
                calls["decomp.Decomposition.anchor"],
            ),
            "decomp.home_level_mean": ratio(notes[locate], stats.note_calls[locate]),
            "pou.psi_calls": per_op("pou.psi", "pou.psi_real", "pou.psi_cube", "pou.psi_cube_real"),
            "pou.supporting_cubes": supporting / n,
            "pou.support_yield": ratio(supporting, notes[neighbors]),
            "taylorarith.mul_calls": per_op("taylorarith.mul"),
            "taylorarith.compose_calls": per_op("taylorarith.compose"),
            "taylorarith.context_ms": setup_stats.time_s["taylorarith.context"] * 1e3,
            "jets.taylor_poly_calls": per_op("jets.Jet.taylor_poly"),
            "extend.construct_ms": ratio(
                (stats.time_s[construct] + setup_stats.time_s[construct]) * 1e3,
                calls[construct] + setup_stats.calls[construct],
            ),
            "fdb.eval_poly_calls": per_op("fdb.FdBTable.eval_poly"),
            "fdb.build_table_ms": setup_stats.time_s["fdb.build_table"] * 1e3,
            "exprlang.eval_taylor_calls": stats.top_level_expansions / n,
            "atlas.pullback_calls": per_op("fdb.jet_pullback"),
            "cli.bytes_out": ratio(sum(ops.out_bytes), len(ops.out_bytes)),
            "check.margin_max": max(ops.margins, default=0.0),
            "trace.overhead_frac": statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0,
            "trace.coverage": ratio(sum(stats.self_s.values()) * 1e3, sum(traced_ms)),
        }
    )
    return out


def run_traced(workload, args, root, out, record):
    t = tracer.Tracer()
    wx = import_program(root)
    modules = vars(wx)
    t.install(modules)
    try:
        state = workload.setup(wx, args.seed, out)
    finally:
        t.uninstall()
    setup_stats = tracer.LayerStats()
    setup_stats.add(t.take(), count_op=False)
    stats = tracer.LayerStats()

    def on_op(i, before):
        # even ops run traced and odd ops untraced, so that both see the
        # same stretch of machine time
        if i % 2:
            return
        if before:
            t.op = i
            t.install(modules)
        else:
            t.uninstall()
            stats.add(t.take())

    ops = closed_loop(workload, state, np.random.default_rng([args.seed, 1]), args.seconds, Ops(), on_op)
    traced_ms = [v * 1e3 for v in ops.latencies[0::2]]
    plain_ms = [v * 1e3 for v in ops.latencies[1::2]] or traced_ms
    metrics = layer_metrics(stats, setup_stats, ops, traced_ms, plain_ms)
    record.update(
        ops=ops.attempted,
        traced_ops=len(traced_ms),
        latencies_ms=[v * 1e3 for v in ops.latencies],
        traced_op_ms=statistics.median(traced_ms),
        plain_op_ms=statistics.median(plain_ms),
        fail_frac=ops.fail_frac(),
        failures=ops.failures[:20],
        calls_per_op={k: v / max(stats.ops, 1) for k, v in sorted(stats.calls.items())},
        setup_calls=dict(sorted(setup_stats.calls.items())),
    )
    with open(out / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "note"], "ops": t.kept}, fh)

    print(f"workload {workload.name}  seed {args.seed}  ops {ops.attempted} ({len(traced_ms)} traced)")
    print(f"  median op: traced {record['traced_op_ms']:.3f} ms, untraced {record['plain_op_ms']:.3f} ms")
    total = sum(metrics[f"{layer}.self_ms"] for layer in tracer.LAYERS)
    for layer in sorted(tracer.LAYERS, key=lambda l: -metrics[f"{l}.self_ms"]):
        ms = metrics[f"{layer}.self_ms"]
        print(f"  {layer + '.self_ms':<28} {ms:14.4f} ms  {100 * ratio(ms, total):5.1f} %")
    for name, (unit, _) in PER_LAYER.items():
        if not name.endswith(".self_ms"):
            print(f"  {name:<28} {metrics[name]:14.4f} {unit}")
    print(f"  {'fail_frac':<28} {ops.fail_frac():14.4f} ratio  ({len(ops.failures)}/{ops.attempted})")
    units = {name: unit for name, (unit, reported) in PER_LAYER.items() if reported}
    return metrics, units, ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "whitneyext" / "__init__.py").is_file():
        print(f"error: run from a whitneyext checkout; {root / 'src'} has no package", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    record = run_record(args)
    run = run_traced if args.trace else run_plain
    metrics, units, ops = run(workload, args, root, OUT, record)
    record["metrics"] = metrics
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
