"""Benchmark of eqlbounds: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-multi --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untouched and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations and
reports the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it are the human-readable report.  Exit code
is 0 only when every operation ran and passed its checks; 2 when the
checkout has no ``src/eqlbounds`` to measure.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"
DEFAULT_SEED = 0
HOLDOUT_SEED = 1
SETUP_REPEATS = 3
MIN_TIMED_OPS = 3
STARTUP_PROBES = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("paper-multi", "large-n", "cli-pipeline")


def cap_thread_vars(limit: int) -> dict[str, int]:
    """Set every BLAS/OpenMP thread variable to at most ``limit`` before NumPy loads."""
    capped = {}
    for var in THREAD_VARS:
        try:
            value = min(int(os.environ.get(var, limit)), limit)
        except ValueError:
            value = limit
        os.environ[var] = str(max(value, 1))
        capped[var] = max(value, 1)
    return capped


def cache_sizes() -> dict[str, int | None]:
    """L2 and last-level cache sizes of CPU 0 in bytes, from sysfs."""
    sizes: dict[int, int] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        sizes[level] = int(text.rstrip("KMG")) * scale
    return {"l2_bytes": sizes.get(2), "llc_bytes": sizes[max(sizes)] if sizes else None}


def blas_config(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError, AttributeError):
        return {}
    keys = ("name", "version", "openblas configuration")
    return {lib: {k: deps.get(lib, {}).get(k) for k in keys} for lib in ("blas", "lapack")}


def machine_block(np, threads: dict[str, int], nproc: int) -> dict:
    return {
        "nproc": nproc,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(np),
        "thread_env": threads,
        **cache_sizes(),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def metric(value: float, unit: str, samples: int) -> dict:
    """One metric; ``samples`` is printed in the report but kept out of the JSON line."""
    return {"value": value, "unit": unit, "samples": samples}


def json_metrics(metrics: dict) -> dict:
    return {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def part_samples(results, which: int) -> dict[str, list[float]]:
    """Per part, its wall (``which=0``) or reference (``which=1``) seconds over all operations."""
    samples: dict[str, list[float]] = {}
    for r in results:
        for part, seconds in r.parts.items():
            samples.setdefault(part, []).append(seconds[which])
    return samples


def op_ref_s(results, parts=None) -> float:
    """Sum over the operation's parts of each part's median reference seconds."""
    return sum(median(v) for part, v in part_samples(results, 1).items() if parts is None or part in parts)


def end_to_end(workload, results, setups: dict) -> tuple[dict, dict]:
    """Gated metrics (defined on every workload) and report-only metrics (where defined)."""
    ops = len(results)
    seed_epochs = max(r.seed_epochs for r in results)
    gated = {
        "setup_s": metric(median([ref for _, ref in setups.values()]), "s", len(setups)),
        "op_ref_s": metric(op_ref_s(results), "s", ops),
        "epochs_per_ref_s": metric(seed_epochs / op_ref_s(results, workload.train_parts), "1/s", ops),
        "peak_rss_mb": metric(peak_rss_mb(workload.name), "MB", 1),
    }
    attempted = sum(r.attempted for r in results)
    extra = {
        "failed_frac": metric(sum(len(r.failed) for r in results) / max(attempted, 1), "fraction", attempted),
        "setup_wall_s": metric(median([wall for wall, _ in setups.values()]), "s", len(setups)),
        "op_wall_s": metric(median([sum(w for w, _ in r.parts.values()) for r in results]), "s", ops),
    }
    walls, refs = part_samples(results, 0), part_samples(results, 1)
    for part in sorted(walls):
        name = f"{part}_cmd" if workload.name == "cli-pipeline" else part
        extra[f"{name}_s"] = metric(median(walls[part]), "s", len(walls[part]))
        extra[f"{name}_ref_s"] = metric(median(refs[part]), "s", len(refs[part]))
    if workload.name == "paper-multi" and results[0].quality:
        quality = list(results[0].quality.values())
        extra["top_violation_pct"] = metric(statistics.fmean(q[0] for q in quality), "%", len(quality))
        extra["top_gap_pct"] = metric(statistics.fmean(q[1] for q in quality), "%", len(quality))
    return gated, extra


def per_layer(workload, summary, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced operations, plus a self-time breakdown.

    Per-epoch figures divide by the seed-epochs of the traced operations,
    per-call figures are medians over calls, and a layer the workload does
    not exercise reads 0.
    """
    from workloads import fresh_import_s

    ops = len(traced)
    epochs = sum(r.seed_epochs for r in traced) or 1
    fits = sum(r.fits for r in traced)

    def per_epoch_ms(seconds: float) -> dict:
        return metric(1000.0 * seconds / epochs, "ms", ops)

    def ratio(amount: float, base: float, unit: str) -> dict:
        return metric(amount / base if base else 0.0, unit, ops)

    m = {
        "trainer.self_ms_per_epoch": per_epoch_ms(summary.layer_self_s("trainer")),
        "trainer.gradients.calls_per_epoch": ratio(summary.calls_of("trainer.gradients"), epochs, "count"),
        "trainer.in_band_frac": ratio(sum(r.fits_in_band for r in traced), fits, "fraction"),
        "loss.self_ms_per_epoch": per_epoch_ms(summary.layer_self_s("loss")),
        "loss.p_gamma_subset.ms_per_epoch": per_epoch_ms(summary.total_of("loss.p_gamma_subset")),
        "network.forward_batch.ms_per_epoch": per_epoch_ms(summary.total_of("network.forward_batch")),
        "network.apply_mask.ms_per_epoch": per_epoch_ms(summary.total_of("network.apply_mask")),
        "network.nets_built_per_epoch": ratio(summary.counts["network.nets_built"], epochs, "count"),
        "network.self_ms_per_epoch": per_epoch_ms(summary.layer_self_s("network")),
        "network.initialize.ms": metric(1000.0 * summary.median_s("network.initialize"), "ms", summary.calls_of("network.initialize")),
        "extract.self_ms_per_fit": ratio(1000.0 * summary.layer_self_s("extract"), fits, "ms"),
        "extract.violation_rate.ms": metric(1000.0 * summary.median_s("extract.violation_rate"), "ms", summary.calls_of("extract.violation_rate")),
        "datagen.self_s": ratio(summary.layer_self_s("datagen"), summary.calls_of("cli.main.gen"), "s"),
        "datagen.points_per_s": ratio(summary.items_of("datagen.generate"), summary.total_of("datagen.generate"), "1/s"),
        "datamodel.load_dataset.s": metric(summary.median_s("datamodel.load_dataset"), "s", summary.calls_of("datamodel.load_dataset")),
        "datamodel.save_dataset.s": metric(summary.median_s("datamodel.save_dataset"), "s", summary.calls_of("datamodel.save_dataset")),
        "datamodel.read_mb_per_s": ratio(summary.items_of("datamodel.load_dataset") / 1e6, summary.total_of("datamodel.load_dataset"), "MB/s"),
        "datamodel.write_mb_per_s": ratio(summary.items_of("datamodel.save_dataset") / 1e6, summary.total_of("datamodel.save_dataset"), "MB/s"),
        "datamodel.datasets_built": ratio(summary.counts["datamodel.datasets_built"], ops, "count"),
        "cli.startup_s": metric(median([fresh_import_s("eqlbounds.cli") for _ in range(STARTUP_PROBES)]), "s", STARTUP_PROBES)
        if workload.name == "cli-pipeline"
        else metric(0.0, "s", 0),
    }
    for command in ("gen", "train", "eval"):
        name = f"cli.main.{command}"
        m[f"cli.{command}.self_s"] = ratio(summary.self_of(name), summary.calls_of(name), "s")
    untraced_s, traced_s = op_ref_s(untraced), op_ref_s(traced)
    m["trace_overhead_pct"] = ratio(100.0 * (traced_s - untraced_s), untraced_s, "%")

    from tracer import LAYERS

    total = summary.traced_s() or 1.0
    called = [name for name in summary.names if summary.calls_of(name)]
    breakdown = {
        "layer_self_share_pct": {layer: round(100.0 * summary.layer_self_s(layer) / total, 3) for layer in LAYERS},
        "layer_self_ms_per_op": {layer: round(1000.0 * summary.layer_self_s(layer) / ops, 3) for layer in LAYERS},
        "function_share_pct": {
            name: round(100.0 * summary.total_of(name) / total, 3)
            for name in sorted(called, key=summary.total_of, reverse=True)
        },
        "traced_ops": ops,
        "untraced_ops": len(untraced),
    }
    return m, breakdown


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED}; holdout {HOLDOUT_SEED})"
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to keep running timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eqlbounds" / "__init__.py").is_file():
        print(f"error: no eqlbounds package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the benchmark and its children, so that the speed probe
    # measures the CPU the work runs on; thread pools get that one CPU.
    pinned = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    threads = cap_thread_vars(1)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    try:
        # One set-up is a fresh interpreter importing the package, then the
        # data build and the warm-up operation.
        setups: dict[int, tuple[float, float]] = {}
        for i in range(SETUP_REPEATS):
            with workload.probe.timed(setups, i):
                workloads.fresh_import_s("eqlbounds")
                workload.setup()
        if args.trace:
            from tracer import Tracer

            tracer, traced, untraced = Tracer(), [], []
            deadline = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < deadline:
                untraced.append(workload.run(in_process=True))
                tracer.install()
                try:
                    traced.append(workload.run(in_process=True))
                finally:
                    tracer.uninstall()
            results = untraced + traced
            metrics, breakdown = per_layer(workload, tracer.summary(), traced, untraced)
            tracer.save(WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            results = []
            deadline = time.perf_counter() + args.seconds
            while len(results) < MIN_TIMED_OPS or time.perf_counter() < deadline:
                results.append(workload.run())
            metrics, breakdown = end_to_end(workload, results, setups)
        working_set = workload.working_set_bytes()
    finally:
        workload.close()

    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failed) for r in results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(results),
        "machine": {**machine_block(np, threads, nproc), "pinned_cpu": pinned, "working_set_bytes": working_set},
        "metrics": metrics,
        "details": breakdown,
        "failures": [m for r in results for m in r.messages],
        "part_samples": {part: [r.parts[part] for r in results if part in r.parts] for part in part_samples(results, 0)},
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  operations {len(results)}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, entry in {**metrics, **(breakdown if not args.trace else {})}.items():
        print(f"  {name:38s} {entry['value']:>14.6g} {entry['unit']:8s} n={entry['samples']}")
    if args.trace:
        print("details " + json.dumps(breakdown))
    for message in record["failures"]:
        print(f"FAILED {message}")
    (WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": json_metrics(metrics)}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
