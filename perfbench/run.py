"""tbcalib benchmark: the calib, train and infer workloads.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload calib --seed 1 --seconds 30 --trace 0

sets up the workload's seeded inputs once in each of three fresh
interpreters (this one and two helpers), so that every set-up pays the
one-time warm-up, and reports their median as `setup_s`.  It then runs
operations back to back from one caller until `--seconds` have passed,
checks every output, prints each metric by name with its unit and ends
with one JSON line: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` the same run records spans around every public call and reports
the per-layer ones.  The exit code is 1 when a check failed.

All workloads, untraced then traced, with the tracing overhead and the
per-layer-type table:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Each run writes its full report (environment, samples, span summary, raw
spans) to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("calib", "train", "infer")
SETUP_REPEATS = 3  # cold set-ups per run: this process and two helpers
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _pin_process_settings() -> int:
    """Settings of this process that must be fixed before numpy is imported.

    BLAS/OpenMP pools stay at or below the CPUs this process may use.
    numpy's transparent-huge-page advice for large arrays is switched off:
    whether the kernel can hand out huge pages depends on how fragmented the
    machine's memory is, which other processes decide.  On a shared 2-CPU
    Xeon host the same calibration ran 0.9-1.4 s from one process to the
    next with the advice on, and 1.30-1.38 s with it off.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return nproc


def _import_library():
    """Import tbcalib from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tbcalib
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import tbcalib from {src}: {exc}")
    if src.resolve() not in Path(tbcalib.__file__).resolve().parents:
        raise SystemExit(f"run.py: tbcalib resolved to {tbcalib.__file__}, not {src}")
    return tbcalib


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "cpu": cpu,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "transparent_hugepage": _read_first_line("/sys/kernel/mm/transparent_hugepage/enabled"),
    }


def _read_first_line(path):
    try:
        with open(path) as f:
            return f.readline().strip()
    except OSError:
        return ""


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or the capped env setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            lib = next((line.split()[-1] for line in f if "openblas" in line), None)
    except OSError:
        lib = None
    if lib:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(samples, pct))
    return None, None


# Per-layer metrics are named "<span>.<field>".  "self_s" is self seconds per operation
# (a calib volume, a training iteration, an infer volume); "gflop"/"gbyte"
# are computed work per operation; "gflops" is computed FLOPs over self time.
OP_SPANS = (
    "nn.ops.conv3d_forward", "nn.ops.conv3d_backward",
    "nn.ops.conv_transpose3d_forward", "nn.ops.conv_transpose3d_backward",
    "nn.ops.batchnorm_forward", "nn.ops.batchnorm_backward",
    "nn.network.MFFNet.forward", "nn.network.MFFNet.backward",
    "calibration.calibrate", "calibration.split_components", "calibration.refine_sagittal",
    "calibration.fit_lsc_plane", "calibration.resample", "calibration.rank_result",
    "segment.threshold_segment", "segment.sliding_window_infer",
    "segment.keep_largest_components", "volume.normalize_intensity",
    "train.train_network", "phantom.sample_training_pair", "losses.joint_loss",
    "nn.optim.Adam.step",
)
WORK_SPANS = ("nn.ops.conv3d_forward", "nn.ops.conv3d_backward",
              "nn.ops.conv_transpose3d_forward", "nn.ops.conv_transpose3d_backward")


def per_layer_metrics(tracer, loop_mark, units, timed_s):
    from tracing import LAYER_TYPES, SETUP_SPANS

    loop = tracer.summary(since=loop_mark)
    setup = tracer.summary(until=loop_mark)
    empty = {"calls": 0, "self_s": 0.0}
    m = {}
    for span in OP_SPANS:
        m[f"{span}.self_s"] = (loop.get(span, empty)["self_s"] / units, "s/op")
    for span in WORK_SPANS:
        row = loop.get(span, empty)
        m[f"{span}.gflop"] = (row.get("flop", 0.0) / 1e9 / units, "GFLOP/op")
        m[f"{span}.gbyte"] = (row.get("bytes", 0.0) / 1e9 / units, "GB/op")
        m[f"{span}.gflops"] = (row.get("flop", 0.0) / 1e9 / row["self_s"]
                               if row["self_s"] else 0.0, "GFLOP/s")
    refine = loop.get("calibration.refine_sagittal", empty)
    m["calibration.refine_sagittal.iterations"] = (
        refine.get("iterations", 0.0) / refine["calls"] if refine["calls"] else 0.0, "count/call")
    m["scipy.ndimage.label.calls"] = (loop.get("scipy.ndimage.label", empty)["calls"] / units,
                                      "count/op")
    for span in SETUP_SPANS:
        m[f"{span}.self_s"] = (setup.get(span, empty)["self_s"], "s/setup")
    table = tracer.layer_table(since=loop_mark)
    for cls in LAYER_TYPES:
        for method in ("forward", "backward"):
            row = table.get(f"{cls}.{method}")
            m[f"nn.layers.{cls}.{method}.self_s_per_call"] = (
                row["self_s_per_call"] if row else 0.0, "s/call")
    m["trace.top_span_coverage"] = (tracer.top_level_seconds(loop_mark) / timed_s, "fraction")
    return m, loop, table


def setup_once(name, seed):
    """Set the workload up from its seed; returns (state, seconds)."""
    import numpy as np

    from workloads import WORKLOADS

    rng = np.random.default_rng([WORKLOAD_NAMES.index(name), seed])
    t0 = time.perf_counter()
    state = WORKLOADS[name][0](rng)
    return state, time.perf_counter() - t0


def helper_setup_seconds(name, seed):
    """Set-up time in a fresh interpreter, where the first GEMM, the first
    checkpoint read and first-touch page faults are still to come."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: set-up helper failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, nproc):
    from workloads import WORKLOADS

    step_fn = WORKLOADS[name][1]
    # The helpers run first, so their memory is gone before this process
    # sets up and its loop starts.
    setup_times = [helper_setup_seconds(name, seed) for _ in range(SETUP_REPEATS - 1)]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        state, own_setup_s = setup_once(name, seed)
        setup_times.append(own_setup_s)
        loop_mark = len(tracer.spans) if tracer else 0
        records = []
        t_start = time.perf_counter()
        while not records or time.perf_counter() - t_start < seconds:
            i = len(records)
            t0 = time.perf_counter()
            try:
                rec = step_fn(state, i)
            except Exception as exc:  # an operation that raised counts as failed
                rec = {"seconds": time.perf_counter() - t0, "units": 1,
                       "problems": [f"raised {type(exc).__name__}: {exc}"]}
            records.append(rec)
        loop_s = time.perf_counter() - t_start
    finally:
        if tracer:
            tracer.uninstall()

    samples = [r["seconds"] for r in records]
    units = sum(r["units"] for r in records)
    timed_s = sum(r["seconds"] * r["units"] for r in records)
    failed = sum(bool(r["problems"]) for r in records)
    attempted = len(records)
    pct, tail_s = tail(samples)
    p50 = statistics.median(samples)
    prefix = {"calib": "calib_s", "train": "train_iter_s", "infer": "infer_s"}[name]
    named = {
        f"{prefix}_p50": (p50, "s", f"n={len(samples)}"),
        f"{prefix}_tail": (tail_s, "s", f"p{pct:g}, n={len(samples)}" if pct
                           else f"n={len(samples)} < 20, no percentile has 10 beyond it"),
        "setup_s": (statistics.median(setup_times), "s",
                    "median of " + ", ".join(f"{t:.3f}" for t in setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
        "failed_frac": (failed / attempted, "fraction", f"{failed}/{attempted}"),
    }
    if name in ("calib", "infer"):
        ok = sum(bool(r.get("ok")) for r in records)
        named["calib_ok_frac" if name == "calib" else "netcal_ok_frac"] = (
            ok / attempted, "fraction", f"{ok}/{attempted} ranked >= Good, pose within 1 deg / 1 mm")
    if name == "infer":
        dice = [r["dice"] for r in records if "dice" in r]
        named["infer_dice_p50"] = (statistics.median(dice) if dice else float("nan"),
                                   "dice", f"n={len(dice)}")
    end_to_end = {"op_s_p50": (p50, "s"), "setup_s": named["setup_s"][:2],
                  "peak_rss_mb": named["peak_rss_mb"][:2]}

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(nproc),
        "attempted": attempted, "failed": failed, "units": units,
        "loop_s": loop_s, "timed_s": timed_s,
        "named": {k: {"value": v[0], "unit": v[1], "note": v[2]} for k, v in named.items()},
        "end_to_end": {k: {"value": v[0], "unit": v[1]} for k, v in end_to_end.items()},
        "samples": samples,
        "setup_times": setup_times,
        "problems": [p for r in records for p in r["problems"]],
    }
    if tracer:
        per_layer, spans, table = per_layer_metrics(tracer, loop_mark, units, timed_s)
        report["per_layer"] = {k: {"value": v[0], "unit": v[1]} for k, v in per_layer.items()}
        report["span_summary"] = spans
        report["layer_table"] = table
        report["spans"] = tracer.export()
    return report


def _check_against_spec(report):
    """The metric names must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if report["trace"] else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    produced = {k: v["unit"] for k, v in report[key].items()}
    if declared != produced:
        raise SystemExit(f"run.py: {key} metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(declared) - set(produced))}, "
                         f"extra {sorted(set(produced) - set(declared))}, "
                         f"units {[k for k in declared if produced.get(k, declared[k]) != declared[k]]}")


def print_report(report):
    name = report["workload"]
    print(f"environment: {json.dumps(report['environment'])}")
    for key, m in report["named"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name}: {key} = {value} {m['unit']}" + (f"  ({m['note']})" if m["note"] else ""))
    print(f"{name}: attempted {report['attempted']} operations ({report['units']} units), "
          f"timed {report['timed_s']:.3f} s of a {report['loop_s']:.3f} s loop")
    for p in report["problems"]:
        print(f"{name}: CHECK FAILED: {p}")


def main_workload(args, nproc):
    OUT.mkdir(exist_ok=True)
    report = run_workload(args.workload, args.seed, args.seconds, args.trace, nproc)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    _check_against_spec(report)
    print_report(report)
    key = "per_layer" if args.trace else "end_to_end"
    correct = report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report[key]}))
    return 0 if correct else 1


def main_all(args):
    """Every workload untraced then traced, each in its own interpreter so
    peak RSS and first-call costs belong to one workload."""
    reports, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            if proc.returncode not in (0, 1) or not path.exists():
                return proc.returncode or 2
            reports[(name, trace)] = json.loads(path.read_text())

    print("\ntracing overhead (traced minus untraced op_s_p50):")
    overhead = {}
    for name in WORKLOAD_NAMES:
        plain = reports[(name, 0)]["end_to_end"]["op_s_p50"]["value"]
        traced = reports[(name, 1)]["end_to_end"]["op_s_p50"]["value"]
        overhead[name] = {"untraced_s": plain, "traced_s": traced,
                          "overhead_s": traced - plain, "overhead_frac": traced / plain - 1.0}
        cov = reports[(name, 1)]["per_layer"]["trace.top_span_coverage"]["value"]
        print(f"  {name}: {traced - plain:+.4f} s ({traced / plain - 1.0:+.2%}) on "
              f"{plain:.4f} s; top-level spans cover {cov:.2%} of timed wall time")

    table = layer_type_table(reports[("train", 1)], reports[("infer", 1)])
    print("\nper-layer-type self time per call, 48^3 cuboid "
          "(train: training mode; infer: eval mode)")
    print(f"  {'layer':<16}{'train fwd s':>12}{'train bwd s':>12}{'eval fwd s':>12}"
          f"{'calls/iter':>11}")
    for cls, row in table.items():
        print(f"  {cls:<16}{row['train_forward_s']:>12.5f}{row['train_backward_s']:>12.5f}"
              f"{row['eval_forward_s']:>12.5f}{row['train_calls_per_iteration']:>11g}")

    print("\ncomputed conv work (train workload, per training iteration):")
    for span in WORK_SPANS:
        pl = reports[("train", 1)]["per_layer"]
        print(f"  {span}: {pl[span + '.gflop']['value']:.3f} GFLOP, "
              f"{pl[span + '.gbyte']['value']:.3f} GB moved (computed minimum), "
              f"{pl[span + '.gflops']['value']:.2f} GFLOP/s achieved")

    results = {
        "seed": args.seed, "seconds": args.seconds,
        "environment": reports[("calib", 0)]["environment"],
        "workloads": {name: {"named": reports[(name, 0)]["named"],
                             "end_to_end": reports[(name, 0)]["end_to_end"],
                             "per_layer": reports[(name, 1)]["per_layer"],
                             "tracing_overhead": overhead[name]}
                      for name in WORKLOAD_NAMES},
        "layer_type_table": table,
    }
    path = OUT / f"results-seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}")
    return status


def layer_type_table(train_report, infer_report):
    """Self seconds per call of each layer type: forward and backward from the
    traced train run, eval-mode forward from the traced infer run."""
    from tracing import LAYER_TYPES

    train, infer = train_report["layer_table"], infer_report["layer_table"]
    empty = {"calls": 0, "self_s_per_call": 0.0}
    return {cls: {"train_forward_s": train.get(f"{cls}.forward", empty)["self_s_per_call"],
                  "train_backward_s": train.get(f"{cls}.backward", empty)["self_s_per_call"],
                  "eval_forward_s": infer.get(f"{cls}.forward", empty)["self_s_per_call"],
                  "train_calls_per_iteration":
                      train.get(f"{cls}.forward", empty)["calls"] / train_report["units"]}
            for cls in LAYER_TYPES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tbcalib benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up once and print the seconds it took")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.setup_only and not args.workload:
        ap.error("--setup-only needs --workload")
    nproc = _pin_process_settings()
    _import_library()
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        print(setup_once(args.workload, args.seed)[1])
        return 0
    return main_all(args) if args.all else main_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
