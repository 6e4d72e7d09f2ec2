"""SIRM benchmark: one JSON result line per workload and seed.

    python3 perfbench/run.py --workload train_small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the repository root. The library is imported from ./src, never
from an installed copy, so the run measures the checkout it sits in. With
--trace 0 the last line of standard output holds the end-to-end metrics
listed in BENCHMARK.json; with --trace 1 it holds the per-layer metrics of
a traced run. The exit code is 1 when an output check fails and 2 when the
library cannot be found.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_SAMPLES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc():
            os.environ[var] = str(nproc())


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "sirm", "__init__.py")):
        die(f"no library at {SRC}/sirm; run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import sirm
    if not os.path.abspath(sirm.__file__).startswith(SRC + os.sep):
        die(f"imported sirm from {sirm.__file__}, not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up in a fresh process and report when ready
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure(workload, acc, probe, seconds):
    """Run units until the next one would end past `seconds`; at least one."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.unit(acc, probe))
        elapsed = time.perf_counter() - start
        if elapsed + units[-1].seconds > seconds:
            return units


def setup_seconds(args, workdir):
    """Median wall time from process start to ready, over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-only", workdir]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=150)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        samples.append(float(lines[1]) - start)
    return statistics.median(samples)


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest():
    import hashlib
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "sirm")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, extra):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": nproc(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }
    info.update(extra)
    return info


def end_to_end(args, acc, units, workdir):
    seconds = sum(u.seconds for u in units)
    targets = [u.target_seconds for u in units if u.target_seconds is not None]
    return {
        "examples_per_s": (sum(u.examples for u in units) / seconds, "1/s"),
        "op_s_p90": (percentile(acc.op_seconds, 90), "s"),
        "time_to_target_s": (statistics.median(targets) if targets else seconds, "s"),
        "setup_s": (setup_seconds(args, workdir), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# What the workload-neutral metric names mean on each kind of workload,
# printed beside them.
TRAIN_NAMES = {"examples_per_s": "train_examples_per_s", "op_s_p50": "step_s_p50",
               "op_s_p90": "step_s_p90", "op_s_p99": "step_s_p99"}
INFER_NAMES = {"examples_per_s": "infer_examples_per_s", "op_s_p50": "infer_chunk_s_p50",
               "op_s_p90": "infer_chunk_s_p90", "op_s_p99": "infer_chunk_s_p99"}
# Printed but not in the result line. On a shared 2-vCPU host whose speed
# switches between two levels for minutes at a time, the median op time
# jumps between them from run to run; the mean and the p90 move less.
UNBOUNDED_PERCENTILES = (50, 99)


def run_untraced(args, workload, workdir):
    from workloads import Account, Probe
    acc = Account()
    workload.setup()
    probe = Probe(acc)
    probe.install()
    try:
        units = measure(workload, acc, probe, args.seconds)
    finally:
        probe.uninstall()
    workload.final_checks(acc)
    metrics = end_to_end(args, acc, units, workdir)
    aliases = TRAIN_NAMES if workload.op_name == "step" else INFER_NAMES
    for name, (value, unit) in metrics.items():
        print(f"{name:18s} {value:14.6g} {unit:6s} {aliases.get(name, '')}")
    for q in UNBOUNDED_PERCENTILES:
        name = f"op_s_p{q}"
        print(f"{name:18s} {percentile(acc.op_seconds, q):14.6g} {'s':6s} {aliases[name]} "
              f"(unbounded, {len(acc.op_seconds)} {workload.op_name}s)")
    extra = {"units": len(units), "ops": len(acc.op_seconds)}
    if hasattr(workload, "epochs_to_target"):
        extra["epochs_to_target"] = workload.epochs_to_target
    return acc, metrics, extra


def run_traced(args, workload, workdir):
    """Untraced units, then the same units traced; per-layer metrics."""
    from tracer import Tracer
    from workloads import Account, Probe
    acc = Account()
    tracer = Tracer()
    tracer.install()
    setup_start = time.perf_counter()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    setup_wall = time.perf_counter() - setup_start
    setup_self, _ = tracer.self_times()
    tracer.reset()

    probe = Probe(acc)
    probe.install()
    try:
        plain = measure(workload, acc, probe, args.seconds / 2)
        workload.reset()
        probe.uninstall()
        tracer.install()
        probe.install()
        traced = [workload.unit(acc, probe) for _ in plain]
    finally:
        probe.uninstall()
        tracer.uninstall()
    tracer.write(os.path.join(WORK, f"spans-{args.workload}.tsv"))
    workload.final_checks(acc)

    plain_s = sum(u.seconds for u in plain)
    wall = sum(u.seconds for u in traced)
    overhead = 100.0 * (wall - plain_s) / plain_s
    metrics = tracer.layer_metrics(sum(u.examples for u in traced), wall,
                                   setup_self, setup_wall)
    metrics["trace.overhead_pct"] = (overhead, "%")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    if tracer.absent:
        print("absent layers: " + ", ".join(tracer.absent))
    extra = {"units": len(traced), "traced_s": wall, "untraced_s": plain_s,
             "trace_overhead_pct": overhead, "spans": len(tracer.spans),
             "absent_layers": tracer.absent}
    return acc, metrics, extra


def run_all(args, names):
    """Each workload in turn, in its own process; the worst exit code."""
    codes = []
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None):
    args = parse_args(argv)
    limit_blas_threads()
    import_library()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload](ROOT, args.setup_only, args.seed).setup()
        print("ready", time.monotonic(), flush=True)
        return 0

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        workload.make_inputs()
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}", flush=True)
        run = run_traced if args.trace else run_untraced
        acc, metrics, extra = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir)
    failed = min(acc.failed, acc.attempted)
    print(f"{'error_rate':18s} {failed / max(acc.attempted, 1):14.6g} {'1':6s} "
          f"failed {failed} of {acc.attempted} {workload.op_name}s")
    for message in acc.messages:
        print("FAILED:", message)
    print("manifest " + json.dumps(manifest(args, extra), sort_keys=True))
    correct = acc.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": acc.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
