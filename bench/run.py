"""pythrep benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload vine-scaling --seed 1 --seconds 20 --trace 0

Runs passes of the workload's call list (see workloads.py) for about
``--seconds`` seconds, checks every output against its oracle, and prints
the metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Each pass draws its seeded inputs from (seed, pass index), so a cache kept
across calls cannot speed up the later passes.  Some inputs are fixed by
size alone (the vine sizes, for one), so a first pass much slower than the
median later pass is flagged.

--trace 0 reports the end-to-end metrics, measured with nothing wrapped.
--trace 1 spends the first half of the time untraced and the second half
with the outside-in tracer installed (tracer.py), and reports the
per-layer metrics plus trace.overhead_frac.

setup_s is the median over several fresh processes of the time from
process start to the first call being ready: interpreter start, imports,
input generation and the pair files of cli-mix.

Every end-to-end time is normalized to a fixed machine speed.  A small
reference task is timed between calls, and each call's time is scaled by
REF_S over the reference time around it (see run_pass and NOTES.md).  Each
set-up probe is scaled by REF_SPAWN_S over the time of a reference process
that only starts Python and imports numpy, spawned before and after it.

The run pins BLAS/OpenMP to one thread and reads pythrep from the src/
directory next to this one; without it, it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Fresh set-up processes per run, by --scale.
SETUP_PROBES = {"full": 9, "tiny": 2}
# A first pass this much slower than the median later pass is flagged: the
# later passes may be gaining from state kept across calls.
FIRST_PASS_FLAG = 1.25
# Median time of reference_chunk on the machine that recorded the baseline,
# and the call time between two reference readings.
REF_S = 0.85e-3
REF_EVERY_S = 0.05
# Median time of REF_SPAWN on that machine: spawn a Python process that
# imports numpy and reports when it is ready.
REF_SPAWN_S = 0.17
REF_SPAWN = [sys.executable, "-c", "import json, time, numpy; print(json.dumps({'ready_ns': time.time_ns()}))"]

# name, unit; bounds live in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("growth_exp", "1"),
    ("decided_frac", "1"),
    ("peak_rss_mb", "MiB"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("vine-scaling", "diffuse-mix", "cli-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: harness smoke check")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def build_calls(args, workdir, pass_index: int):
    """The call list of one pass; its files go to a directory of its own."""
    import workloads

    passdir = workdir / f"pass-{pass_index}"
    passdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, pass_index, args.scale, str(passdir))


def setup_probe(args) -> int:
    """Child process of measure_setup: set up, report the time, clean up."""
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        build_calls(args, workdir, 0)
        print(json.dumps({"ready_ns": time.time_ns()}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def spawn_ready_s(cmd) -> float:
    """Time from spawning ``cmd`` until it prints that it is ready."""
    t0 = time.time_ns()
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return (json.loads(res.stdout.strip().splitlines()[-1])["ready_ns"] - t0) / 1e9


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Normalized and raw set-up times of fresh probe processes.

    Process start and imports drift with the machine in a way that the
    in-process reference task does not follow, so each probe is scaled by
    the REF_SPAWN processes spawned just before and just after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    norm, raw = [], []
    ref_prev = spawn_ready_s(REF_SPAWN)
    for _ in range(SETUP_PROBES[args.scale]):
        dt = spawn_ready_s(cmd)
        ref_next = spawn_ready_s(REF_SPAWN)
        raw.append(dt)
        norm.append(dt * 2 * REF_SPAWN_S / (ref_prev + ref_next))
        ref_prev = ref_next
    return norm, raw


def reference_chunk() -> float:
    """Time of a small fixed mix of string, dict and 2x2-matrix work that
    does not touch pythrep."""
    import numpy as np

    a = np.array([[0.6, 0.1], [0.2, 0.7]], dtype=np.complex128)
    t0 = time.perf_counter()
    s = "0110" * 8
    table = {}
    for i in range(400):
        w = s[: i % 32] + "1"
        table[w.strip("01") + w] = len(w)
    m = np.eye(2, dtype=np.complex128)
    for _ in range(200):
        m = a @ m
    return time.perf_counter() - t0


def reference_reading() -> float:
    """The machine's current speed, as the median of three reference chunks."""
    return statistics.median(reference_chunk() for _ in range(3))


def run_pass(calls, tracer=None) -> dict:
    """Run the call list once.  ``times`` are normalized: each raw call time
    is scaled by REF_S over the mean of the reference readings taken just
    before and just after it (a reading follows every REF_EVERY_S of calls)."""
    raw, times, failures, decided = [], [], [], []
    ref_prev, pending, since = reference_reading(), [], 0.0
    for i, c in enumerate(calls):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, err = c.run(), None
        except Exception as exc:  # a failed call is counted, the run goes on
            out, err = None, f"{c.label}: raised {exc!r}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if err is None:
            try:
                err = c.check(out)
            except Exception as exc:
                err = f"{c.label}: check raised {exc!r}"
        raw.append(dt)
        times.append(dt)
        pending.append(i)
        since += dt
        if since >= REF_EVERY_S or i == len(calls) - 1:
            ref_next = reference_reading()
            scale = 2 * REF_S / (ref_prev + ref_next)
            for j in pending:
                times[j] = raw[j] * scale
            ref_prev, pending, since = ref_next, [], 0.0
        if err is not None:
            failures.append(err)
        if c.decided is not None:
            decided.append(err is None and c.decided(out))
    size_times: dict = {}
    for c, t in zip(calls, times):
        if c.size is not None:
            size_times[c.size] = size_times.get(c.size, 0.0) + t
    return {"times": times, "raw_times": raw, "failures": failures, "decided": decided, "size_times": size_times}


def run_passes(build, budget: float, tracer=None) -> list[dict]:
    """Whole passes 0, 1, ... until the next one would overrun the budget; at
    least one.  ``build(i)`` gives the call list of pass i."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(build(len(passes)), tracer))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def tail_rank(n: int) -> int:
    """Index in ascending order of the highest percentile with at least ten
    samples beyond it."""
    if n < 11:
        raise ValueError(f"a pass needs at least 11 calls for a tail, has {n}")
    return n - 11


def loglog_slope(per_size: dict) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in per_size]
    ys = [math.log(t) for t in per_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def first_pass_ratio(passes) -> "float | None":
    """Wall time of the first pass over the median of the later ones."""
    if len(passes) < 2:
        return None
    walls = [sum(p["times"]) for p in passes]
    return walls[0] / statistics.median(walls[1:])


def end_to_end(passes, setup_times, setup_rss_mb) -> tuple[dict, dict]:
    med = statistics.median
    n = len(passes[0]["times"])
    sizes = sorted(passes[0]["size_times"])
    per_size = {s: med(p["size_times"][s] for p in passes) for s in sizes}
    decided = [d for p in passes for d in p["decided"]]
    values = {
        "setup_s": med(setup_times),
        "wall_s": med(sum(p["times"]) for p in passes),
        "task_p50_ms": 1e3 * med(med(p["times"]) for p in passes),
        "task_tail_ms": 1e3 * med(sorted(p["times"])[tail_rank(n)] for p in passes),
        "growth_exp": loglog_slope(per_size),
        "decided_frac": sum(decided) / len(decided),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "setup_rss_mb": setup_rss_mb,
        "rss_above_setup_mb": values["peak_rss_mb"] - setup_rss_mb,
        "calls_per_pass": n,
        "tail_percentile": 100 * (n - 10) / n,
        "growth_sizes": {str(s): per_size[s] for s in sizes},
        "setup_probes_s": setup_times,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, detail


def provenance(args) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            sha = res.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pythrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:  # not Linux
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pythrep" / "__init__.py").is_file():
        print(f"error: no pythrep sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_probe(args)

    setup_times, setup_raw = ([], []) if args.trace else measure_setup(args)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        first = build_calls(args, workdir, 0)
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def build(i):
            return first if i == 0 else build_calls(args, workdir, i)

        if args.trace:
            # The traced half repeats the untraced half's passes, so that
            # trace.overhead_frac compares the same inputs.
            untraced = run_passes(build, args.seconds / 2)
            import tracer as tracing

            tr = tracing.Tracer()
            tr.install()
            traced = run_passes(build, args.seconds / 2, tr)
            passes = untraced + traced
            wall = statistics.median(sum(p["times"]) for p in traced)
            base = statistics.median(sum(p["times"]) for p in untraced)
            agg = tr.aggregate()
            metrics = tracing.per_layer(agg, len(traced), sum(sum(p["raw_times"]) for p in traced))
            name, unit, _ = tracing.OVERHEAD
            metrics[name] = {"value": wall / base - 1.0, "unit": unit}
            detail = {
                "untraced_passes": len(untraced),
                "traced_passes": len(traced),
                "spans": len(tr.start),
                "self_s_per_pass": {k: v / len(traced) for k, v in sorted(agg["self_s"].items())},
            }
            tr.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            passes = run_passes(build, args.seconds)
            metrics, detail = end_to_end(passes, setup_times, setup_rss_mb)
            detail["first_pass_ratio"] = first_pass_ratio(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    detail.update(
        passes=len(passes),
        pass_wall_s=[sum(p["times"]) for p in passes],
        raw_wall_s=[sum(p["raw_times"]) for p in passes],
        setup_raw_s=setup_raw,
        call_times=[p["times"] for p in passes],
        fail_frac=len(failures) / attempted,
        failures=failures[:20],
    )
    record = {"provenance": provenance(args), "detail": detail, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted} calls)")
    if "tail_percentile" in detail:
        print(f"task_tail_ms is p{detail['tail_percentile']:.1f} of {detail['calls_per_pass']} calls per pass")
        print(f"peak_rss_mb is {detail['setup_rss_mb']:.1f} MiB after set-up"
              f" + {detail['rss_above_setup_mb']:.1f} MiB during the passes")
    ratio = detail.get("first_pass_ratio")
    if ratio is not None and ratio > FIRST_PASS_FLAG:
        print(f"FLAG the first pass took {ratio:.2f} times the median later pass;"
              " the later passes may gain from state kept across calls")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
