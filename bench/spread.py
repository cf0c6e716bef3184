"""Run the benchmark over several seeds and report each metric's median and
quartile spread (interquartile distance as a share of the median).

    python3 bench/spread.py --seeds 1-10 --workloads vine-scaling,diffuse-mix,cli-mix \\
        --out bench/results/baseline.json

Runs one workload process at a time.  The summary records every run's
metrics, so a later comparison can use the same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def spread(values: list[float]) -> "float | None":
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else None


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["provenance"] = json.loads(lines[-2])["provenance"]
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()}, flush=True)
        table = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            table[m["name"]] = {
                "unit": m["unit"],
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "bound": m.get("bound"),
            }
            if m.get("bound") is not None:
                print(f"  {m['name']:16s} median {table[m['name']]['median']:.6g} {m['unit']}"
                      f"  spread {table[m['name']]['spread']:.4f}  bound {m['bound']}")
        summary["workloads"][workload] = {
            "metrics": table,
            "all_correct": all(r["correct"] for r in runs),
            "runs": runs,
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
