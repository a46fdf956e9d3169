"""Run the benchmark on several seeds and record one point of the trajectory.

    python3 perfbench/trajectory.py --seeds 0-9 --out perfbench/trajectory/<commit>.json

For every workload: one untraced run per seed (end-to-end metrics, with each
metric's median, quartiles and quartile spread as a share of the median) and
one traced run on the first seed (per-layer metrics and hot-layer shares).
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
ROOT = env.ROOT


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True, cwd=ROOT,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads(
        (env.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=env.seeds, default=env.seeds("0-9"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    point: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs, values = [], {}
        for seed in args.seeds:
            result, details = _run(workload, seed, args.seconds, 0)
            point["env"] = details["env"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        entry = {"runs": runs, "end_to_end": {k: _spread(v) for k, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            print(f"  {name:24s} median {s['median']:.6g}  quartile spread "
                  f"{100 * s['iqr_share']:.1f}% (bound {100 * bounds[name]:.0f}%)")
        result, details = _run(workload, args.seeds[0], args.seconds, 1)
        entry["traced"] = {
            "seed": args.seeds[0], "correct": result["correct"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "hot_layers": details.get("hot_layers", []),
            "shares_by_strategy": {
                s: {k: round(v, 4) for k, v in list(sh.items())[:6]}
                for s, sh in details.get("shares_by_strategy", {}).items()
            },
        }
        print(f"  traced: correct {result['correct']}, hot layers "
              f"{[(r['strategy'], r['top_layer'], round(r['top_share'], 3)) for r in entry['traced']['hot_layers']]}")
        point["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
