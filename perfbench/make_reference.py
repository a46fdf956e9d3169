"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/make_reference.py --seeds 0-19 --out perfbench/reference.json

Runs every operation of every workload once per seed and stores, per workload,
strategy and seed, the final RMSE and the exact tuning fits, prediction fits,
Jacobian builds and gradient evaluations, and writes them to ``--out``,
replacing what it held. Run it on the commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=env.seeds, required=True, help="a seed or a range such as 0-19")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    env.pin_threads()
    env.use_checkout_sources()
    import workloads

    reference: dict = {}
    env.OUT.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=env.OUT))
            try:
                prepared = workloads.setup(name, seed, workdir)
                for op in prepared.ops:
                    result = prepared.run(op)
                    if result.problems:
                        raise RuntimeError(f"{name} seed {seed}: {result.problems}")
                    for strategy, summary in result.summary.items():
                        reference.setdefault(name, {}).setdefault(strategy, {})[str(seed)] = summary
            finally:
                shutil.rmtree(workdir)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{s} {v[str(seed)]['final_rmse']:.4f}" for s, v in reference[name].items()), flush=True)
    args.out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
