"""mkridge benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload four_week --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and README.md): ``four_week``, ``wide_window``,
``cli_adapt``. One process, one caller, closed loop: each operation (a strategy
run, or one ``mkridge run`` invocation) starts only after the previous one
returned. BLAS and OpenMP are pinned to one thread before numpy is imported.

``--trace 0`` repeats the workload's operations for ``--seconds`` seconds and
reports end-to-end metrics from per-operation medians. ``--trace 1`` runs
pairs of passes, one untraced and one with every layer entry point wrapped,
checks that tracing changed no output, and reports per-layer metrics.

Every operation's outputs are checked against ``reference.json`` (made on the
seed commit by ``make_reference.py``); a mismatch, an exception or a nonzero
exit counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import env

SETUP_REPEATS = 2  # fresh-interpreter set-ups per run, besides the run's own


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and print it as JSON")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _setup_in_subprocess(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Runner:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, prepared, check):
        self.prepared = prepared
        self.check = check  # per-strategy summaries -> list of problems
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def op(self, name: str):
        self.attempted += 1
        try:
            result = self.prepared.run(name)
        except Exception:
            self.fail(f"{name}: {traceback.format_exc(limit=3).strip()}")
            return None
        problems = result.problems + self.check(result.summary)
        if problems:
            self.fail(f"{name}: " + "; ".join(problems))
            return None
        return result

    def run_pass(self, tracer=None) -> dict:
        results = {}
        for name in self.prepared.ops:
            if tracer is not None:
                tracer.scope = name
            result = self.op(name)
            if result is not None:
                results[name] = result
        return results


def _median_metrics(op_samples: dict[str, list], steps: dict[str, int]) -> dict[str, float]:
    """End-to-end metrics from the per-operation medians of one run."""
    med = {s: statistics.median(v) for s, v in op_samples["strategy"].items() if v}
    out = {"wall_s": sum(statistics.median(v) for v in op_samples["op"].values() if v)}
    for s in ("OHL", "FIXED", "RANDOM", "OFFLINE_GRAD", "GRID"):
        if s in med:
            out[f"{s.lower()}_steps_per_s"] = steps[s] / med[s]
    # Geometric mean, so that each backtest strategy weighs the same however
    # long its operation takes: halving one of two strategies' speed moves
    # the pooled figure by 29 %.
    backtest = [out[f"{s.lower()}_steps_per_s"] for s in ("RANDOM", "OFFLINE_GRAD", "GRID")
                if s in med]
    if backtest:
        out["backtest_steps_per_s"] = statistics.geometric_mean(backtest)
    return out


def measure(runner: Runner, deadline: float) -> tuple[dict, dict]:
    """Closed loop over the workload's operations until the time is spent.

    Every operation runs once in order; after that the operation with the least
    time measured so far runs next, provided its last run fits in the time
    left. Each operation thus gets about an equal share of the run, so short
    ones are repeated more and every median rests on a similar measured time.
    """
    samples = {"strategy": {}, "op": {}}
    steps: dict[str, int] = {}
    last: dict[str, float] = {}
    spent: dict[str, float] = {}
    pending = list(runner.prepared.ops)
    while True:
        if pending:
            name = pending.pop(0)
        else:
            left = deadline - time.perf_counter()
            fits = [n for n in spent if last[n] <= left]
            if not fits:
                return samples, steps
            name = min(fits, key=spent.get)
        result = runner.op(name)
        if result is None:
            last[name] = float("inf")
            spent[name] = float("inf")
            continue
        last[name] = result.wall_s
        spent[name] = spent.get(name, 0.0) + result.wall_s
        samples["op"].setdefault(name, []).append(result.wall_s)
        for s, t in result.strategy_s.items():
            samples["strategy"].setdefault(s, []).append(t)
        steps.update(result.steps)


def trace_pairs(runner: Runner, setup_tracer, deadline: float) -> tuple[list, dict]:
    """Pairs of (untraced pass, traced pass) until the time is spent."""
    import layers
    from tracer import Tracer

    per_pass, scopes = [], {}
    while True:
        t0 = time.perf_counter()
        plain = runner.run_pass()
        plain_wall = sum(r.wall_s for r in plain.values())
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = runner.run_pass(tracer)
        finally:
            not_restored = tracer.uninstall()
        for attr in not_restored + Tracer.leftovers(layers.OWNERS):
            runner.fail(f"traced run left {attr} wrapped")
        if tracer.negative_self:
            runner.fail(f"{tracer.negative_self} spans with negative self time")
        for name, result in traced.items():
            if name in plain and result.fingerprint != plain[name].fingerprint:
                differ = sorted(k for k in result.fingerprint
                                if result.fingerprint[k] != plain[name].fingerprint.get(k))
                runner.fail(f"{name}: tracing changed {', '.join(differ)}")
        traced_wall = sum(r.wall_s for r in traced.values())
        summaries = {s: v for r in traced.values() for s, v in r.summary.items()}
        values = layers.metrics([setup_tracer, tracer], summaries)
        values["cli.output_bytes"] = sum(r.output_bytes for r in traced.values())
        values["trace_overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
        per_pass.append(values)
        scopes = layers.by_scope([setup_tracer, tracer])
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return per_pass, scopes


def _load_declared() -> dict:
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    env.pin_threads()
    try:
        env.use_checkout_sources()
    except env.MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    t_setup = time.perf_counter()
    import workloads  # imports numpy and mkridge: part of the set-up time

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.OUT))

    if args.setup_only:
        prepared = workloads.setup(args.workload, args.seed, workdir)
        elapsed = time.perf_counter() - t_setup
        shutil.rmtree(workdir)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    declared = _load_declared()
    setup_tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        setup_tracer = Tracer()
        layers.install(setup_tracer)
    try:
        prepared = workloads.setup(args.workload, args.seed, workdir)
    finally:
        not_restored = setup_tracer.uninstall() if setup_tracer else []
    setup_here = time.perf_counter() - t_setup
    reference = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
    runner = Runner(prepared, lambda summary: workloads.check(
        reference, args.workload, args.seed, summary))
    for attr in not_restored:
        runner.fail(f"set-up left {attr} wrapped")
    details: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "env": env.describe()}
    # Everything after the run's own set-up, the repeated set-ups included,
    # comes out of the --seconds budget.
    deadline = time.perf_counter() + args.seconds
    try:
        if args.trace:
            per_pass, scopes = trace_pairs(runner, setup_tracer, deadline)
            names = sorted({k for values in per_pass for k in values})
            values = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in names}
            details["passes"] = len(per_pass)
            details["layers_by_strategy"] = scopes
            details["shares_by_strategy"] = {s: layers.shares(v) for s, v in scopes.items()}
            details["hot_layers"] = layers.hot_layer_report(args.workload, scopes)
        else:
            setups = [setup_here] + [
                _setup_in_subprocess(args.workload, args.seed) for _ in range(SETUP_REPEATS)
            ]
            samples, steps = measure(runner, deadline)
            values = _median_metrics(samples, steps)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            details["samples"] = samples
            details["setup_samples"] = setups
    finally:
        shutil.rmtree(workdir)

    wanted = declared[args.trace]
    missing = [k for k in wanted if k not in values]
    for k in missing:
        runner.problems.append(f"metric {k} not measured")
    values["failed_frac"] = runner.failed / runner.attempted if runner.attempted else 1.0
    _print_human(args, details, values, runner, {**declared[0], **declared[1]})
    details["values"] = values
    details["problems"] = runner.problems
    (env.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str), encoding="utf-8")

    result = {
        "correct": runner.failed == 0 and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in wanted.items() if k in values},
    }
    print(json.dumps(result))
    return 0


def _print_human(args, details: dict, values: dict, runner: Runner, units: dict) -> None:
    e = details["env"]
    print(f"env: python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, blas {e['blas']}, "
          f"blas_threads {env.BLAS_THREADS}, nproc {e['nproc']}, commit {e['commit']}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name in sorted(values):
        # metrics printed but not in BENCHMARK.json: per-strategy throughput,
        # failed_frac, self seconds of layers that not every workload runs
        unit = units.get(name) or ("steps/s" if name.endswith("_steps_per_s") else
                                   "ratio" if name.endswith("_frac") else "s")
        print(f"  {name:44s} {values[name]:.6g} {unit}")
    for row in details.get("hot_layers", []):
        named = ", ".join(f"{k} {100 * v:.1f}%" for k, v in row["named_shares"].items())
        print(f"  hot layer {row['strategy']}: {named}; top {row['top_layer']} "
              f"{100 * row['top_share']:.1f}% -> {'ok' if row['ok'] else 'NOT the named layer'}")
    print(f"  operations attempted {runner.attempted}, failed {runner.failed}")
    for problem in runner.problems:
        print(f"  FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
