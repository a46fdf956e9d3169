"""The mkridge entry points the traced run wraps, and the per-layer metrics.

Layers are named after the modules. Each wrapped entry point is a span; the
table in ``install`` is the single place that names them. Model functions are
wrapped under the names ``tuners`` imports them by, so the spans sit where the
rolling loop calls them.
"""

from __future__ import annotations

import statistics

import numpy as np

from mkridge import cli, data, optim, tuners
from mkridge.data import Dataset
from mkridge.kernels import CompositeKernel
from mkridge.optim import FeasibleSet

from tracer import Tracer

OWNERS = (data, optim, tuners, cli, Dataset, CompositeKernel, FeasibleSet)
TUNE_EVENT = "tuners.tune_event"

# Which layer each workload is meant to stress, per strategy (see README.md).
HOT_LAYERS = {
    ("four_week", "OHL"): ("kernels.cross_derivs",),
    ("four_week", "OFFLINE_GRAD"): ("kernels.cross_derivs",),
    ("wide_window", "FIXED"): ("kernels.gram", "model.fit_self"),
    ("wide_window", "OHL"): ("kernels.block_derivs", "model.jacobian_self"),
}


def _strategy(args) -> str:
    return args[0].strategy.value


def _start_run(tracer: Tracer, args) -> None:
    tracer.state["incumbent"] = args[0].init


def _fit_started(tracer: Tracer, args) -> None:
    n = len(args[1])
    tracer.count("model.factor_gflop_computed", n**3 / 3 / 1e9)
    if any(frame[0] == TUNE_EVENT for frame in tracer._stack):
        tracer.count("tuners.fits_in_tune_events")


def _block_yielded(tracer: Tracer, args, matrix) -> None:
    tracer.count("kernels.block_derivs_mb_computed", matrix.nbytes / 1e6)


def _tune_done(tracer: Tracer, args, chosen) -> None:
    incumbent = tracer.state["incumbent"]
    changed = not np.array_equal(chosen.to_vector(), incumbent.to_vector())
    tracer.count("tuners.tune_changed", float(changed))
    tracer.state["incumbent"] = chosen


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    w(data, "generate_synthetic", "data.generate")
    w(data, "build_features", "data.build_features")
    w(cli, "build_features", "data.build_features")
    w(Dataset, "query", "data.query")
    w(Dataset, "slice", "data.slice")

    w(CompositeKernel, "component_blocks", "kernels.gram")
    w(CompositeKernel, "cross", "kernels.cross")
    w(CompositeKernel, "cross_many", "kernels.cross_many")
    w(CompositeKernel, "cross_derivs_all", "kernels.cross_derivs")
    w(CompositeKernel, "iter_block_derivs", "kernels.block_derivs",
      generator=True, after=_block_yielded)

    w(tuners, "fit", "model.fit_self", before=_fit_started)
    w(tuners, "theta_jacobian", "model.jacobian_self")
    w(tuners, "loss_hyper_gradient", "model.hypergrad_self", sample="self")
    w(tuners, "predict", "model.predict")
    w(tuners, "predict_batch", "model.predict_batch")

    w(optim, "project_C", "optim.project_C")
    w(tuners, "project_C", "optim.project_C")
    w(tuners, "projected_gradient", "optim.projected_gradient")
    w(tuners, "lazy_step", "optim.lazy_step")
    w(FeasibleSet, "sample", "optim.sample")

    w(tuners, "run", "tuners.loop_self", before=_start_run, scope_of=_strategy)
    w(cli, "run", "tuners.loop_self", before=_start_run, scope_of=_strategy)
    for name in ("tune_grid", "tune_random", "tune_offline_gradient"):
        w(tuners, name, TUNE_EVENT, sample="total", after=_tune_done)

    w(cli, "main", "cli.main")
    w(cli, "write_trace_csv", "cli.write_trace")
    w(cli, "build_report", "cli.build_report")
    w(cli, "_write_report", "cli.report_write")


def by_scope(tracers) -> dict[str, dict[str, dict]]:
    """Per scope (strategy, ``cli`` or ``setup``): calls and self seconds per layer."""
    out: dict[str, dict[str, dict]] = {}
    for tracer in tracers:
        for (scope, layer), st in tracer.stats.items():
            entry = out.setdefault(scope, {}).setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += st.calls
            entry["self_s"] += st.self_ns / 1e9
    return out


def shares(scope_layers: dict[str, dict]) -> dict[str, float]:
    """Each layer's share of the scope's traced self time, largest first."""
    total = sum(e["self_s"] for e in scope_layers.values()) or 1.0
    ranked = sorted(scope_layers.items(), key=lambda kv: -kv[1]["self_s"])
    return {layer: e["self_s"] / total for layer, e in ranked}


def hot_layer_report(workload: str, scopes: dict[str, dict[str, dict]]) -> list[dict]:
    rows = []
    for (name, strategy), hot in HOT_LAYERS.items():
        if name != workload or strategy not in scopes:
            continue
        share = shares(scopes[strategy])
        top = next(iter(share))
        rows.append({
            "strategy": strategy,
            "named": list(hot),
            "named_shares": {layer: share.get(layer, 0.0) for layer in hot},
            "top_layer": top,
            "top_share": share[top],
            "ok": top in hot,
        })
    return rows


def _percentile(samples_ns: list[int], q: float) -> float:
    if not samples_ns:
        return 0.0
    ordered = sorted(samples_ns)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e9


def metrics(tracers, summaries: dict[str, dict]) -> dict[str, float]:
    """Flat per-layer metrics of one traced pass (plus the traced set-up)."""
    stats: dict[str, dict] = {
        layer: {"calls": 0, "self_ns": 0} for tracer in tracers for layer in tracer.layers
    }
    counters: dict[str, float] = {}
    samples: dict[str, list[int]] = {}
    for tracer in tracers:
        for (_, layer), st in tracer.stats.items():
            entry = stats.setdefault(layer, {"calls": 0, "self_ns": 0})
            entry["calls"] += st.calls
            entry["self_ns"] += st.self_ns
            samples.setdefault(layer, []).extend(st.samples_ns)
        for (_, name), value in tracer.counters.items():
            counters[name] = counters.get(name, 0.0) + value
    out: dict[str, float] = {}
    for layer, entry in sorted(stats.items()):
        out[f"{layer}_calls"] = entry["calls"]
        out[f"{layer}_s"] = entry["self_ns"] / 1e9
    events = samples.get(TUNE_EVENT, [])
    out[f"{TUNE_EVENT}_p50_s"] = statistics.median(events) / 1e9 if events else 0.0
    out[f"{TUNE_EVENT}_max_s"] = max(events) / 1e9 if events else 0.0
    grads = samples.get("model.hypergrad_self", [])
    out["model.hypergrad_self_p50_s"] = _percentile(grads, 0.50)
    out["model.hypergrad_self_p99_s"] = _percentile(grads, 0.99)
    for name in ("kernels.block_derivs_mb_computed", "model.factor_gflop_computed"):
        out[name] = counters.get(name, 0.0)
    n_events = stats.get(TUNE_EVENT, {}).get("calls", 0)
    out["tuners.tune_changed_frac"] = counters.get("tuners.tune_changed", 0.0) / n_events if n_events else 0.0
    offline = ("OFFLINE_GRAD", TUNE_EVENT)
    offline_events = sum(t.stats[offline].calls for t in tracers if offline in t.stats)
    offline_fits = sum(
        t.counters.get(("OFFLINE_GRAD", "tuners.fits_in_tune_events"), 0.0) for t in tracers
    )
    out["tuners.offline_iters_per_event"] = offline_fits / offline_events if offline_events else 0.0
    for key in ("tuning_fits", "prediction_fits", "jacobian_builds", "gradient_evals"):
        out[f"tuners.{key}"] = sum(s[key] for s in summaries.values())
    return out
