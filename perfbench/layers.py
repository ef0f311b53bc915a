"""Where the tracer hooks into crossingsim, and the per-layer metrics it yields.

Layers are the package modules mixture, agents, sim, metrics, ingest and
cli. config, scenario and seeds do microseconds of work per call and are
not timed on their own. A metric is named <module>.<function>.<quantity>:
``calls`` counts calls, ``s`` is inclusive wall time and ``self_s`` is
wall time net of the traced calls made inside it.
"""

from __future__ import annotations

from tracer import Tracer

# Span-derived metrics, as (span name, quantity).
# log_density_rows is only counted: it runs inside the mode search, and a
# span there would move the search's time out of conditional_mode.self_s.
SPAN_METRICS = [
    ("mixture.truncated_moments", "calls"),
    ("mixture.truncated_moments", "self_s"),
    ("mixture.em_fit", "self_s"),
    ("mixture.bic", "s"),
    ("mixture.select_components", "s"),
    ("mixture.conditional_mode", "calls"),
    ("mixture.conditional_mode", "self_s"),
    ("agents.HumanDriver.command", "calls"),
    ("agents.HumanDriver.command", "self_s"),
    ("mixture.condition", "calls"),
    ("mixture.condition", "self_s"),
    ("agents.decide_walk_speed", "calls"),
    ("agents.decide_walk_speed", "self_s"),
    ("mixture.marginalize", "calls"),
    ("mixture.marginalize", "s"),
    ("mixture.sample", "calls"),
    ("mixture.sample", "s"),
    ("sim.run_episode", "calls"),
    ("sim.run_episode", "self_s"),
    ("agents.SoftYieldStrategy.command", "self_s"),
    ("sim.run_paired_experiments", "s"),
    ("cli.gen_data", "s"),
    ("cli.fit", "s"),
    ("cli.evaluate", "s"),
    ("cli.condition", "s"),
    ("cli.simulate", "s"),
    ("ingest.read_observations", "s"),
    ("mixture.GaussianMixture.load", "s"),
    ("metrics.compute_report", "s"),
]

DERIVED_METRICS = [
    ("mixture.log_density_rows.calls", "count"),
    ("mixture.em_fit.iterations", "count"),
    ("mixture.em_fit.converged_ratio", "ratio"),
    ("agents.HumanDriver.fallback_ratio", "ratio"),
    ("agents.decide_walk_speed.fallback_ratio", "ratio"),
    ("sim.steps", "count"),
    ("trace_overhead_ratio", "ratio"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {
        f"{name}.{quantity}": ("count" if quantity == "calls" else "s")
        for name, quantity in SPAN_METRICS
    }
    units.update(DERIVED_METRICS)
    return units


def _em_fit_done(tracer: Tracer, args: tuple, result) -> None:
    _, diagnostics = result
    tracer.counters["em_fit.iterations"] += diagnostics.n_iterations
    tracer.counters["em_fit.converged"] += bool(diagnostics.converged)


def _walk_speed_done(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["walk_speed.fallbacks"] += bool(result.used_fallback)


def _human_recompute_done(tracer: Tracer, args: tuple, result) -> None:
    # A recompute with no governing pedestrian sets _recovering and does
    # not condition; the others are conditioning attempts.
    if not args[0]._recovering:
        tracer.counters["human.attempts"] += 1
        tracer.counters["human.fallbacks"] += bool(result.fallback)


def _density_rows_called(tracer: Tracer, args: tuple, result) -> None:
    tracer.counters["log_density_rows.calls"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every traced function on the names it is called through."""
    import crossingsim
    from crossingsim import agents, cli, config, ingest, metrics, mixture, scenario, seeds, sim

    modules = [crossingsim, agents, cli, config, ingest, metrics, mixture, scenario, seeds, sim]
    functions = [
        (mixture.truncated_moments, "mixture.truncated_moments", None),
        (mixture.em_fit, "mixture.em_fit", _em_fit_done),
        (mixture.bic, "mixture.bic", None),
        (mixture.select_components, "mixture.select_components", None),
        (mixture.conditional_mode, "mixture.conditional_mode", None),
        (agents.decide_walk_speed, "agents.decide_walk_speed", _walk_speed_done),
        (sim.run_episode, "sim.run_episode", None),
        (sim.run_paired_experiments, "sim.run_paired_experiments", None),
        (ingest.read_observations, "ingest.read_observations", None),
        (metrics.compute_report, "metrics.compute_report", None),
        (cli.cmd_gen_data, "cli.gen_data", None),
        (cli.cmd_fit, "cli.fit", None),
        (cli.cmd_condition, "cli.condition", None),
        (cli.cmd_simulate, "cli.simulate", None),
        (cli.cmd_evaluate, "cli.evaluate", None),
    ]
    for fn, name, hook in functions:
        tracer.wrap_function(fn, name, modules, hook)
    model = mixture.GaussianMixture
    tracer.wrap_method(model, "condition", "mixture.condition")
    tracer.wrap_method(model, "marginalize", "mixture.marginalize")
    tracer.wrap_method(model, "sample", "mixture.sample")
    tracer.wrap_method(model, "load", "mixture.GaussianMixture.load")
    tracer.wrap_method(model, "log_density_rows", None, _density_rows_called)
    tracer.wrap_method(agents.HumanDriver, "command", "agents.HumanDriver.command")
    tracer.wrap_method(agents.HumanDriver, "_recompute", None, _human_recompute_done)
    tracer.wrap_method(
        agents.SoftYieldStrategy, "command", "agents.SoftYieldStrategy.command"
    )


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Totals over every span and counter the tracer recorded."""
    totals = tracer.layer_totals()
    counters = tracer.counters

    def total(name: str, quantity: str) -> float:
        return totals.get(name, {}).get(quantity, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = {f"{name}.{q}": total(name, q) for name, q in SPAN_METRICS}
    out["mixture.log_density_rows.calls"] = counters["log_density_rows.calls"]
    out["mixture.em_fit.iterations"] = counters["em_fit.iterations"]
    out["mixture.em_fit.converged_ratio"] = ratio(
        counters["em_fit.converged"], total("mixture.em_fit", "calls")
    )
    out["agents.HumanDriver.fallback_ratio"] = ratio(
        counters["human.fallbacks"], counters["human.attempts"]
    )
    out["agents.decide_walk_speed.fallback_ratio"] = ratio(
        counters["walk_speed.fallbacks"], total("agents.decide_walk_speed", "calls")
    )
    out["sim.steps"] = total("agents.HumanDriver.command", "calls") + total(
        "agents.SoftYieldStrategy.command", "calls"
    )
    return out
