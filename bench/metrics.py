"""Metric definitions and their derivation from measured phases.

`END_TO_END` is what a user of qlevy sees, measured with tracing off.
`PER_LAYER` comes from the traced run; each entry names the end-to-end
metric and workload it should move.  BENCHMARK.json mirrors both tables
(the benchmark's tests check that they agree).
"""

from __future__ import annotations

import math
import statistics

from tracing import LAYERS

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = (
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("task_p50_s", "s", "lower", 0.25),
    ("top_task_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
)

_SHIPPED = "shipped-configs"
_GRAM = "gram-ladder"
_SUB = "subcoalg-ladder"
_FOCK = "fock-trotter"

# name, unit, better, the end-to-end metrics (on workloads) it should move
PER_LAYER = (
    ("cli.self_s", "s", "lower", f"task_p50_s, setup_s on {_SHIPPED}"),
    ("cli.check_defs.s", "s", "lower", f"task_p50_s, setup_s on {_SHIPPED}"),
    ("cli.build_objects.calls", "count", "lower", f"task_p50_s, setup_s on {_SHIPPED}"),
    ("constructions.self_s", "s", "lower", f"task_p50_s, setup_s on {_SHIPPED}"),
    ("bialg.axioms.s", "s", "lower", f"task_p50_s, setup_s on {_SHIPPED}"),
    ("gns.self_s", "s", "lower", f"task_p50_s, setup_s on {_SHIPPED}"),
    ("ncpoly.self_s", "s", "lower", f"top_task_s on {_SUB}"),
    ("ncpoly.normal_form.calls", "count", "lower", f"top_task_s on {_SUB}"),
    ("ncpoly.multiply.calls", "count", "lower", f"top_task_s on {_SUB}"),
    ("bialg.self_s", "s", "lower", f"top_task_s on {_SUB}"),
    ("bialg.coproduct.calls", "count", "lower", f"top_task_s on {_SUB}"),
    ("subcoalg.self_s", "s", "lower", f"top_task_s, tasks_per_s on {_SUB}"),
    ("subcoalg.extract.s", "s", "lower", f"top_task_s, tasks_per_s on {_SUB}"),
    ("subcoalg.extract.calls", "count", "lower", f"top_task_s, tasks_per_s on {_SUB}"),
    ("subcoalg.dim_max", "count", "lower", f"top_task_s, tasks_per_s on {_SUB}"),
    ("subcoalg.dim_sum", "count", "lower", f"top_task_s, tasks_per_s on {_SUB}"),
    ("subcoalg.series.s", "s", "lower", f"top_task_s, tasks_per_s on {_SUB}"),
    ("subcoalg.errors", "count", "lower", f"success_rate on {_SUB}"),
    ("probes.failed", "count", "lower",
     f"success_rate on {_SUB}, {_FOCK} once a probe joins its workload"),
    ("subcoalg.conv_exp.calls", "count", "lower", f"tasks_per_s on {_GRAM}"),
    ("subcoalg.extract_per_conv_exp", "ratio", "lower", f"tasks_per_s on {_GRAM}"),
    ("gram.self_s", "s", "lower",
     f"top_task_s, tasks_per_s on {_GRAM}; tasks_per_s on {_SHIPPED}"),
    ("gram.gram.s", "s", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("gram.gram.calls", "count", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("gram.expand.s", "s", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("gram.factorized_terms", "count", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("gram.factor_evals", "count", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("gram.factor_evals_per_gram", "ratio", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("ncpoly.key.calls", "count", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("bialg.iterated_coproduct.s", "s", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("bialg.sweedler_terms", "count", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("gram.reverse_slope", "exponent", "lower", f"top_task_s, tasks_per_s on {_GRAM}"),
    ("fock.self_s", "s", "lower", f"tasks_per_s, top_task_s on {_FOCK}"),
    ("fock.inner.s", "s", "lower", f"tasks_per_s, top_task_s on {_FOCK}"),
    ("fock.inner_pairs", "count", "lower", f"tasks_per_s, top_task_s on {_FOCK}"),
    ("fock.product_process.s", "s", "lower", f"tasks_per_s, top_task_s on {_FOCK}"),
    ("fock.tensor_terms", "count", "lower", f"tasks_per_s, top_task_s on {_FOCK}"),
    ("fock.cross_path.s", "s", "lower", f"tasks_per_s, top_task_s on {_FOCK}"),
    ("fock.unitary.s", "s", "lower", f"tasks_per_s, top_task_s on {_FOCK}"),
    ("subcoalg.product_check.s", "s", "lower", f"tasks_per_s, top_task_s on {_FOCK}"),
    ("mem.rss_growth_per_task_mb", "MB/task", "lower", f"peak_rss_mb on {_SHIPPED}, {_GRAM}"),
    ("trace.overhead_ratio", "ratio", "higher",
     "none: tasks_per_s traced over untraced, the cost of tracing"),
)

# Sizes recorded from the results (or arguments) of traced calls, read from
# public attributes only.
SIZES = {
    "subcoalg.subcoalgebra_of": lambda args, sub: len(sub.basis),
    "gram.theta_expand": lambda args, vec: len(vec.terms),
    "gram.zeta_expand": lambda args, vec: len(vec.terms),
    "bialg.BialgebraSpec.iterated_coproduct": lambda args, exp: len(exp.terms),
    "fock.convolution_product_process": lambda args, ops: len(ops.terms),
    "fock.fock_inner": lambda args, _z: len(args[0].terms) * len(args[1].terms),
}


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(phase, top, setups):
    """The six end-to-end metrics of an untraced phase; times are scaled to
    the reference speed."""
    return {
        "tasks_per_s": phase.tasks_per_s(),
        "task_p50_s": statistics.median(r.scaled for r in phase.records),
        "top_task_s": statistics.median(r.scaled for r in phase.records if r.task == top),
        "peak_rss_mb": phase.peak_rss_mb,
        "success_rate": (phase.attempted() - phase.failed()) / phase.attempted(),
        "setup_s": statistics.median(setups),
    }


def samples(phase, workload, setup_walls):
    """Sample counts and unscaled wall times, for the record."""
    def median_of(task, scaled):
        return statistics.median(r.scaled if scaled else r.seconds
                                 for r in phase.records if r.task == task)

    return {
        "rounds": phase.rounds,
        "task_samples": phase.attempted(),
        "top_task": workload.top,
        "top_samples": sum(1 for r in phase.records if r.task == workload.top),
        "setup_samples": len(setup_walls),
        "task_median_s": {t.name: median_of(t.name, True) for t in workload.tasks},
        "wall": {
            "tasks_per_s": phase.tasks_per_s(scaled=False),
            "task_p50_s": statistics.median(r.seconds for r in phase.records),
            "top_task_s": median_of(workload.top, False),
            "setup_s": statistics.median(setup_walls),
            "reference_s": statistics.median(r.ref_s for r in phase.records),
        },
    }


def reverse_slope(phase, ladder):
    """Least-squares slope of log(median rung time) against log(n)."""
    if len(ladder) < 2:
        return 0.0
    xs = [math.log(n) for _task, n in ladder]
    ys = [math.log(statistics.median(r.scaled for r in phase.records if r.task == task))
          for task, _n in ladder]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def per_layer(tracer, untraced, traced, ladder):
    """Per-layer metrics: traced totals per round, times scaled to the
    reference speed like the end-to-end ones, plus the untraced-phase figures
    (memory growth, reverse slope) and the tracing overhead."""
    rounds = traced.rounds
    scale = traced.time_scale() / rounds
    st = tracer.stats

    def incl(*names):
        return sum(st[n].incl for n in names) * scale

    def calls(name):
        return st[name].calls / rounds

    def size(name):
        return tracer.sizes[name] / rounds

    factor_evals = tracer.edges[("gram.gram", "subcoalg.conv_exp")] / rounds
    rss = [r.rss_mb for r in untraced.records]
    out = {f"{layer}.self_s": tracer.layer_self(layer) * scale for layer in LAYERS}
    out.update({
        "cli.check_defs.s": incl("cli.check_defs"),
        "cli.build_objects.calls": calls("cli.build_objects"),
        "bialg.axioms.s": incl("bialg.check_bialgebra_axioms"),
        "ncpoly.normal_form.calls": calls("ncpoly.normal_form"),
        "ncpoly.multiply.calls": calls("ncpoly.multiply"),
        "bialg.coproduct.calls": calls("bialg.BialgebraSpec.coproduct"),
        "subcoalg.extract.s": incl("subcoalg.subcoalgebra_of"),
        "subcoalg.extract.calls": calls("subcoalg.subcoalgebra_of"),
        "subcoalg.dim_max": tracer.size_max["subcoalg.subcoalgebra_of"],
        "subcoalg.dim_sum": size("subcoalg.subcoalgebra_of"),
        "subcoalg.series.s": incl("subcoalg.conv_exp_series"),
        "subcoalg.errors": tracer.layer_errors("subcoalg") / rounds,
        "subcoalg.conv_exp.calls": calls("subcoalg.conv_exp"),
        "subcoalg.extract_per_conv_exp": _ratio(calls("subcoalg.subcoalgebra_of"),
                                                calls("subcoalg.conv_exp")),
        "gram.gram.s": incl("gram.gram"),
        "gram.gram.calls": calls("gram.gram"),
        "gram.expand.s": incl("gram.theta_expand", "gram.zeta_expand"),
        "gram.factorized_terms": size("gram.theta_expand") + size("gram.zeta_expand"),
        "gram.factor_evals": factor_evals,
        "gram.factor_evals_per_gram": _ratio(factor_evals, calls("gram.gram")),
        "ncpoly.key.calls": tracer.counters["ncpoly.NcPoly.key"] / rounds,
        "bialg.iterated_coproduct.s": incl("bialg.BialgebraSpec.iterated_coproduct"),
        "bialg.sweedler_terms": size("bialg.BialgebraSpec.iterated_coproduct"),
        "gram.reverse_slope": reverse_slope(untraced, ladder),
        "fock.inner.s": incl("fock.fock_inner"),
        "fock.inner_pairs": size("fock.fock_inner"),
        "fock.product_process.s": incl("fock.convolution_product_process"),
        "fock.tensor_terms": size("fock.convolution_product_process"),
        "fock.cross_path.s": incl("fock.cross_path_report"),
        "fock.unitary.s": incl("fock.unitary_product_evolution"),
        "subcoalg.product_check.s": incl("subcoalg.banach_product_check"),
        "mem.rss_growth_per_task_mb": _ratio(rss[-1] - rss[0], len(rss) - 1),
        "trace.overhead_ratio": traced.tasks_per_s() / untraced.tasks_per_s(),
    })
    return out
