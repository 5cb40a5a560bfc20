"""Metric names, units, and which end-to-end metric each layer metric should move.

End-to-end metrics come from untraced passes, per-layer metrics from the
traced run. A span metric ``<name>_s`` is the busy (self) time of span
``<name>`` summed over a pass, and ``<name>.calls`` how often it opened;
both are medians over the run's traced passes. Busy times leave out the
speed samples taken inside a span and are scaled like the end-to-end times
(see ``speed.py``). A layer that a workload never calls reads 0 there,
which is the prediction for that workload.
"""

from __future__ import annotations

import speed

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> the end-to-end metric and workloads it should move. Kernels
# and configurations are built inside the cli command, after set-up, so no
# span moves setup_s; that moves only with imports.
SPANS = {
    "series.kernels": "wall_s on suite, a little; barely sweep",
    "series.factor_through_pick": "wall_s on suite",
    "series.reciprocal_complement": "wall_s on suite (only the calls presets makes)",
    "operators.model_tuple": "wall_s on suite",
    "operators.random_coinvariant_compression": "wall_s on suite",
    "operators.defect_data": "wall_s on suite",
    "operators.quadratic_form_certificate": "wall_s on sweep (nearly all of it); not suite or wide",
    "dilation.build_dilation": "wall_s on suite and wide",
    "dilation.intertwining_residuals": "wall_s on suite and wide",
    "dilation.kernel_vector": "wall_s on suite and wide",
    "dilation.kernel_vector_action": "wall_s on suite and wide",
    "charfn.pointwise_identity_residual": "wall_s on suite (the largest span there) and wide",
    "charfn.evaluate_charfn": "wall_s on suite",
    "charfn.inverse_identity_residual": "wall_s on suite",
    "charfn.row_symbol_margin": "wall_s on suite",
    "charfn.build_charfn": "wall_s on suite and wide",
    "charfn.build_multiplier": "wall_s and peak_rss_mb on wide",
    "charfn.factorization_residual": "wall_s and peak_rss_mb on wide",
    "charfn.k_inner_subspace": "wall_s on wide (most of it) and suite",
    "charfn.functional_model": "wall_s and peak_rss_mb on wide",
    "charfn.align_factorizations": "wall_s on suite",
    "charfn.coincidence_residual": "wall_s on suite",
    "presets.configuration": "wall_s on suite, barely: its own time, children excluded",
    # self time: mostly the inline spectral norm behind multiplier_contraction
    "presets.run_configuration_checks": "wall_s and peak_rss_mb on wide; wall_s on suite",
    "presets.run_alignment_check": "wall_s on suite, barely: its own time, children excluded",
    "presets.run_coincidence_checks": "wall_s on suite, barely: its own time, children excluded",
    "presets.sample_points": "wall_s on suite",
}

# work counts, summed over a pass; they repeat exactly
COUNTS = {
    "operators.tuple_size": "tuple dimension, summed over build_charfn calls",
    "operators.certificate_window_dim": "window dimension, summed over certificates",
    "dilation.window_dim": "dilation window dimension, summed over build_dilation calls",
    "charfn.taylor_terms": "Taylor coefficients, summed over build_charfn calls",
    "charfn.domain_dim": "domain dimension, summed over build_charfn calls",
    "charfn.multiplier_entries": "multiplier matrix entries, summed over build_multiplier calls",
}

DERIVED = {
    "cli.untraced_s": ("s", "traced pass time minus its top-level spans: parsing, report assembly, writing"),
    # a pass varies by a few percent, so on short workloads this can read below zero
    "bench.trace_overhead_s": ("s", "median traced pass time minus median untraced pass time"),
    "fail_share": ("share", "failed operations over attempted operations in the run"),
}


def per_layer() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SPANS:
        out[f"{name}_s"] = "s"
        out[f"{name}.calls"] = "count"
    out.update({name: "count" for name in COUNTS})
    out.update({name: unit for name, (unit, _) in DERIVED.items()})
    return out


def span_totals(spans: list[dict], samples: list) -> dict[str, tuple[float, int]]:
    """Self time and call count per span name, less the speed samples taken in it.

    A span's self time is its duration minus the durations of its children.
    """
    durations = [s["end"] - s["start"] - sum(speed.within(samples, s["start"], s["end"])) for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            covered[s["parent"]] += d
    totals: dict[str, tuple[float, int]] = {}
    for s, d, c in zip(spans, durations, covered):
        busy, calls = totals.get(s["name"], (0.0, 0))
        totals[s["name"]] = (busy + d - c, calls + 1)
    return totals


def top_level_time(spans: list[dict], samples: list) -> float:
    return sum(
        s["end"] - s["start"] - sum(speed.within(samples, s["start"], s["end"]))
        for s in spans
        if s["parent"] is None
    )
