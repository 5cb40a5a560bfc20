"""Spans for the traced pass: the program's own code path, with layer calls timed.

A traced pass runs the same command lines through ``cnpchar.cli.main`` as an
untraced one. For the life of the pass, ``Tracer.installed`` re-binds the
names through which ``cli`` and ``presets`` call into each layer (and
``MonomialWindow.kernel_vector`` on its class) to wrappers that open a span
named ``<module>.<function>`` and call the original. Nothing else changes,
so the traced pass reproduces the untraced verdicts by construction.

Work counts are read from the public attributes of the objects the wrapped
calls return. The wrapper around ``quadratic_form_certificate`` also checks
each sweep certificate against its closed form with exact ``Fraction``
equality. Spans stay in memory; the child process writes them out at the end.

Code that sits inline in ``presets.run_configuration_checks`` (the spectral
norm behind ``multiplier_contraction`` and the left-hand side of the kernel
vector identity) reads as that function's own (self) time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from fractions import Fraction

from cnpchar import cli, dilation, presets, series
from cnpchar.multiindex import count_up_to_degree

from workloads import certificate_closed_form, flag

KERNELS = "series.kernels"

# where a name is looked up when the program calls it -> {name: span}
CALLS = {
    presets: {
        "bergman_kernel": KERNELS,
        "cauchy_product": KERNELS,
        "dirichlet_kernel": KERNELS,
        "drury_arveson_kernel": KERNELS,
        "szego_kernel": KERNELS,
        "factor_through_pick": "series.factor_through_pick",
        "reciprocal_complement": "series.reciprocal_complement",
        "model_tuple": "operators.model_tuple",
        "random_coinvariant_compression": "operators.random_coinvariant_compression",
        "defect_data": "operators.defect_data",
        "build_dilation": "dilation.build_dilation",
        "intertwining_residuals": "dilation.intertwining_residuals",
        "kernel_vector_action": "dilation.kernel_vector_action",
        "build_charfn": "charfn.build_charfn",
        "inverse_identity_residual": "charfn.inverse_identity_residual",
        "row_symbol_margin": "charfn.row_symbol_margin",
        "evaluate_charfn": "charfn.evaluate_charfn",
        "pointwise_identity_residual": "charfn.pointwise_identity_residual",
        "build_multiplier": "charfn.build_multiplier",
        "factorization_residual": "charfn.factorization_residual",
        "k_inner_subspace": "charfn.k_inner_subspace",
        "functional_model": "charfn.functional_model",
        "align_factorizations": "charfn.align_factorizations",
        "coincidence_residual": "charfn.coincidence_residual",
        "configuration": "presets.configuration",
        "sample_points": "presets.sample_points",
        "run_alignment_check": "presets.run_alignment_check",
        "run_coincidence_checks": "presets.run_coincidence_checks",
    },
    cli: {
        "run_configuration_checks": "presets.run_configuration_checks",
        "kernel_from_spec": KERNELS,
        "factor_through_pick": "series.factor_through_pick",
        "model_tuple": "operators.model_tuple",
        "defect_data": "operators.defect_data",
        "build_charfn": "charfn.build_charfn",
        "quadratic_form_certificate": "operators.quadratic_form_certificate",
    },
    # cmd_impossibility imports bergman_kernel from series when it runs
    series: {"bergman_kernel": KERNELS},
    dilation.MonomialWindow: {"kernel_vector": "dilation.kernel_vector"},
}


class Tracer:
    """Spans and work counts of one pass, kept in memory."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.argv: list[str] = []  # the command line running now
        self.mismatches = 0  # certificates that differ from their closed form
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({})
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = {
                "name": name,
                "layer": name.split(".")[0],
                "start": start,
                "end": end,
                "parent": parent,
                "pass": self.pass_id,
            }

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrapped(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after:
                after(self, out, *args, **kwargs)
            return out

        return call

    @contextmanager
    def installed(self):
        """Re-bind every name of ``CALLS`` to its spanned wrapper, and restore it after.

        A name the program no longer has is left out, and its span reads 0.
        """
        originals = [
            (owner, attr, getattr(owner, attr))
            for owner, names in CALLS.items()
            for attr in names
            if hasattr(owner, attr)
        ]
        for owner, attr, fn in originals:
            setattr(owner, attr, self.wrapped(CALLS[owner][attr], fn))
        try:
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)


def _charfn_counts(tracer: Tracer, cfd, *args, **kwargs):
    tracer.count("operators.tuple_size", cfd.ops.size)
    tracer.count("charfn.taylor_terms", len(cfd.taylor))
    tracer.count("charfn.domain_dim", cfd.domain_dim)


def _dilation_counts(tracer: Tracer, dil, *args, **kwargs):
    tracer.count("dilation.window_dim", dil.window.dim)


def _multiplier_counts(tracer: Tracer, mult, *args, **kwargs):
    tracer.count("charfn.multiplier_entries", mult.matrix.size)


def _certificate_check(tracer: Tracer, values, kernel, form_kernel, base_degree, vectors, window_degree, **_):
    """Count the window and compare the certificate with its closed form, exactly."""
    tracer.count("operators.certificate_window_dim", count_up_to_degree(kernel.dim, window_degree))
    m, n = int(flag(tracer.argv, "--m")), int(flag(tracer.argv, "--n"))
    value = values[0]
    if not (isinstance(value, Fraction) and value == certificate_closed_form(m, n, base_degree)):
        tracer.mismatches += 1


# span -> what runs after each call, given the tracer, the result and the call's arguments
AFTER = {
    "charfn.build_charfn": _charfn_counts,
    "dilation.build_dilation": _dilation_counts,
    "charfn.build_multiplier": _multiplier_counts,
    "operators.quadratic_form_certificate": _certificate_check,
}
