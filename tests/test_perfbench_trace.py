"""The benchmark's traced pass still finds the layer calls it times.

``perfbench/spans.py`` re-binds names in the ``cnpchar`` modules for a traced
run, and a name the program no longer has is skipped in silence: its span
then reads 0 in every benchmark record. These tests import ``spans`` from
``perfbench/`` (they read that directory and write nothing there) and run one
preset through the traced path, so a renamed or removed function shows here.
"""

import importlib
import sys
from pathlib import Path

import pytest

from cnpchar import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# bound in CALLS, but their functions have been gone since the tolerance-raising wrappers were removed
STALE = {("cnpchar.presets", "kernel_vector_action"), ("cnpchar.presets", "evaluate_charfn")}


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        for name in ("spans", "workloads"):
            sys.modules.pop(name, None)


def test_traced_preset_opens_every_layer_span(spans, tmp_path):
    tracer = spans.Tracer(0)
    with tracer.installed():
        code = cli.main(["charfn", "verify", "--preset", "k2_da_d1_n1", "--out", str(tmp_path / "report.json")])
    assert code == 0
    opened = {span["name"] for span in tracer.spans}
    assert {
        "charfn.build_multiplier",
        "charfn.factorization_residual",
        "dilation.build_dilation",
        "dilation.intertwining_residuals",
        "charfn.functional_model",
    } <= opened
    assert tracer.counts["charfn.multiplier_entries"] > 0
    assert tracer.counts["dilation.window_dim"] > 0


def test_every_bound_name_resolves_but_the_stale_two(spans):
    missing = {
        (owner.__module__ if isinstance(owner, type) else owner.__name__, attr)
        for owner, names in spans.CALLS.items()
        for attr in names
        if not hasattr(owner, attr)
    }
    assert missing == STALE
