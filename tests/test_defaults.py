import ast
from pathlib import Path

# Every defaulted parameter and dataclass field in src/cnpchar, as module.qualname.name.
# A value that no caller varies is a module constant instead; each entry here
# has a caller (or a test) that sets it to something else, or is an optional input.
KEPT = {
    # optional inputs: absent means "none given" or "derive it"
    "_linalg.adjoint.weights",
    "cli._certificate.exact",
    "cli._environment.seed",
    "cli.main.argv",
    "operators.OperatorTuple.weights",
    "operators.OperatorTuple.basis_labels",
    "operators.OperatorTuple.nilpotency_bound",
    "operators.OperatorTuple.kernel",
    "operators.conjugated_sum.middle",
    "operators.defect_data.pick_factor",
    "presets._check.exact",
    "presets.Configuration.description",
    "presets.Configuration.degree_cap",
    # the arithmetic: exact or float, both in use
    "_linalg.Scalars.zeros.dtype",
    "_linalg.Scalars.eye.dtype",
    "dilation.MonomialWindow.__init__.scalars",
    "multiindex.BlockSpace.lift.scalars",
    "operators.model_tuple.mode",
    # depths and sizes that callers set to other values
    "presets.Configuration.sample_scale",
    "presets.sample_points.scale",
    "series.bergman_kernel.truncation",
    "series.drury_arveson_kernel.truncation",
    "series.szego_kernel.truncation",
    "series.dirichlet_kernel.truncation",
    "series.KernelSeries.evaluate.truncated",
    # the suite seed and the tolerances that --seed and --tol set
    "presets.run_configuration_checks.seed",
    "presets.run_alignment_check.seed",
    "presets.run_coincidence_checks.seed",
    "presets.run_configuration_checks.composite_tol",
    "series.is_complete_pick.tol",
    "series.is_positive_quotient.tol",
    "series.factor_through_pick.tol",
    "series.KernelFactorization.tolerance",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    names = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(n, ast.Name) and n.id == "dataclass" for n in names)


def _defaulted(node, prefix: str):
    """module-relative names of the defaulted parameters and dataclass fields under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, args = prefix + child.name, child.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                yield f"{name}.{arg.arg}"
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{name}.{arg.arg}"
            yield from _defaulted(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            name = prefix + child.name
            if _is_dataclass(child):
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        yield f"{name}.{stmt.target.id}"
            yield from _defaulted(child, name + ".")
        else:
            yield from _defaulted(child, prefix)


def test_settable_values_are_the_kept_ones():
    """No defaulted parameter or dataclass field in src/cnpchar beyond ``KEPT``.

    The operator series stop at the kernel's truncation, and the tolerances,
    cutoffs and sample counts that no caller varies are module constants
    (``operators.STOP_TOL``, ``_linalg.RANK_CUTOFF``, ``presets.POINT_COUNT``
    and the like), so none of them can be set per call.
    """
    src = Path(__file__).parents[1] / "src" / "cnpchar"
    found = [
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in _defaulted(ast.parse(path.read_text()), "")
    ]
    assert len(found) == len(set(found))
    assert set(found) == KEPT
