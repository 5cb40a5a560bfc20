"""Named configurations and the reusable verification checks.

A configuration bundles a kernel factorization with a concrete pure tuple
(a graded multiplication model, a seeded co-invariant compression of one, or
a hand-built nilpotent tuple). It works out the degree windows every
construction step reads from that tuple and the CNP factor, by one rule
(``Configuration``); the command line builds its custom configurations the
same way. The same configurations drive the command-line suite and the
acceptance tests, so residuals reported by either are comparable.

All randomness (sample points, compression seeds, conjugating orthogonals)
is drawn from generators seeded by the suite seed and the configuration
name, which makes reports reproducible and independent of execution order.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .charfn import (
    CharFnData,
    EmptyKInnerError,
    align_factorizations,
    build_charfn,
    build_multiplier,
    coincidence_residual,
    evaluation_gap,
    factorization_residual,
    functional_model,
    inverse_identity_residual,
    k_inner_subspace,
    pointwise_identity_residual,
    row_symbol_margin,
)
from .dilation import build_dilation, intertwining_residuals, kernel_vector_gap
from .operators import (
    OperatorTuple,
    defect_data,
    model_tuple,
    random_coinvariant_compression,
)
from .series import (
    KernelFactorization,
    KernelSeries,
    bergman_kernel,
    cauchy_product,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    reciprocal_complement,
    szego_kernel,
)

TRUNCATION = 48


# The depth nu assumed for a tuple that states no nilpotency bound. ROADMAP
# item 1 replaces it with a depth sized from a tail bound of the tuple.
ASSUMED_DEGREE = 9


@dataclass(eq=False)
class Configuration:
    """One entry of the verification matrix, with the degree windows its construction reads.

    The windows come from one rule, set once from the tuple and the factor.
    With nu the tuple's nilpotency bound (``ASSUMED_DEGREE`` when it states
    none), the source degree is nu + 2 and the windows are deep enough for
    1e-8 pointwise residuals at the sample radii. The row-support window only
    needs nu + 3 when the pick factor's b-sequence is finitely supported
    below that; infinitely supported factors (Dirichlet-like) need the tail
    of b_n |z|^(2n) below tolerance. The constant window bounds the g-tail
    the same way, and quotient coefficients can grow polynomially (g_n = n + 1
    for the cubed kernel through DA), so the windows and the sample radii are
    sized together: with |z| |w| <= 0.24 a depth-16 tail of (n+1) t^n stays
    under 1e-9, an order below the composite tolerance. The deep windows are
    16 at d = 1 and 14 above. ``degree_cap``, when set, replaces both caps.
    A cap outside 1..the series truncation raises ValueError.
    """

    name: str
    factorization: KernelFactorization
    ops: OperatorTuple
    sample_scale: float = 0.5
    description: str = ""
    degree_cap: Optional[int] = None

    def __post_init__(self):
        self.dim = self.ops.num_vars
        nu = ASSUMED_DEGREE if self.ops.nilpotency_bound is None else self.ops.nilpotency_bound
        b = reciprocal_complement(self.pick_factor)
        deep = 16 if self.dim == 1 else 14
        self.support_cap = nu + 3 if b.last_nonzero <= nu + 3 else deep
        self.constant_cap = deep
        if self.degree_cap is not None:
            self.support_cap = self.constant_cap = self.degree_cap
        self.source_degree = nu + 2
        truncation = min(b.truncation, self.factorization.positive_part.truncation)
        if not all(1 <= cap <= truncation for cap in (self.support_cap, self.constant_cap)):
            raise ValueError(
                f"degree caps {self.support_cap}, {self.constant_cap} outside 1..{truncation}, the series truncation"
            )

    @property
    def kernel(self) -> KernelSeries:
        return self.factorization.kernel

    @property
    def pick_factor(self) -> KernelSeries:
        return self.factorization.pick_factor


@functools.cache
def _kernel_named(kind: str, dim: int) -> KernelSeries:
    """One kernel object per (kind, dim), so its b and float view are computed once.

    Kernels are frozen, so sharing them is safe.
    """
    if kind == "szego":
        return szego_kernel(dim, TRUNCATION)
    if kind == "da":
        return drury_arveson_kernel(dim, TRUNCATION)
    if kind == "dirichlet":
        return dirichlet_kernel(dim, TRUNCATION)
    if kind == "da*dirichlet":
        return cauchy_product(_kernel_named("da", dim), _kernel_named("dirichlet", dim))
    if kind.startswith("bergman"):
        return bergman_kernel(int(kind[7:]), dim, TRUNCATION)
    raise ValueError(f"unknown kernel name {kind!r}")


@functools.cache
def _factorization(k_kind: str, s_kind: str, dim: int) -> KernelFactorization:
    """One verified factorization per (kernel, CNP factor, dim), shared by every configuration.

    The factorization belongs to the kernel pair, not to the tuple, and is
    frozen like its kernels; its Cauchy check runs once per pair.
    """
    return factor_through_pick(_kernel_named(k_kind, dim), _kernel_named(s_kind, dim))


def _model_config(name, k_kind, s_kind, dim, model_degree, compress_seed) -> Configuration:
    fac = _factorization(k_kind, s_kind, dim)
    t = model_tuple(fac.kernel, dim, model_degree, mode="float")
    if compress_seed is not None:
        t = random_coinvariant_compression(t, np.random.default_rng(compress_seed))
    return Configuration(
        name=name,
        factorization=fac,
        ops=t,
        sample_scale=0.45 if dim >= 2 else 0.48,
        description="" if compress_seed is None else "random co-invariant compression",
    )


def _szego_config(name, tuple_for, description) -> Configuration:
    """A hand-built tuple for the Szego kernel factored through itself."""
    fac = _factorization("szego", "szego", 1)
    return Configuration(name=name, factorization=fac, ops=tuple_for(fac.kernel), description=description)


def _two_cells(kernel: KernelSeries) -> OperatorTuple:
    mat = np.zeros((4, 4))
    mat[1, 0] = 1.0
    mat[3, 2] = 1.0
    return OperatorTuple((mat,), None, None, 1, kernel)


# name -> (tuple built from the Szego kernel, description)
_SZEGO_TUPLES = {
    "jordan": (
        lambda k: model_tuple(k, 1, 1, mode="float"),
        "2x2 nilpotent Jordan cell; theta(z) = z^2, all identities exact",
    ),
    "two_cells": (_two_cells, "direct sum of two Jordan cells; defect rank 2"),
    "nonpure": (
        lambda k: OperatorTuple((np.array([[1.0]]),), None, None, None, k),
        "the 1x1 isometry: a 1/k-contraction that is not pure",
    ),
}

# name -> (kernel, CNP factor, d, model degree, compression seed)
_MODELS = {
    "k2_da_d1_n1": ("bergman2", "da", 1, 1, None),
    "k2_da_d1_n2": ("bergman2", "da", 1, 2, None),
    "k2_da_d1_n3": ("bergman2", "da", 1, 3, None),
    "k2_da_d2_n1": ("bergman2", "da", 2, 1, None),
    "k2_da_d2_n2": ("bergman2", "da", 2, 2, None),
    "k2_da_d2_n3": ("bergman2", "da", 2, 3, None),
    "k3_da_d1_n1": ("bergman3", "da", 1, 1, None),
    "k3_da_d1_n2": ("bergman3", "da", 1, 2, None),
    "k3_da_d2_n1": ("bergman3", "da", 2, 1, None),
    "dadir_da_d1_n2": ("da*dirichlet", "da", 1, 2, None),
    "dadir_da_d2_n1": ("da*dirichlet", "da", 2, 1, None),
    "dadir_dir_d1_n1": ("da*dirichlet", "dirichlet", 1, 1, None),
    "k2_da_d1_n3_c": ("bergman2", "da", 1, 3, 1031),
    "k2_da_d2_n2_c": ("bergman2", "da", 2, 2, 1032),
    "k3_da_d1_n2_c": ("bergman3", "da", 1, 2, 1033),
    "dadir_da_d1_n2_c": ("da*dirichlet", "da", 1, 2, 1034),
}

CONFIG_NAMES = tuple(_SZEGO_TUPLES) + tuple(_MODELS)

# the verification matrix exercised by the suite and the acceptance tests
SUITE_CONFIGS = tuple(name for name in CONFIG_NAMES if name != "nonpure")


def configuration(name: str) -> Configuration:
    with phase(f"configuration {name}"):
        if name in _SZEGO_TUPLES:
            return _szego_config(name, *_SZEGO_TUPLES[name])
        if name in _MODELS:
            return _model_config(name, *_MODELS[name])
    raise ValueError(f"unknown configuration {name!r}; known: {', '.join(CONFIG_NAMES)}")


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str  # pass | fail | certificate-only
    residual: Optional[float]
    exact: Optional[bool]
    elapsed: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "residual": self.residual,
            "exact": self.exact,
            "elapsed": self.elapsed,
        }


def _check(name, residual, tol, exact=None) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, "pass" if residual <= tol else "fail", residual, exact, 0.0)


@contextmanager
def phase(label: str):
    """Raise a ``LinAlgError`` that leaves the block again, with numpy's message followed by ``(in <label>)``."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{exc} (in {label})") from exc


class _Recorder:
    """Check results in the order they were added, with the seconds spent on each.

    ``timing(name)`` adds the run time of its block to check ``name``. A block
    may run ahead of its check, when the check only reads what an earlier
    construction stored. A ``LinAlgError`` that leaves the block is raised
    again as ``phase`` raises it, in ``check <name>``.
    """

    def __init__(self):
        self.checks: list[CheckResult] = []
        self._spent: dict[str, float] = {}

    @contextmanager
    def timing(self, name: str):
        start = time.perf_counter()
        try:
            with phase(f"check {name}"):
                yield
        finally:
            self._spent[name] = self._spent.get(name, 0.0) + time.perf_counter() - start

    def results(self) -> list[CheckResult]:
        return [replace(c, elapsed=self._spent.get(c.name, 0.0)) for c in self.checks]


def sample_points(rng: np.random.Generator, count: int, dim: int, scale: float = 0.5) -> np.ndarray:
    """A (count, dim) complex128 stack of points in the ball of radius ``scale``, seeded.

    Each point draws its 2 dim normals (the real parts, then the imaginary
    parts) and then its radius factor in [0.3, 1). The scaling v / |v| *
    scale * factor runs once over the stack, with |v| formed as
    ``np.linalg.norm`` forms it: a BLAS dot of the real parts plus one of the
    imaginary parts, each a (1, dim) @ (dim, 1) product.
    """
    draws = [(rng.standard_normal(2 * dim), rng.uniform(0.3, 1.0)) for _ in range(count)]
    x = np.array([normals for normals, _ in draws]).reshape(count, 2 * dim)
    v = x[:, :dim] + 1j * x[:, dim:]
    sq = v.real[:, None, :] @ v.real[:, :, None] + v.imag[:, None, :] @ v.imag[:, :, None]
    return v / np.sqrt(sq[:, 0]) * scale * np.array([factor for _, factor in draws])[:, None]


def config_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed] + list(name.encode()))


# default tolerances: single-step identities, composite constructions
TOL_SINGLE = 1e-10
TOL_COMPOSITE = 1e-8
TOL_BLOCK = 1e-9
TOL_MODEL = 1e-9

# sample sizes: points per pointwise check, (z, w) pairs for the Gram identity, alignment points
POINT_COUNT = 20
GRAM_PAIRS = 50
ALIGNMENT_SAMPLES = 30


def run_configuration_checks(
    config: Configuration,
    seed: int = 0,
    composite_tol: float = TOL_COMPOSITE,
) -> tuple[list[CheckResult], Optional[CharFnData]]:
    """Build everything for one configuration and run the invariant suite.

    Returns the checks and the characteristic function they read. Purity
    failure aborts the construction; it is reported as the single failing
    check, with no characteristic function, so the caller can exit nonzero
    with the residual in hand.
    Each check's elapsed time covers the work it needs first: the
    characteristic-function build counts toward ``defect_embedding_gram``,
    the first check that reads it, and the partition Gram M_theta M_theta^*
    toward ``multiplier_contraction``, whose norm is read from it.
    """
    rng = config_rng(seed, config.name)
    rec = _Recorder()
    with rec.timing("purity"):
        dd = defect_data(config.ops, config.kernel, config.pick_factor)
        verdict = "pass" if dd.pure else "fail"
        rec.checks.append(CheckResult("purity", verdict, float(dd.purity_residual), dd.purity_exact, 0.0))
    if rec.checks[-1].verdict == "fail":
        return rec.results(), None

    with rec.timing("defect_embedding_gram"):
        cfd = build_charfn(
            dd, config.factorization, support_cap=config.support_cap, constant_cap=config.constant_cap
        )
    with rec.timing("dilation_isometry"):
        # the one window rule: the multiplier reads its source degree back off this window's degree
        dil = build_dilation(dd, config.source_degree + cfd.taylor.max_degree)
        rec.checks.append(_check("dilation_isometry", dil.isometry_residual, TOL_SINGLE))

    with rec.timing("dilation_intertwining"):
        intertwining = max(intertwining_residuals(dil))
        rec.checks.append(_check("dilation_intertwining", intertwining, TOL_SINGLE))

    with rec.timing("kernel_vector_identity"):
        points = sample_points(rng, POINT_COUNT, config.dim, config.sample_scale)
        fibers = [rng.standard_normal(dil.fiber_dim) for _ in points]
        fibers = np.array([f / np.linalg.norm(f) for f in fibers])
        rec.checks.append(_check("kernel_vector_identity", kernel_vector_gap(dil, points, fibers)[1], TOL_SINGLE))

    with rec.timing("defect_embedding_gram"):
        rec.checks.append(
            _check(
                "defect_embedding_gram",
                cfd.diagnostics["embedding_gram_residual"],
                TOL_BLOCK,
                cfd.diagnostics.get("embedding_gram_exact"),
            )
        )

    with rec.timing("block_unitarity"):
        block = max(
            cfd.diagnostics["block_relation_row"],
            cfd.diagnostics["block_relation_cross"],
            cfd.diagnostics["block_relation_e"],
            cfd.diagnostics["unitary_gram"],
            cfd.diagnostics["unitary_cogram"],
        )
        rec.checks.append(_check("block_unitarity", block, TOL_BLOCK))

    with rec.timing("series_inverse_identity"):
        points = sample_points(rng, POINT_COUNT, config.dim, config.sample_scale)
        residual = inverse_identity_residual(cfd, points)
        rec.checks.append(_check("series_inverse_identity", residual, TOL_SINGLE))

    with rec.timing("row_symbol_strict_contraction"):
        margin, mismatch = row_symbol_margin(cfd, points)
        strict_ok = margin > 0 and mismatch <= composite_tol
        rec.checks.append(
            CheckResult(
                "row_symbol_strict_contraction",
                "pass" if strict_ok else "fail",
                float(mismatch),
                None,
                0.0,
            )
        )

    with rec.timing("theta_taylor_cross_check"):
        points = sample_points(rng, 5, config.dim, config.sample_scale)
        gap = evaluation_gap(cfd, points)[1]
        rec.checks.append(_check("theta_taylor_cross_check", gap, TOL_SINGLE))

    with rec.timing("pointwise_gram_identity"):
        pairs = list(
            zip(
                sample_points(rng, GRAM_PAIRS, config.dim, config.sample_scale),
                sample_points(rng, GRAM_PAIRS, config.dim, config.sample_scale),
            )
        )
        residual = pointwise_identity_residual(cfd, pairs)
        rec.checks.append(_check("pointwise_gram_identity", residual, composite_tol))

    with rec.timing("multiplier_contraction"):
        mult = build_multiplier(cfd, dil)
        fr = factorization_residual(cfd, dil, mult)
        rec.checks.append(_check("multiplier_contraction", max(0.0, fr.multiplier_norm - 1.0), TOL_SINGLE))

    with rec.timing("projection_partition"):
        rec.checks.append(_check("projection_partition", fr.restricted, composite_tol, fr.restricted_exact))

    with rec.timing("k_inner_space"):
        try:
            rec.checks.append(_check("k_inner_space", k_inner_subspace(cfd).shift_residual, TOL_BLOCK))
        except EmptyKInnerError:
            rec.checks.append(CheckResult("k_inner_space", "fail", None, None, 0.0))

    with rec.timing("functional_model"):
        if fr.restricted > TOL_COMPOSITE:
            # Ran V is not the complement of Ran M_theta, so there is no model space to compress to
            rec.checks.append(CheckResult("functional_model", "fail", fr.restricted, None, 0.0))
        else:
            equality = functional_model(cfd, dil, fr)[1]
            rec.checks.append(_check("functional_model", max(equality, intertwining), TOL_MODEL))

    return rec.results(), cfd


def run_alignment_check(seed: int = 0) -> CheckResult:
    """Gram alignment of the two CNP factorizations of the DA*Dirichlet kernel."""
    rec = _Recorder()
    with rec.timing("alignment_two_factorizations"):
        dim = 1
        fac_da = _factorization("da*dirichlet", "da", dim)
        fac_dir = _factorization("da*dirichlet", "dirichlet", dim)
        kernel = fac_da.kernel
        t = model_tuple(kernel, dim, 1, mode="float")
        dd_da, dd_dir = defect_data(t, kernel, fac_da.pick_factor), defect_data(t, kernel, fac_dir.pick_factor)
        cfd1 = build_charfn(dd_da, fac_da, support_cap=14, constant_cap=14)
        cfd2 = build_charfn(dd_dir, fac_dir, support_cap=14, constant_cap=14)
        rng = config_rng(seed, "alignment")
        points = sample_points(rng, ALIGNMENT_SAMPLES, dim, 0.5)
        alignment = align_factorizations(cfd1, cfd2, points, source_degree=18)
        residual = max(alignment.gram_residual, alignment.reference_residual)
        rec.checks.append(_check("alignment_two_factorizations", residual, TOL_COMPOSITE))
    return rec.results()[0]


def run_coincidence_checks(seed: int = 0) -> list[CheckResult]:
    """Conjugates coincide (reported upper bound <= 1e-6); distinct Jordan structures do not (lower >= 1e-3)."""
    rec = _Recorder()
    with rec.timing("coincidence_conjugated"):
        fac = _factorization("bergman2", "da", 1)
        kernel, da = fac.kernel, fac.pick_factor
        t = model_tuple(kernel, 1, 2, mode="float")
        rng = config_rng(seed, "coincidence")
        w = np.linalg.qr(rng.standard_normal((t.size, t.size)))[0]
        conjugated = OperatorTuple(
            tuple(w.T @ m @ w for m in t.mats), None, None, t.nilpotency_bound, kernel
        )
        cfd = build_charfn(defect_data(t, kernel, da), fac, support_cap=5, constant_cap=10)
        cfd_conj = build_charfn(defect_data(conjugated, kernel, da), fac, support_cap=5, constant_cap=10)
        _, upper = coincidence_residual(cfd, cfd_conj)
        rec.checks.append(_check("coincidence_conjugated", upper, 1e-6))

    with rec.timing("coincidence_distinct"):
        jordan = configuration("two_cells")
        chain = np.zeros((4, 4))
        chain[1, 0] = 1.0
        chain[2, 1] = 1.0
        other = OperatorTuple((chain,), None, None, 3, jordan.kernel)
        kernel, pick, fac = jordan.kernel, jordan.pick_factor, jordan.factorization
        cfd_a = build_charfn(defect_data(jordan.ops, kernel, pick), fac, support_cap=6, constant_cap=6)
        cfd_b = build_charfn(defect_data(other, kernel, pick), fac, support_cap=6, constant_cap=6)
        lower, _ = coincidence_residual(cfd_a, cfd_b)
        rec.checks.append(CheckResult("coincidence_distinct", "pass" if lower >= 1e-3 else "fail", lower, None, 0.0))
    return rec.results()
