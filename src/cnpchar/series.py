"""Coefficient calculus for unitarily invariant kernels on the unit ball.

A kernel k(z, w) = sum_n a_n <z, w>^n with a_0 = 1 and a_n > 0 is stored as
its truncated coefficient sequence. Two scalar backends coexist: exact
``fractions.Fraction`` entries (default for the built-in kernels, so that
every coefficient identity can be asserted exactly) and plain floats. Float
paths read a series' float view (``floats``, built once per series), so
they do no ``Fraction`` arithmetic.

The signed sequence b_n defined by

    sum_{n>=1} b_n t^n = 1 - 1 / (sum_{n>=0} a_n t^n)

drives most of the operator theory downstream: non-negativity of all b_n is
equivalent to the irreducible complete Nevanlinna-Pick property for this
class of kernels, and the multi-index lifts

    a_alpha = a_|alpha| * multinomial(alpha),   b_alpha likewise

are the coefficients appearing in every operator series; a label set lifts
them all at once (``multiindex.BlockSpace.lift``). Products of two
kernels correspond exactly to Cauchy products of the one-variable
sequences, which is what makes the one-variable calculus sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ._linalg import complex_array, point_stack
from .multiindex import MultiIndex, degree, multinomial

Scalar = Union[Fraction, int, float]

DEFAULT_TRUNCATION = 32


class FactorizationError(ValueError):
    """Raised when a claimed kernel factorization fails coefficientwise."""


def _is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


@dataclass(frozen=True)
class RealSeries:
    """A truncated signed coefficient sequence c_0..c_N in one variable.

    Carries the ambient ball dimension so multi-index lifts are available via
    :meth:`coeff`. No sign or normalization constraints.
    """

    coefficients: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not self.coefficients:
            raise ValueError("empty coefficient sequence")

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    @property
    def exact(self) -> bool:
        return all(_is_exact(c) for c in self.coefficients)

    def coeff_1d(self, n: int):
        if n < 0 or n > self.truncation:
            raise ValueError(f"degree {n} beyond truncation {self.truncation}")
        return self.coefficients[n]

    def coeff(self, alpha: Optional[MultiIndex]):
        """Multi-index lift c_alpha = c_|alpha| * multinomial(alpha); 0 off the cone."""
        if alpha is None:
            return 0
        if len(alpha) != self.dim:
            raise ValueError(f"multi-index dimension {len(alpha)} != {self.dim}")
        return self.coeff_1d(degree(alpha)) * multinomial(alpha)

    @cached_property
    def floats(self):
        """The same series (and kind of series) with float coefficients, built once.

        Not a field, so equality, hashing and repr ignore it.
        """
        return replace(self, coefficients=tuple(float(c) for c in self.coefficients))


class KernelValue(NamedTuple):
    value: Scalar
    tail_bound: float


@dataclass(frozen=True)
class KernelSeries(RealSeries):
    """A unitarily invariant kernel sum_n a_n <z,w>^n, truncated at order N.

    Invariants enforced at construction: a_0 = 1 and a_n > 0 for every stored
    coefficient. ``radius_one_declared`` records the (unverifiable at finite
    truncation) assumption that the power series has radius of convergence 1;
    the built-in kernels declare it.
    """

    radius_one_declared: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.coefficients[0] != 1:
            raise ValueError(f"a_0 must be 1, got {self.coefficients[0]}")
        for n, a in enumerate(self.coefficients):
            if not _is_exact(a) and not math.isfinite(a):
                raise ValueError(f"coefficient a_{n} = {a} is not finite")
            if not a > 0:
                raise ValueError(f"coefficient a_{n} = {a} is not strictly positive")

    @cached_property
    def b(self) -> RealSeries:
        """The sequence b with sum_{n>=1} b_n t^n = 1 - 1/k, stored as b_0 = 0, b_1, ...

        Computed on first use from the coefficients c of 1/k (c_0 = 1,
        c_n = -sum_{i=1}^{n} a_i c_{n-i}, b_n = -c_n), exactly in rational mode.
        Not a field, so equality, hashing and repr ignore it.
        """
        a = self.coefficients
        inv = [a[0] ** 0]  # one of the right scalar type
        for n in range(1, len(a)):
            inv.append(-sum(a[i] * inv[n - i] for i in range(1, n + 1)))
        b = [0 * inv[0]] + [-c for c in inv[1:]]
        return RealSeries(tuple(b), self.dim)

    def monomial_norm_sq(self, alpha: MultiIndex):
        """Squared norm of z^alpha in the kernel's space: 1 / a_alpha."""
        a = self.coeff(alpha)
        return Fraction(1, 1) / a if _is_exact(a) else 1.0 / a

    def evaluate(self, z: Sequence, w: Sequence, truncated: bool = False) -> KernelValue:
        """Partial sum of the kernel at a pair of points inside the ball, or pairwise along two stacks.

        For (d,) points the value and the tail bound are scalars; for two
        (P, d) stacks they are (P,) arrays, pair by pair. The sum runs Horner
        over the exact coefficients when every coordinate is rational, else
        over the float view, with complex products in real arithmetic so that
        each pair rounds as a scalar evaluation would. The tail bound is a
        geometric estimate from the largest observed coefficient ratio; it is
        heuristic in that ratios beyond the truncation are assumed not to
        exceed the observed maximum. With ``truncated=True`` the partial sum
        is the requested semantics and the tail bound is reported as 0.
        """
        zs, single = point_stack(z)
        ws = point_stack(w)[0]
        if len(zs) != len(ws):
            raise ValueError("point stacks differ in length")
        if any(len(p) != self.dim for p in zs + ws):
            raise ValueError("point dimension mismatch")
        if any(_norm_sq(p) >= 1 for p in zs + ws):
            raise ValueError("point on or outside the unit sphere")
        t = _inner_products(zs, ws)
        coeffs = self.coefficients if t.dtype == object else self.floats.coefficients
        if t.dtype == complex:
            vr, vi = np.full(len(t), coeffs[-1]), np.zeros(len(t))
            for a in reversed(coeffs[:-1]):
                vr, vi = vr * t.real - vi * t.imag + a, vr * t.imag + vi * t.real
            value = complex_array(vr, vi)
        else:
            value = np.full(len(t), coeffs[-1], dtype=t.dtype)
            for a in reversed(coeffs[:-1]):
                value = value * t + a
        if truncated:
            tail = np.zeros(len(t))
        else:
            floats = self.floats.coefficients
            growth = max(floats[n + 1] / floats[n] for n in range(self.truncation))
            tail = np.array([self._tail(abs(complex(x)), growth) for x in t])
        return KernelValue(value[0], float(tail[0])) if single else KernelValue(value, tail)

    def _tail(self, size: float, growth: float) -> float:
        """The geometric tail estimate beyond the truncation at |<z, w>| = ``size``."""
        r = size * growth
        if r < 1:
            return abs(self.floats.coefficients[-1]) * size**self.truncation * (r / (1 - r))
        return math.inf


def _norm_sq(point) -> float:
    return sum(abs(complex(p)) ** 2 for p in point)


def _inner_products(zs: list, ws: list) -> np.ndarray:
    """<z, w> = sum_i z_i conj(w_i) for each pair, added in coordinate order as the scalar sum does.

    Exact (object) when every coordinate is rational, float when none is
    complex, else complex with each product written in real arithmetic.
    """
    coords = [p for pt in zs + ws for p in pt]
    if all(_is_exact(p) for p in coords):
        terms = np.array(zs, dtype=object) * np.conjugate(np.array(ws, dtype=object))
    elif not any(isinstance(p, complex) for p in coords):
        terms = np.array(zs, dtype=float) * np.array(ws, dtype=float)
    else:
        za, wa = np.array(zs, dtype=complex), np.conjugate(np.array(ws, dtype=complex))
        terms = complex_array(
            za.real * wa.real - za.imag * wa.imag, za.real * wa.imag + za.imag * wa.real
        )
    terms = terms.reshape(len(zs), -1)
    out = terms[:, 0]
    for j in range(1, terms.shape[1]):
        out = out + terms[:, j]
    return out


# ---------------------------------------------------------------------------
# series arithmetic


def reciprocal_complement(k: KernelSeries) -> RealSeries:
    """The b-sequence of k (``KernelSeries.b``), computed once per kernel object."""
    return k.b


def cauchy_product(p, q):
    """Coefficientwise convolution, truncated to the shorter of the two inputs.

    The product of two kernels is again a kernel; in that case a
    KernelSeries is returned, otherwise a RealSeries.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    n = min(len(p.coefficients), len(q.coefficients))
    pa, qa = p.coefficients, q.coefficients
    out = tuple(sum(pa[i] * qa[m - i] for i in range(m + 1)) for m in range(n))
    if isinstance(p, KernelSeries) and isinstance(q, KernelSeries):
        return KernelSeries(out, p.dim, p.radius_one_declared and q.radius_one_declared)
    return RealSeries(out, p.dim)


def quotient(numerator, denominator) -> RealSeries:
    """Coefficients q with cauchy_product(denominator, q) = numerator.

    Requires the denominator to be normalized (leading coefficient 1).
    """
    if numerator.dim != denominator.dim:
        raise ValueError("dimension mismatch")
    if denominator.coefficients[0] != 1:
        raise ValueError("denominator must have leading coefficient 1")
    n = min(len(numerator.coefficients), len(denominator.coefficients))
    a, l = numerator.coefficients, denominator.coefficients
    q: list = []
    for m in range(n):
        q.append(a[m] - sum(q[i] * l[m - i] for i in range(m)))
    return RealSeries(tuple(q), numerator.dim)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class NonnegativityCertificate:
    """Outcome of checking coefficient signs up to a truncation order.

    ``holds_up_to`` is the truncation actually examined; the verdict never
    claims anything beyond it.
    """

    holds: bool
    holds_up_to: int
    first_negative: Optional[int]
    tolerance: float

    def __bool__(self) -> bool:
        return self.holds


def _sign_certificate(coeffs, start: int, tol: float) -> NonnegativityCertificate:
    first = None
    for n in range(start, len(coeffs)):
        c = coeffs[n]
        negative = c < 0 if _is_exact(c) else c < -tol
        if negative:
            first = n
            break
    return NonnegativityCertificate(first is None, len(coeffs) - 1, first, tol)


def is_complete_pick(k: KernelSeries, tol: float = 1e-12) -> NonnegativityCertificate:
    """Certificate that k is an (irreducible) complete Nevanlinna-Pick kernel.

    For unitarily invariant kernels this is equivalent to b_n >= 0 for all n,
    checked here up to the truncation. Exact comparison in rational mode,
    tolerance ``tol`` in float mode.
    """
    b = reciprocal_complement(k)
    return _sign_certificate(b.coefficients, 1, 0.0 if b.exact else tol)


def is_positive_quotient(k: KernelSeries, l: KernelSeries, tol: float = 1e-12) -> NonnegativityCertificate:
    """Certificate that k/l has non-negative coefficients up to truncation.

    For unitarily invariant series, non-negative coefficients make the
    quotient a positive kernel; this is the operational test for the
    coordinate multipliers of k forming a 1/l-contraction.
    """
    q = quotient(k, l)
    return _sign_certificate(q.coefficients, 0, 0.0 if q.exact else tol)


@dataclass(frozen=True)
class KernelFactorization:
    """A verified factorization kernel = pick_factor * positive_part.

    ``positive_part`` is the quotient g = k/s with g_0 = 1 and g_n >= 0; the
    Cauchy product of the factor and g reproduces k coefficientwise up to the
    shared truncation (exactly in rational mode).
    """

    kernel: KernelSeries
    pick_factor: KernelSeries
    positive_part: RealSeries
    tolerance: float = 0.0

    def __post_init__(self):
        g = self.positive_part
        if g.coefficients[0] != 1:
            raise FactorizationError("positive part must have leading coefficient 1")
        prod = cauchy_product(self.pick_factor, g)
        for n, (p, a) in enumerate(zip(prod.coefficients, self.kernel.coefficients)):
            err = p - a
            bad = err != 0 if _is_exact(err) else abs(err) > self.tolerance
            if bad:
                raise FactorizationError(
                    f"product deviates from kernel at degree {n}: {p} != {a}"
                )

    @property
    def truncation(self) -> int:
        return min(self.kernel.truncation, self.pick_factor.truncation)

    @property
    def dim(self) -> int:
        return self.kernel.dim


def factor_through_pick(k: KernelSeries, s: KernelSeries, tol: float = 1e-12) -> KernelFactorization:
    """Factor k = s * g for a complete Nevanlinna-Pick kernel s.

    Fails with FactorizationError when some quotient coefficient is negative
    (s is then not a CNP factor of k at this truncation), and with ValueError
    when s itself does not certify as CNP.
    """
    cert = is_complete_pick(s, tol)
    if not cert.holds:
        raise ValueError(
            f"factor is not a complete Nevanlinna-Pick kernel: "
            f"b_{cert.first_negative} < 0"
        )
    g = quotient(k, s)
    g_cert = _sign_certificate(g.coefficients, 0, 0.0 if g.exact else tol)
    if not g_cert.holds:
        raise FactorizationError(
            f"not a factorization: quotient coefficient at degree "
            f"{g_cert.first_negative} is negative"
        )
    # coefficient monotonicity forced by g >= 0, g_0 = 1; checked defensively
    n = min(k.truncation, s.truncation)
    for m in range(n + 1):
        if not (s.coefficients[m] <= k.coefficients[m] or _close(s.coefficients[m], k.coefficients[m], tol)):
            raise FactorizationError(f"factor coefficient exceeds kernel at degree {m}")
        if not (g.coefficients[m] <= k.coefficients[m] or _close(g.coefficients[m], k.coefficients[m], tol)):
            raise FactorizationError(f"quotient coefficient exceeds kernel at degree {m}")
    return KernelFactorization(k, s, g, 0.0 if (k.exact and s.exact) else tol)


def _close(x, y, tol: float) -> bool:
    return abs(float(x) - float(y)) <= tol


@dataclass(frozen=True)
class AdmissibilityReport:
    """Truncation-level evidence that a kernel is admissible.

    ``ratio_sup`` is max a_n / a_{n+1} over the stored range (boundedness of
    this ratio is equivalent to bounded coordinate multipliers).
    ``partial_sum_bound`` is the largest absolute diagonal value of
    I - (partial b-sums) on monomials, a uniform-boundedness certificate for
    the defining series of the contraction condition. Both are certificates
    up to the truncation only, never global claims.
    """

    ratio_sup: Scalar
    partial_sum_bound: Scalar
    checked_to: int
    verdict: str


def admissibility_report(k: KernelSeries) -> AdmissibilityReport:
    a = k.coefficients
    n_max = k.truncation
    ratio_sup = max((a[n] / a[n + 1] for n in range(n_max)), default=a[0] / a[0])
    b = reciprocal_complement(k).coefficients
    bound = 0 * a[0]
    for n in range(n_max + 1):
        partial = 0 * a[0]
        for d in range(0, n + 1):
            if d >= 1:
                partial += b[d] * a[n - d]
            value = 1 - partial / a[n]
            bound = max(bound, abs(value))
    return AdmissibilityReport(ratio_sup, bound, n_max, f"certified up to {n_max}")


# ---------------------------------------------------------------------------
# built-in kernels


def bergman_kernel(m: int, dim: int, truncation: int = DEFAULT_TRUNCATION) -> KernelSeries:
    """The m-th power of the Szego-type ball kernel: a_n = binom(n+m-1, n).

    m = 1 is the Drury-Arveson kernel. Exact integer coefficients; the lifted
    coefficient at alpha equals (m+|alpha|-1)! / (alpha! (m-1)!).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = tuple(Fraction(math.comb(n + m - 1, n)) for n in range(truncation + 1))
    return KernelSeries(coeffs, dim, radius_one_declared=True)


def drury_arveson_kernel(dim: int, truncation: int = DEFAULT_TRUNCATION) -> KernelSeries:
    """1 / (1 - <z,w>): all coefficients 1."""
    return bergman_kernel(1, dim, truncation)


def szego_kernel(dim: int, truncation: int = DEFAULT_TRUNCATION) -> KernelSeries:
    """Alias for the a_n = 1 kernel (the Hardy-space kernel when dim = 1)."""
    return bergman_kernel(1, dim, truncation)


def dirichlet_kernel(dim: int, truncation: int = DEFAULT_TRUNCATION) -> KernelSeries:
    """a_n = 1/(n+1), the kernel -log(1 - <z,w>) / <z,w>."""
    coeffs = tuple(Fraction(1, n + 1) for n in range(truncation + 1))
    return KernelSeries(coeffs, dim, radius_one_declared=True)


def kernel_from_coefficients(a: Sequence[Scalar], dim: int, radius_one_declared: bool = False) -> KernelSeries:
    return KernelSeries(tuple(a), dim, radius_one_declared)


# ---------------------------------------------------------------------------
# kernel spec files (JSON-compatible dicts)


def _scalar_to_string(x) -> str:
    f = Fraction(x) if _is_exact(x) else None
    if f is not None:
        return f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def _scalar_from_string(s: str):
    """A "p/q" string as an exact Fraction, any other number as a float; ValueError names a bad one."""
    s = s.strip()
    try:
        if "/" not in s:
            return float(s)
        num, den = (int(part) for part in s.split("/"))
    except ValueError:
        raise ValueError(f"bad scalar {s!r}: expected a number or p/q") from None
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(num, den)


def _scalar_from_spec(x):
    """A spec entry: a string as ``_scalar_from_string`` reads it, or a JSON number."""
    if isinstance(x, str):
        return _scalar_from_string(x)
    if isinstance(x, (int, float)):
        return x
    raise ValueError(f"bad scalar {x!r}: expected a number or p/q")


def kernel_from_spec(spec: dict) -> KernelSeries:
    """Build a kernel from a spec dict, e.g. parsed from a JSON file.

    Supported kinds: bergman (fields m, d, truncation), szego, dirichlet
    (fields d, truncation), coeffs (fields a: list of "p/q" strings, d).
    The fields m, d and truncation must be integers.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("kernel spec must be an object with a 'kind' field")
    kind = spec["kind"]

    def integer(name):
        value = spec[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"kernel spec field {name!r} must be an integer, got {value!r}")
        return value

    try:
        trunc = integer("truncation") if "truncation" in spec else DEFAULT_TRUNCATION
        if kind == "bergman":
            return bergman_kernel(integer("m"), integer("d"), trunc)
        if kind == "szego":
            return szego_kernel(integer("d"), trunc)
        if kind == "dirichlet":
            return dirichlet_kernel(integer("d"), trunc)
        if kind == "coeffs":
            if not isinstance(spec["a"], list):
                raise ValueError(f"'a' must be a list of coefficients, got {spec['a']!r}")
            a = [_scalar_from_spec(s) for s in spec["a"]]
            return kernel_from_coefficients(a, integer("d"), bool(spec.get("radius_one", False)))
    except KeyError as exc:
        raise ValueError(f"kernel spec missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed kernel spec: {exc}") from exc
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_to_spec(k: KernelSeries) -> dict:
    return {
        "kind": "coeffs",
        "a": [_scalar_to_string(c) for c in k.coefficients],
        "d": k.dim,
        "radius_one": k.radius_one_declared,
    }
