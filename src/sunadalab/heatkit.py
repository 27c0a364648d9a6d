"""Heat traces of closed-form flat spectra and a singular-set detector.

Every flat model is a product of one-dimensional factors (c, mult),
one per side length L, which it carries in ``factors``.  A factor has
eigenvalues (c n / L)^2 for n = 0..nmax, simple at n = 0 and of
multiplicity ``mult`` above.  The circle is one (2 pi, 2) factor, the
mirror-quotient interval with Neumann ends one (pi, 1) factor, and the
rectangular torus two circle factors.  On the truncation box a model's
heat trace is the product of its factor partial sums, and its rigorous
tail bound is folded from the factors' integral-comparison bounds, so
every reported digit is certified without the eigenvalue list; that
list is built only when a caller reads it.  For the one-dimensional
models the small-time expansion is volume/sqrt(4 pi t) + (boundary
constant) + exponentially small terms, and the detector extracts that
constant: it vanishes for the circle and equals 1/2 for the interval
(1/4 per mirror endpoint), which is what makes the presence of the
mirror points audible.  The audibility chain is one table of premises,
and ``_as_value_mult_arrays`` is the one reader of any kind of spectrum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import _kernels
from .errors import NumericalError, ParseError, PreconditionError, TailBoundError

SINGULARITY_THRESHOLD = 0.05
DETECTOR_T_LO = 1e-4
DETECTOR_T_HI = 1e-3
# relative tolerance of the audibility chain's volume comparisons
VOLUME_REL_TOL = 1e-6

# one-dimensional factors (c, mult)
_CIRCLE = (2.0 * np.pi, 2)
_NEUMANN = (np.pi, 1)


@dataclass(frozen=True, eq=False)
class FlatModelSpectrum:
    """Truncated spectrum of one closed-form flat model.

    The eigenvalue list is built on first access and then cached: heat
    traces of the flat models do not need it, so only callers that read
    the list itself pay for it.
    """

    model: str
    lengths: tuple
    factors: tuple  # one (c, mult) per side length
    nmax: int
    dim: int
    volume: float

    @cached_property
    def _spectrum(self):
        # on the truncation box, eigenvalues add across factors and
        # multiplicities multiply; equal sums are merged into one entry
        factors = [_factor(L, *f, self.nmax, ()) for L, f in zip(self.lengths, self.factors)]
        grid = reduce(np.add.outer, [f[0] for f in factors]).ravel()
        weight = reduce(np.multiply.outer, [f[1] for f in factors]).ravel()
        values, inverse = np.unique(grid, return_inverse=True)
        return values, np.bincount(inverse, weights=weight).astype(np.int64)

    @property
    def eigenvalues(self):
        return self._spectrum[0]

    @property
    def multiplicities(self):
        return self._spectrum[1]


def _factor(L, c, mult, nmax, t_grid):
    """Eigenvalues and multiplicities of one factor, and its tail bound at
    each t of ``t_grid``."""
    n = np.arange(nmax + 1)
    values = (c * n / L) ** 2
    mults = np.where(n == 0, 1, mult).astype(np.int64)
    tails = np.array([mult * _one_dim_tail(L, c, nmax, t) for t in t_grid])
    return values, mults, tails


def _flat_model(model, lengths, factors, nmax, what):
    if not all(0 < L < math.inf for L in lengths):
        raise PreconditionError(f"{what} must be finite and positive")
    if nmax < 0:
        raise PreconditionError("nmax must be non-negative")
    lengths = tuple(float(L) for L in lengths)
    return FlatModelSpectrum(
        model=model,
        lengths=lengths,
        factors=factors,
        nmax=int(nmax),
        dim=len(lengths),
        volume=math.prod(lengths),
    )


def circle_spectrum(L, nmax):
    """Circle of circumference L: eigenvalue (2 pi n / L)^2, double for n >= 1."""
    return _flat_model("circle", (L,), (_CIRCLE,), nmax, "circumference")


def interval_neumann_spectrum(L, nmax):
    """Interval of length L with Neumann ends: eigenvalue (pi n / L)^2, simple."""
    return _flat_model("interval_neumann", (L,), (_NEUMANN,), nmax, "length")


def rect_torus_spectrum(a, b, nmax):
    """Rectangular torus with side lengths a, b: lattice eigenvalues
    (2 pi m / a)^2 + (2 pi n / b)^2 over |m|, |n| <= nmax."""
    return _flat_model("rect_torus", (a, b), (_CIRCLE, _CIRCLE), nmax, "torus side lengths")


@dataclass(frozen=True, eq=False)
class HeatTraceCurve:
    """Partial heat trace values with certified truncation error per t."""

    values: np.ndarray
    tail_bounds: np.ndarray

    def max_tail(self):
        return float(self.tail_bounds.max()) if len(self.tail_bounds) else 0.0


def _one_dim_tail(L, c, nmax, t):
    # sum_{n > nmax} e^{-(c n / L)^2 t} <= integral comparison
    return L / (2.0 * math.sqrt(math.pi * t)) * math.erfc(c * nmax * math.sqrt(t) / L)


def _trace_and_tail(spec, t_grid):
    """Partial heat trace of a flat model and its tail bound at each t.

    The truncated trace is the product of the factor partial sums s_i.
    The full trace is at most the product of (s_i + T_i), with T_i the
    factor's tail bound, so multiplying in a factor maps (trace, tail) to
    (trace s, trace T + tail s + tail T), starting from (1, 0).
    """
    trace, tail = 1.0, 0.0
    for L, f in zip(spec.lengths, spec.factors):
        values, mults, T = _factor(L, *f, spec.nmax, t_grid)
        s = _kernels.heat_sum(values, mults, t_grid)
        trace, tail = trace * s, trace * T + tail * s + tail * T
    return trace, tail


def _as_value_mult_arrays(spec):
    """Float64 eigenvalues and int64 multiplicities of any spectrum: a
    flat model's listed spectrum, a spectral decomposition's clusters,
    or a list of (eigenvalue, multiplicity) pairs.  Listed multiplicities
    must be non-negative integers (not bools) adding up to at most 2**53,
    where int64 counts stay exact in float64 sums."""
    if isinstance(spec, FlatModelSpectrum):
        return spec.eigenvalues, spec.multiplicities
    pairs = list(getattr(spec, "clusters", spec))
    total = 0
    for i, (_, m) in enumerate(pairs):
        if type(m) is bool or not isinstance(m, (int, np.integer)) or m < 0:
            raise PreconditionError(
                f"entry {i}: multiplicity {m!r} is not a non-negative integer"
            )
        total += int(m)
        if total > 2**53:
            raise PreconditionError(f"entry {i}: multiplicities add up to more than 2**53")
    values = np.asarray([p[0] for p in pairs], dtype=np.float64)
    mults = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return values, mults


def heat_trace(spec, t_grid, tol=None):
    """Sum of multiplicity-weighted exponentials over the given times.

    ``spec`` may be a flat model, a spectral decomposition, or a plain
    list of (eigenvalue, multiplicity) pairs.  Finite spectra are exact
    (tail zero); flat models carry integral-comparison tail bounds, and
    a requested tolerance that some bound exceeds raises TailBoundError.
    A trace or tail bound that is not finite, as a negative eigenvalue far
    enough below zero or a flat model long enough makes it, raises
    NumericalError.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise PreconditionError("t_grid must be a non-empty 1-D array")
    if np.any(t_grid <= 0) or not np.all(np.isfinite(t_grid)):
        raise PreconditionError("t_grid entries must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(spec, FlatModelSpectrum):
            # a product of factor sums; the eigenvalue list is never built
            trace, tails = _trace_and_tail(spec, t_grid)
        else:
            trace = _kernels.heat_sum(*_as_value_mult_arrays(spec), t_grid)
            tails = np.zeros_like(t_grid)
    finite = np.isfinite(trace) & np.isfinite(tails)
    if not finite.all():
        t = t_grid[np.argmin(finite)]
        raise NumericalError(
            f"heat trace or its tail bound is not finite at t = {t:.6g}"
        )
    if tol is not None:
        worst = float(tails.max())
        if worst > tol:
            raise TailBoundError(
                f"truncation error bound {worst:.3e} exceeds tolerance {tol:.3e}; "
                f"increase nmax"
            )
    return HeatTraceCurve(values=trace, tail_bounds=tails)


@dataclass(frozen=True, eq=False)
class SingularityIndicator:
    """Detector output for a one-dimensional flat model."""

    leading: float
    constant: float
    verdict: str
    threshold: float
    residual: float
    tail_bound_max: float


def constant_term_estimate(spec, t_grid=None):
    """Estimate the constant term of the small-time heat expansion.

    Only meaningful for the one-dimensional models, where the trace is
    volume/sqrt(4 pi t) + constant + exponentially small corrections; the
    constant is the intercept of a linear fit of the detrended trace
    against t over (at least) a decade of small times.  Verdict is
    ``singular`` when the constant clears ``SINGULARITY_THRESHOLD`` in
    absolute value, ``smooth`` when it does not, and ``inconclusive`` when
    the truncation bound, the fit residual or the exponentially small
    corrections (``_dual_term_bound``) are too large to trust either.
    """
    if not isinstance(spec, FlatModelSpectrum) or spec.dim != 1:
        raise PreconditionError(
            "the constant-term detector applies to one-dimensional flat models"
        )
    if t_grid is None:
        t_grid = np.geomspace(DETECTOR_T_LO, DETECTOR_T_HI, 33)
    t_grid = np.sort(np.asarray(t_grid, dtype=np.float64))
    if len(t_grid) < 4:
        raise PreconditionError("need at least 4 sample times for the fit")
    if t_grid[0] <= 0 or t_grid[-1] > 0.05:
        raise PreconditionError("sample times must lie in (0, 0.05]")
    if t_grid[-1] / t_grid[0] < 8.0:
        raise PreconditionError("sample times must span about a decade")
    curve = heat_trace(spec, t_grid)
    detrended = curve.values - spec.volume / np.sqrt(4.0 * np.pi * t_grid)
    design = np.stack([np.ones_like(t_grid), t_grid], axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(design, detrended, rcond=None)
    constant = float(coeffs[0])
    residual = float(np.max(np.abs(design @ coeffs - detrended)))
    leading = float(curve.values[0] * np.sqrt(4.0 * np.pi * t_grid[0]))
    tail_max = curve.max_tail()
    threshold = SINGULARITY_THRESHOLD
    if max(tail_max, residual, _dual_term_bound(spec, t_grid[-1])) > threshold / 2.0:
        verdict = "inconclusive"
    elif abs(constant) > threshold:
        verdict = "singular"
    else:
        verdict = "smooth"
    return SingularityIndicator(
        leading=leading,
        constant=constant,
        verdict=verdict,
        threshold=threshold,
        residual=residual,
        tail_bound_max=tail_max,
    )


def _dual_term_bound(spec, t):
    """Bound on the exponentially small corrections to a one-dimensional
    trace at time t.  By Poisson summation a factor (c, mult) of length L
    contributes (mult/2) (L/c) sqrt(pi/t) * 2 sum_{k>=1} exp(-b k^2) with
    b = (pi L / c)^2 / t, at most mult (L/c) sqrt(pi/t) e^{-b} / (1 - e^{-b}).
    The bound grows with t, so the largest sample time bounds the whole
    fit window.  When L^2 is small against t the terms are not small, and
    the fitted intercept is not the constant term."""
    total = 0.0
    with np.errstate(over="ignore"):
        for L, (c, mult) in zip(spec.lengths, spec.factors):
            b = np.square(np.pi * L / c) / t
            total += mult * (L / c) * np.sqrt(np.pi / t) * np.exp(-b) / -np.expm1(-b)
    return float(total)


# ---------------------------------------------------------------------------
# audibility chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AudibilityReport:
    """Consistency record for the covering-space singularity argument.

    Premises: the covers are isospectral, the quotients are isospectral,
    and each cover's volume is its sheet count times its quotient's
    volume.  When the premises hold, equal volumes force equal sheet
    counts and the singularity verdicts of the quotients must agree; a
    failed premise is reported as a diagnostic instead of a verdict.
    ``premises`` maps each premise's name to whether it holds.
    """

    premises: dict
    diagnostics: tuple
    indicator_1: SingularityIndicator | None
    indicator_2: SingularityIndicator | None
    degrees: tuple
    singular_agree: bool | None
    consistent: bool

    def __bool__(self):
        return self.consistent


def _volume_of(spec):
    if isinstance(spec, FlatModelSpectrum):
        return spec.volume
    # a finite graph spectrum recovers its vertex count at t -> 0
    return float(_as_value_mult_arrays(spec)[1].sum())


def spectra_close(spec_a, spec_b, tol=1e-9):
    """Compare two spectra eigenvalue by eigenvalue with multiplicity.

    Finite spectra must have equal total counts; truncated flat models
    are compared on their common initial segment.  The lists are not
    written out: the two are compared at every run start of either.
    """
    run_a, run_b = _runs(spec_a), _runs(spec_b)
    total_a, total_b = run_a[1][-1], run_b[1][-1]
    flat = isinstance(spec_a, FlatModelSpectrum) or isinstance(spec_b, FlatModelSpectrum)
    if not flat and total_a != total_b:
        return False
    k = min(total_a, total_b)
    if k == 0:
        return bool(total_a == total_b)
    for (values_x, bounds_x), (values_y, bounds_y) in ((run_a, run_b), (run_b, run_a)):
        starts = bounds_x[: np.searchsorted(bounds_x[:-1], k)]
        y = values_y[np.searchsorted(bounds_y, starts, side="right") - 1]
        if not np.all(np.abs(values_x[: len(starts)] - y) <= tol):
            return False
    return True


def _runs(spec):
    """(values, bounds) of a spectrum's non-empty runs; value i fills
    positions bounds[i] to bounds[i+1] - 1."""
    values, counts = _as_value_mult_arrays(spec)
    bounds = np.concatenate(([0], np.cumsum(counts[counts > 0])))
    return values[counts > 0], bounds


def singularity_audibility_report(
    spec_o1,
    spec_o2,
    spec_m1,
    spec_m2,
    d1,
    d2,
    indicator_1=None,
    indicator_2=None,
    tol=1e-9,
):
    """Check the full audibility chain on two covers and their quotients.

    ``d1``, ``d2`` are the claimed sheet counts of the coverings
    M1 -> O1 and M2 -> O2.  Indicators may be passed in (graph quotients
    get theirs from freeness of the action); one-dimensional flat models
    compute their own when omitted.  Failed premises are diagnosed in
    premise order; unequal sheet counts only when nothing else fails.
    """
    if d1 < 1 or d2 < 1:
        raise PreconditionError("sheet counts must be positive integers")
    vol_o1, vol_o2, vol_m1, vol_m2 = map(_volume_of, (spec_o1, spec_o2, spec_m1, spec_m2))
    rel = lambda x, y: abs(x - y) <= VOLUME_REL_TOL * max(abs(x), abs(y), 1.0)
    premises = {
        "covers_isospectral": spectra_close(spec_m1, spec_m2, tol),
        "quotients_isospectral": spectra_close(spec_o1, spec_o2, tol),
        "volume_towers": rel(vol_m1, d1 * vol_o1) and rel(vol_m2, d2 * vol_o2),
        "degrees_equal": d1 == d2,
    }
    failed = [name for name, holds in premises.items() if not holds]
    messages = {
        "covers_isospectral": "the covers are not isospectral at the stated "
        "tolerance, so the argument does not start",
        "quotients_isospectral": "the quotient spectra differ, so no common heat "
        "expansion exists and no singularity comparison is implied",
        "volume_towers": "volumes do not match the claimed sheet counts: "
        f"{vol_m1} vs {d1} * {vol_o1}, {vol_m2} vs {d2} * {vol_o2}",
        "degrees_equal": "equal volumes on both floors force equal sheet "
        f"counts, but {d1} != {d2} was claimed",
    }
    diagnostics = [
        messages[name] for name in failed if name != "degrees_equal" or len(failed) == 1
    ]
    indicator_1, indicator_2 = (
        constant_term_estimate(spec)
        if given is None and isinstance(spec, FlatModelSpectrum) and spec.dim == 1
        else given
        for given, spec in ((indicator_1, spec_o1), (indicator_2, spec_o2))
    )
    singular_agree = None
    if indicator_1 is None or indicator_2 is None:
        diagnostics.append(
            "no singularity indicator available for at least one quotient; "
            "only the spectral premises were checked"
        )
    elif "inconclusive" in (indicator_1.verdict, indicator_2.verdict):
        diagnostics.append("a singularity verdict is inconclusive")
    else:
        singular_agree = indicator_1.verdict == indicator_2.verdict
        if not singular_agree:
            diagnostics.append(
                f"singularity verdicts differ: {indicator_1.verdict} vs "
                f"{indicator_2.verdict}"
            )

    return AudibilityReport(
        premises=premises,
        diagnostics=tuple(diagnostics),
        indicator_1=indicator_1,
        indicator_2=indicator_2,
        degrees=(int(d1), int(d2)),
        singular_agree=singular_agree,
        consistent=not failed and singular_agree is not False,
    )


# ---------------------------------------------------------------------------
# spectra files
# ---------------------------------------------------------------------------

def write_spectrum_json(spec, fh):
    """JSON array of [eigenvalue, multiplicity] pairs, 15 significant digits."""
    values, mults = _as_value_mult_arrays(spec)
    pairs = [[float(f"{v:.15g}"), int(m)] for v, m in zip(values.tolist(), mults.tolist())]
    json.dump(pairs, fh)
    fh.write("\n")


def read_spectrum_json(fh, path=None):
    try:
        data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid spectrum JSON: {exc}", path=path) from exc
    if not isinstance(data, list):
        raise ParseError("spectrum JSON must be an array of pairs", path=path)
    pairs = []
    last = -math.inf
    total = 0
    for i, item in enumerate(data):
        if (
            not isinstance(item, list)
            or len(item) != 2
            # exact types: a JSON true or false is a bool, an int subclass
            or type(item[0]) not in (int, float)
            or type(item[1]) is not int
        ):
            raise ParseError(
                f"entry {i} must be [eigenvalue, multiplicity], got {item!r}",
                path=path,
            )
        value, mult = float(item[0]), item[1]
        if not math.isfinite(value):
            raise ParseError(f"entry {i}: eigenvalue {value} is not finite", path=path)
        if mult < 1:
            raise ParseError(f"entry {i}: multiplicity must be >= 1", path=path)
        total += mult
        if total > 2**53:  # int64 counts stay exact in float64 sums up to here
            raise ParseError(
                f"entry {i}: multiplicities add up to more than 2**53", path=path
            )
        if value < last:
            raise ParseError(
                f"entry {i}: eigenvalues must be non-decreasing", path=path
            )
        last = value
        pairs.append((value, mult))
    return pairs
