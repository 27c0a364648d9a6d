import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunadalab import _kernels
from sunadalab import heatkit as hk
from sunadalab.cli import _normalize
from sunadalab.errors import NumericalError, ParseError, PreconditionError, TailBoundError

import oracles


# --- model spectra ------------------------------------------------------------

def test_circle_small():
    spec = hk.circle_spectrum(2 * np.pi, 2)
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 4.0])
    assert list(spec.multiplicities) == [1, 2, 2]
    assert spec.multiplicities.sum() == 5
    assert spec.volume == 2 * np.pi


def test_interval_small():
    spec = hk.interval_neumann_spectrum(np.pi, 3)
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 4.0, 9.0])
    assert list(spec.multiplicities) == [1, 1, 1, 1]
    wide = hk.interval_neumann_spectrum(2 * np.pi, 3)
    assert np.allclose(wide.eigenvalues, [0.0, 0.25, 1.0, 2.25])


def test_torus_small():
    spec = hk.rect_torus_spectrum(2 * np.pi, 2 * np.pi, 1)
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 2.0])
    assert list(spec.multiplicities) == [1, 4, 4]
    assert spec.volume == pytest.approx(4 * np.pi**2)
    skew = hk.rect_torus_spectrum(2 * np.pi, 4 * np.pi, 4)
    positive = skew.eigenvalues[skew.eigenvalues > 0]
    assert positive[0] == pytest.approx(0.25)


def test_torus_lattice_built_on_first_access():
    spec = hk.rect_torus_spectrum(1.0, 1.5, 30)
    hk.heat_trace(spec, [1e-3, 1e-1])  # the trace and its tail bounds
    assert "_spectrum" not in spec.__dict__  # the trace never lists the lattice
    # the construction the lattice list has always had
    m = np.arange(31)
    wm = np.where(m == 0, 1, 2)
    grid = (2.0 * np.pi * m / 1.0)[:, None] ** 2 + (2.0 * np.pi * m / 1.5)[None, :] ** 2
    values, inverse = np.unique(grid.ravel(), return_inverse=True)
    weight = (wm[:, None] * wm[None, :]).astype(np.int64)
    mults = np.bincount(inverse, weights=weight.ravel()).astype(np.int64)
    assert np.array_equal(spec.eigenvalues, values)
    assert np.array_equal(spec.multiplicities, mults)
    assert spec.multiplicities.dtype == np.int64
    assert spec.eigenvalues is spec.eigenvalues  # cached, not rebuilt
    assert spec.multiplicities.sum() == 61 * 61
    # the one-dimensional models list nothing for their traces either
    n = np.arange(31)
    for maker, values, mults in [
        (hk.circle_spectrum, (2.0 * np.pi * n / 1.5) ** 2, np.where(n == 0, 1, 2)),
        (hk.interval_neumann_spectrum, (np.pi * n / 1.5) ** 2, np.ones(31)),
    ]:
        spec = maker(1.5, 30)
        hk.heat_trace(spec, [1e-3, 1e-1])
        assert "_spectrum" not in spec.__dict__
        assert np.array_equal(spec.eigenvalues, values)
        assert np.array_equal(spec.multiplicities, mults)
        assert spec.multiplicities.dtype == np.int64


def test_model_validation():
    for bad in [(-1.0, 5), (0.0, 5), (1.0, -1)]:
        with pytest.raises(PreconditionError):
            hk.circle_spectrum(*bad)
        with pytest.raises(PreconditionError):
            hk.interval_neumann_spectrum(*bad)
    with pytest.raises(PreconditionError):
        hk.rect_torus_spectrum(1.0, 0.0, 3)


# --- heat traces ----------------------------------------------------------------

def test_trace_of_point_spectrum():
    curve = hk.heat_trace([(0.0, 1)], [0.5, 1.0, 2.0])
    assert np.allclose(curve.values, 1.0)
    assert curve.max_tail() == 0.0


def test_finite_trace_recovers_count():
    curve = hk.heat_trace([(0.0, 1), (2.0, 1)], [1e-9])
    assert curve.values[0] == pytest.approx(2.0, abs=1e-8)


def test_circle_trace_value():
    # theta-function value frozen from an mpmath evaluation at t = 1
    curve = hk.heat_trace(hk.circle_spectrum(2 * np.pi, 10), [1.0])
    assert abs(curve.values[0] - 1.772637204826652) < 1e-12
    assert curve.max_tail() < 1e-12


def test_trace_strictly_decreasing_in_t():
    spec = hk.circle_spectrum(2 * np.pi, 50)
    t = np.geomspace(1e-3, 1.0, 20)
    curve = hk.heat_trace(spec, t)
    assert np.all(np.diff(curve.values) < 0)


@pytest.mark.parametrize(
    "spec",
    [
        hk.circle_spectrum(2 * np.pi, 40),
        hk.interval_neumann_spectrum(np.pi, 40),
        hk.rect_torus_spectrum(2 * np.pi, 3 * np.pi, 25),
    ],
    ids=["circle", "interval", "torus"],
)
def test_tail_bound_certifies_truncation(spec):
    # quadrupling nmax stands in for the exact trace; the bound at the
    # small cutoff must dominate the observed truncation error
    maker = {
        "circle": hk.circle_spectrum,
        "interval_neumann": hk.interval_neumann_spectrum,
        "rect_torus": hk.rect_torus_spectrum,
    }[spec.model]
    fine = maker(*spec.lengths, 4 * spec.nmax)
    t = np.geomspace(5e-4, 5e-2, 12)
    coarse_curve = hk.heat_trace(spec, t)
    fine_curve = hk.heat_trace(fine, t)
    gap = fine_curve.values - coarse_curve.values
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= coarse_curve.tail_bounds + 1e-12)


@pytest.mark.parametrize(
    "a, b, nmax", [(1.0, 1.5, 12), (2 * np.pi, 2 * np.pi, 8), (0.7, 3.1, 20)]
)
def test_torus_trace_matches_lattice_oracle(a, b, nmax):
    t = [1e-3, 1e-2, 0.1, 1.0]
    curve = hk.heat_trace(hk.rect_torus_spectrum(a, b, nmax), t)
    for value, ti in zip(curve.values, t):
        exact = oracles.torus_heat_trace(a, b, nmax, ti)
        assert abs(value - exact) <= 1e-12 * exact


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(["circle", "interval_neumann", "rect_torus"]),
    lengths=st.lists(st.floats(0.3, 5.0), min_size=2, max_size=2),
    nmax=st.integers(1, 60),
    t=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=4),
)
def test_factor_trace_matches_eigenvalue_list(model, lengths, nmax, t):
    # the factor product and the model's own eigenvalue list agree
    if model == "rect_torus":
        spec = hk.rect_torus_spectrum(*lengths, nmax)
    elif model == "circle":
        spec = hk.circle_spectrum(lengths[0], nmax)
    else:
        spec = hk.interval_neumann_spectrum(lengths[0], nmax)
    curve = hk.heat_trace(spec, t)
    listed = _kernels.heat_sum(spec.eigenvalues, spec.multiplicities, np.asarray(t))
    assert np.all(np.abs(curve.values - listed) <= 1e-12 * listed)


def test_torus_trace_allocates_no_lattice():
    spec = hk.rect_torus_spectrum(1.0, 1.5, 2000)
    tracemalloc.start()
    try:
        hk.heat_trace(spec, [1e-4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the (nmax+1)^2 lattice alone would be 32 MB


def test_finite_trace_overflow_is_a_numerical_error():
    # exp(1e6 * 1e-3) overflows float64; no RuntimeWarning escapes either
    with pytest.raises(NumericalError, match="not finite at t = 0.001"):
        hk.heat_trace([(-1e6, 1)], [1e-4, 1e-3])
    # eigensolver noise below zero is a finite trace
    curve = hk.heat_trace([(-1e-16, 1), (1.0, 2)], [1e-3])
    assert curve.values[0] == pytest.approx(1.0 + 2.0 * np.exp(-1e-3))


@pytest.mark.parametrize(
    "spec",
    [hk.circle_spectrum(1e308, 3), hk.rect_torus_spectrum(1e300, 1e300, 3)],
    ids=["circle-nan-tail", "torus-infinite-tail"],
)
def test_flat_model_overflow_is_a_numerical_error(spec):
    # a model too long for float64 overflows its trace or tail bound
    with pytest.raises(NumericalError, match="not finite at t = 0.0001"):
        hk.heat_trace(spec, [1e-4, 1e-3])


def test_trace_tolerance_gate():
    spec = hk.circle_spectrum(2 * np.pi, 5)
    with pytest.raises(TailBoundError) as info:
        hk.heat_trace(spec, [1e-4], tol=1e-9)
    assert "increase nmax" in str(info.value)
    curve = hk.heat_trace(spec, [1.0], tol=1e-9)
    assert curve.max_tail() <= 1e-9


def test_trace_grid_validation():
    spec = hk.circle_spectrum(2 * np.pi, 5)
    with pytest.raises(PreconditionError):
        hk.heat_trace(spec, [])
    with pytest.raises(PreconditionError):
        hk.heat_trace(spec, [0.0, 1.0])
    with pytest.raises(PreconditionError):
        hk.heat_trace(spec, [1.0, np.inf])


def test_interval_halves_the_doubled_circle():
    # Neumann interval spectrum = even part of the doubled circle, so the
    # traces satisfy an exact affine relation
    nmax = 1000
    L = np.pi
    t = np.geomspace(1e-3, 1.0, 9)
    interval = hk.heat_trace(hk.interval_neumann_spectrum(L, nmax), t)
    circle = hk.heat_trace(hk.circle_spectrum(2 * L, nmax), t)
    assert np.max(np.abs(interval.values - (0.5 * circle.values + 0.5))) < 1e-10


# --- the constant-term detector ---------------------------------------------------

def test_detector_interval_sees_the_ends():
    ind = hk.constant_term_estimate(hk.interval_neumann_spectrum(np.pi, 20000))
    assert abs(ind.constant - 0.5) < 0.01
    assert ind.verdict == "singular"
    assert abs(ind.leading - np.pi) < 0.01 * np.pi


def test_detector_circle_is_smooth():
    ind = hk.constant_term_estimate(hk.circle_spectrum(2 * np.pi, 20000))
    assert abs(ind.constant) < 0.01
    assert ind.verdict == "smooth"
    assert abs(ind.leading - 2 * np.pi) < 0.01 * 2 * np.pi


def test_detector_scales_with_length():
    ind = hk.constant_term_estimate(hk.interval_neumann_spectrum(2 * np.pi, 20000))
    assert abs(ind.constant - 0.5) < 0.01  # endpoint term is length-free


def test_detector_inconclusive_when_truncated():
    ind = hk.constant_term_estimate(hk.circle_spectrum(2 * np.pi, 30))
    assert ind.verdict == "inconclusive"
    assert ind.tail_bound_max > ind.threshold / 2


@pytest.mark.parametrize("make", [hk.circle_spectrum, hk.interval_neumann_spectrum])
def test_detector_inconclusive_when_model_is_short(make):
    # L^2 = 1e-6 lies far below the fit window t <= 1e-3, so the dual terms
    # of the trace swamp the constant: the fit reads about 0.98 either way
    short = hk.constant_term_estimate(make(0.001, 20000))
    assert abs(short.constant - 0.975) < 0.01
    assert short.verdict == "inconclusive"
    assert short.tail_bound_max < short.threshold / 2
    assert short.residual < short.threshold / 2
    # at L = pi and 2 pi, b = (pi L / c)^2 / t is about 9870: no dual term
    for L in (np.pi, 2 * np.pi):
        assert hk._dual_term_bound(make(L, 10), 1e-3) == 0.0
    expect = "smooth" if make is hk.circle_spectrum else "singular"
    assert hk.constant_term_estimate(make(1.0, 20000)).verdict == expect


def test_dual_term_bound_matches_the_poisson_sum():
    # circle of length L: sum_n exp(-(2 pi n / L)^2 t) = L / sqrt(4 pi t) *
    # sum_k exp(-(k L)^2 / (4 t)), so the dual terms are the k != 0 part
    L, t = 0.1, 1e-3
    n = np.arange(-2000, 2001)
    exact = np.exp(-((2 * np.pi * n / L) ** 2) * t).sum() - L / np.sqrt(4 * np.pi * t)
    bound = hk._dual_term_bound(hk.circle_spectrum(L, 10), t)
    assert 0.1 < exact <= bound < 1.1 * exact


def test_detector_grid_validation():
    spec = hk.interval_neumann_spectrum(np.pi, 100)
    with pytest.raises(PreconditionError):
        hk.constant_term_estimate(spec, t_grid=[1e-4, 2e-4, 1e-3])  # too few
    with pytest.raises(PreconditionError):
        hk.constant_term_estimate(spec, t_grid=[1e-4, 2e-4, 5e-4, 0.2])  # too large
    with pytest.raises(PreconditionError):
        hk.constant_term_estimate(spec, t_grid=[1e-4, 2e-4, 3e-4, 4e-4])  # narrow


def test_detector_rejects_torus():
    with pytest.raises(PreconditionError):
        hk.constant_term_estimate(hk.rect_torus_spectrum(2 * np.pi, 2 * np.pi, 50))


def test_indicator_json_keys():
    ind = hk.constant_term_estimate(hk.interval_neumann_spectrum(np.pi, 20000))
    d = _normalize(ind)
    for key in ("leading", "constant", "verdict", "tail_bound_max"):
        assert key in d
    assert d["verdict"] == "singular"


# --- audibility ---------------------------------------------------------------------

def _smooth_indicator(verdict="smooth"):
    return hk.SingularityIndicator(
        leading=1.0,
        constant=0.0 if verdict == "smooth" else 0.5,
        verdict=verdict,
        threshold=0.05,
        residual=0.0,
        tail_bound_max=0.0,
    )


def test_spectra_close_variants():
    a = hk.circle_spectrum(2 * np.pi, 10)
    b = hk.circle_spectrum(2 * np.pi, 100)
    assert hk.spectra_close(a, b)  # common initial segment
    assert not hk.spectra_close([(0.0, 1)], [(0.0, 2)])  # count mismatch
    assert hk.spectra_close([(0.0, 1), (1.0, 2)], [(0.0, 1), (1.0, 1), (1.0, 1)])
    # 2**53 + 1 and 2**53 are one float64, so counts past 2**53 are refused
    with pytest.raises(PreconditionError, match=r"more than 2\*\*53"):
        hk.spectra_close([(0.0, 2**53 + 1)], [(0.0, 2**53)])
    with pytest.raises(PreconditionError):
        hk.spectra_close([(0.0, -1)], [(0.0, 1)])


@pytest.mark.parametrize("mult", [1.5, -3, 2.7, 10**20, True, np.float64(2.0)])
def test_listed_multiplicities_must_be_counts(mult):
    # a fraction or a bool was cast to int64 and a huge count overflowed
    with pytest.raises(PreconditionError, match="entry 1"):
        hk.heat_trace([(0.0, 1), (1.0, mult)], [1e-3])
    with pytest.raises(PreconditionError, match="entry 1"):
        hk.spectra_close([(0.0, 1), (1.0, mult)], [(0.0, 1), (1.0, 2)])


_VALUES = (0.0, 1.0, 1.0 + 1e-12, 4.0, 9.0)
_finite = st.lists(
    st.tuples(st.sampled_from(_VALUES), st.integers(0, 3)), max_size=6
)
# the circle of circumference 2 pi has eigenvalues n^2, double for n >= 1
_flat = st.integers(0, 3).map(lambda nmax: hk.circle_spectrum(2 * np.pi, nmax))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_finite, _flat),
    st.one_of(_finite, _flat),
    st.sampled_from([0.0, 1e-9, 2.0]),
)
@example([], [], 0.0)
@example([], [(0.0, 0)], 0.0)
@example([(0.0, 1)], [(0.0, 1), (1.0, 1)], 1e-9)  # unequal totals
# the runs differ only at a run start of one side
@example([(1.0, 2)], [(1.0, 1), (4.0, 1)], 1e-9)
@example([(1.0, 1), (4.0, 1)], [(1.0, 2)], 1e-9)
@example(hk.circle_spectrum(2 * np.pi, 1), [(0.0, 1), (1.0, 2), (4.0, 5)], 1e-9)
@example(hk.circle_spectrum(2 * np.pi, 0), [], 0.0)
def test_spectra_close_matches_expanded_oracle(spec_a, spec_b, tol):
    def pairs(spec):
        if isinstance(spec, hk.FlatModelSpectrum):
            values, mults = spec.eigenvalues.tolist(), spec.multiplicities.tolist()
            return list(zip(values, mults)), False
        return spec, True

    expected = oracles.spectra_close(*pairs(spec_a), *pairs(spec_b), tol)
    assert hk.spectra_close(spec_a, spec_b, tol) is expected


def test_audibility_consistent_flat_pair():
    o = hk.interval_neumann_spectrum(np.pi, 20000)
    m = hk.circle_spectrum(2 * np.pi, 20000)
    report = hk.singularity_audibility_report(o, o, m, m, 2, 2)
    assert dict(report.premises) == {
        "covers_isospectral": True,
        "quotients_isospectral": True,
        "volume_towers": True,
        "degrees_equal": True,
    }
    assert report.singular_agree is True
    assert report.consistent
    assert bool(report)


def test_audibility_degree_mismatch():
    o = hk.interval_neumann_spectrum(np.pi, 200)
    m = hk.circle_spectrum(2 * np.pi, 200)
    report = hk.singularity_audibility_report(o, o, m, m, 2, 3)
    assert not report.consistent
    assert dict(report.premises)["volume_towers"] is False
    assert any("sheet counts" in d for d in report.diagnostics)


def test_audibility_finite_spectra_with_indicators():
    o = [(0.0, 1), (4.0, 1)]
    m = [(0.0, 1), (1.0, 2), (3.0, 2), (4.0, 1)]
    report = hk.singularity_audibility_report(o, o, m, m, 3, 3)
    assert report.consistent  # premises hold, no verdicts to compare
    assert report.singular_agree is None
    assert any("no singularity indicator" in d for d in report.diagnostics)
    clash = hk.singularity_audibility_report(
        o, o, m, m, 3, 3,
        indicator_1=_smooth_indicator("smooth"),
        indicator_2=_smooth_indicator("singular"),
    )
    assert not clash.consistent
    assert clash.singular_agree is False
    assert any("verdicts differ" in d for d in clash.diagnostics)


def test_audibility_nonisospectral_covers():
    o = [(0.0, 1)]
    report = hk.singularity_audibility_report(
        o, o, [(0.0, 1), (1.0, 1)], [(0.0, 1), (2.0, 1)], 2, 2
    )
    assert dict(report.premises)["covers_isospectral"] is False
    assert not report.consistent


_COVERS = (
    "the covers are not isospectral at the stated tolerance, so the argument "
    "does not start"
)
_QUOTIENTS = (
    "the quotient spectra differ, so no common heat expansion exists and no "
    "singularity comparison is implied"
)
_NO_INDICATOR = (
    "no singularity indicator available for at least one quotient; only the "
    "spectral premises were checked"
)
_O = [(0.0, 1), (4.0, 1)]
_M = [(0.0, 1), (1.0, 2), (3.0, 2), (4.0, 1)]
_I, _C = hk.interval_neumann_spectrum, hk.circle_spectrum


@pytest.mark.parametrize(
    "inputs, kwargs, diagnostics",
    [
        pytest.param(
            (_O, _O, [(0.0, 1), (1.0, 5)], _M, 3, 3), {}, (_COVERS, _NO_INDICATOR),
            id="covers",
        ),
        pytest.param(
            (_O, [(0.0, 1), (5.0, 1)], _M, _M, 3, 3), {}, (_QUOTIENTS, _NO_INDICATOR),
            id="quotients",
        ),
        pytest.param(
            (_O, _O, _M, _M, 2, 2),
            {},
            (
                "volumes do not match the claimed sheet counts: "
                "6.0 vs 2 * 2.0, 6.0 vs 2 * 2.0",
                _NO_INDICATOR,
            ),
            id="volume",
        ),
        pytest.param(
            # at nmax = 0 every spectrum is the single eigenvalue 0, so the
            # covers of lengths 6 and 9 pass as isospectral and only the
            # sheet counts 2 and 3 give the chain away
            (_I(3.0, 0), _I(3.0, 0), _C(6.0, 0), _C(9.0, 0), 2, 3),
            {"indicator_1": _smooth_indicator(), "indicator_2": _smooth_indicator()},
            ("equal volumes on both floors force equal sheet counts, but 2 != 3 was claimed",),
            id="degrees-alone",
        ),
        pytest.param(
            (_I(3.0, 20000), _C(3.0, 20000), _C(6.0, 20000), _C(7.0, 20000), 2, 3),
            {},
            (
                _COVERS,
                _QUOTIENTS,
                "volumes do not match the claimed sheet counts: "
                "6.0 vs 2 * 3.0, 7.0 vs 3 * 3.0",
                "singularity verdicts differ: singular vs smooth",
            ),
            id="several",
        ),
        pytest.param(
            (_I(3.0, 30), _I(3.0, 30), _C(6.0, 30), _C(6.0, 30), 2, 2),
            {},
            ("a singularity verdict is inconclusive",),
            id="inconclusive",
        ),
        pytest.param(
            (_O, _O, _M, _M, 3, 3),
            {
                "indicator_1": _smooth_indicator("smooth"),
                "indicator_2": _smooth_indicator("singular"),
            },
            ("singularity verdicts differ: smooth vs singular",),
            id="clash",
        ),
    ],
)
def test_audibility_diagnostics_pinned(inputs, kwargs, diagnostics):
    # each failed premise in premise order, then the verdict comparison;
    # the sheet-count message only when no other premise fails
    report = hk.singularity_audibility_report(*inputs, **kwargs)
    assert report.diagnostics == diagnostics


def test_audibility_rejects_bad_degrees():
    o = [(0.0, 1)]
    with pytest.raises(PreconditionError):
        hk.singularity_audibility_report(o, o, o, o, 0, 1)


# --- spectra files ---------------------------------------------------------------

def test_spectrum_json_roundtrip():
    spec = hk.interval_neumann_spectrum(np.pi, 4)
    buf = io.StringIO()
    hk.write_spectrum_json(spec, buf)
    pairs = hk.read_spectrum_json(io.StringIO(buf.getvalue()))
    assert len(pairs) == 5
    for (v, m), ev in zip(pairs, spec.eigenvalues):
        assert m == 1
        assert abs(v - ev) < 1e-12


def test_spectrum_json_accepts_plain_pairs():
    buf = io.StringIO()
    hk.write_spectrum_json([(0.0, 1), (1.5, 3)], buf)
    assert json.loads(buf.getvalue()) == [[0.0, 1], [1.5, 3]]


def _written(spec):
    buf = io.StringIO()
    hk.write_spectrum_json(spec, buf)
    return buf.getvalue()


def test_spectrum_json_written_from_each_kind():
    from sunadalab import quotspec as qs

    assert _written(hk.circle_spectrum(1.0, 2)) == (
        "[[0.0, 1], [39.4784176043574, 2], [157.91367041743, 2]]\n"
    )
    decomp = qs.SpectralDecomposition(
        values=np.array([0.0, 1 / 3, 1 / 3]), clusters=((0.0, 1), (1 / 3, 2)), cluster_tol=1e-8
    )
    assert _written(decomp) == "[[0.0, 1], [0.333333333333333, 2]]\n"
    pairs = [(0, 1), (np.float64(2) / 3, np.int64(2)), (1e-20, 3)]
    assert _written(pairs) == "[[0.0, 1], [0.666666666666667, 2], [1e-20, 3]]\n"


def test_spectrum_json_validation():
    for text in [
        "not json",
        '{"a": 1}',
        "[[0.0]]",
        '[[0.0, 1.5]]',
        "[[0.0, 0]]",
        "[[1.0, 1], [0.5, 1]]",
    ]:
        with pytest.raises(ParseError):
            hk.read_spectrum_json(io.StringIO(text))


def test_heat_trace_accepts_decomposition():
    from sunadalab import quotspec as qs

    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    decomp = qs.spectrum(qs.weighted_graph(w))
    curve = hk.heat_trace(decomp, [0.1, 1.0])
    direct = sum(math.exp(-v * 0.1) for v in decomp.values)
    assert curve.values[0] == pytest.approx(direct, abs=1e-12)
