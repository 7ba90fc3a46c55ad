import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgscalo import dsp
from ecgscalo.dsp import IirCascade, RationalFilter
from ecgscalo.rpeak import pt_highpass, pt_lowpass

FS = 200.0


def closed_form_lowpass(f):
    """sin^2(3wT) / sin^2(wT/2) -- the printed amplitude response."""
    wt = 2 * np.pi * np.asarray(f) / FS
    return np.sin(3 * wt) ** 2 / np.sin(wt / 2) ** 2


def closed_form_highpass(f):
    """sqrt(1024 - 64 s cos(wT/2) + s^2), s = sin(16wT) / sin(wT/2).

    On the unit circle 32 z^-16 - (1 - z^-32)/(1 - z^-1) equals
    e^{-j31wT/2} (32 e^{-jwT/2} - s); its modulus is the expression above.
    """
    wt = 2 * np.pi * np.asarray(f) / FS
    s = np.sin(16 * wt) / np.sin(wt / 2)
    return np.sqrt(1024.0 - 64.0 * s * np.cos(wt / 2) + s ** 2)


class TestDesign:
    def test_unity_dc_gain(self):
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        assert abs(dsp.magnitude_response(c, 0.0, FS) - 1.0) < 1e-9

    def test_minus_3db_at_cutoff(self):
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        db = 20 * np.log10(dsp.magnitude_response(c, 35.0, FS))
        assert abs(db - (-3.0103)) < 0.1

    def test_stopband_at_double_cutoff(self):
        # direct polynomial evaluation of the designed coefficients
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        db = 20 * np.log10(dsp.magnitude_response(c, 70.0, FS))
        assert db <= -30.0

    def test_cutoff_beyond_nyquist_rejected(self):
        with pytest.raises(ValueError):
            dsp.design_butterworth_lowpass(6, 100.0, FS)
        with pytest.raises(ValueError):
            dsp.design_butterworth_lowpass(6, 120.0, FS)

    @pytest.mark.parametrize("order,fc,fs", [(2, 10.0, 100.0),
                                             (3, 10.0, 100.0),
                                             (4, 35.0, 200.0),
                                             (6, 35.0, 200.0),
                                             (6, 40.0, 300.0),
                                             (8, 0.7, 360.0)])
    def test_sections_strictly_stable(self, order, fc, fs):
        c = dsp.design_butterworth_lowpass(order, fc, fs)
        for _, _, _, a1, a2 in c.sections:
            assert np.max(np.abs(np.roots([1.0, a1, a2]))) < 1.0

    def test_magnitude_monotone_nonincreasing(self):
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        f = np.linspace(0.0, FS / 2, 400)
        m = dsp.magnitude_response(c, f, FS)
        assert np.all(np.diff(m) <= 1e-12)


class TestDesignCache:
    def test_design_is_cached_and_read_only(self):
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        assert dsp.design_butterworth_lowpass(6, 35.0, FS) is c
        with pytest.raises(ValueError):
            c.sections[0, 0] = 1.0

    def test_cached_design_equals_fresh_design(self):
        fresh = dsp.design_butterworth_lowpass.__wrapped__(6, 40.0, 300.0)
        cached = dsp.design_butterworth_lowpass(6, 40.0, 300.0)
        assert fresh is not cached
        np.testing.assert_array_equal(cached.sections, fresh.sections)
        assert cached.gain == fresh.gain

    @pytest.mark.parametrize("args", [(4, 35.0, FS), (6, 30.0, FS),
                                      (6, 35.0, 300.0)])
    def test_arguments_get_their_own_entries(self, args):
        base = dsp.design_butterworth_lowpass(6, 35.0, FS)
        other = dsp.design_butterworth_lowpass(*args)
        assert other is not base
        assert (other.gain != base.gain
                or not np.array_equal(other.sections, base.sections))

    def test_cascade_copies_its_sections(self):
        secs = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        c = IirCascade(sections=secs)
        secs[0, 0] = 2.0
        assert c.sections[0, 0] == 1.0


class TestApply:
    def test_zero_in_zero_out(self):
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        assert np.all(dsp.apply_filter(c, np.zeros(100)) == 0.0)

    def test_passthrough_section(self):
        ident = IirCascade(sections=[[1.0, 0.0, 0.0, 0.0, 0.0]])
        x = np.zeros(32)
        x[0] = 1.0
        np.testing.assert_array_equal(dsp.apply_filter(ident, x), x)

    def test_impulse_sum_matches_dc_gain(self):
        # DC gain of the integer low-pass is the z->1 limit, 6^2 = 36;
        # summing the simulated impulse response must agree
        x = np.zeros(64)
        x[0] = 1.0
        h = dsp.apply_filter(pt_lowpass(), x)
        assert h.sum() == pytest.approx(36.0, abs=1e-9)
        # the pole-zero cancellation is exact: the response is FIR
        assert np.all(h[12:] == 0.0)

    def test_highpass_impulse_sum_matches_dc_gain(self):
        # DC gain of the integer high-pass is 32 - 32 = 0 (delay minus
        # moving sum); its pole at z = 1 cancels, so the response is FIR
        x = np.zeros(64)
        x[0] = 1.0
        h = dsp.apply_filter(pt_highpass(), x)
        assert h.sum() == pytest.approx(0.0, abs=1e-9)
        assert np.all(h[33:] == 0.0)

    def test_length_preserved(self):
        c = dsp.design_butterworth_lowpass(4, 20.0, FS)
        for n in (1, 7, 100):
            assert dsp.apply_filter(c, np.ones(n)).size == n

    def test_linear(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=256), rng.normal(size=256)
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        lhs = dsp.apply_filter(c, 2.5 * x - 1.25 * y)
        rhs = 2.5 * dsp.apply_filter(c, x) - 1.25 * dsp.apply_filter(c, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_non_finite_rejected(self):
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        with pytest.raises(ValueError):
            dsp.apply_filter(c, np.array([1.0, np.inf]))

    @pytest.mark.parametrize("filt", [
        dsp.design_butterworth_lowpass(6, 35.0, 300.0), pt_lowpass()],
        ids=["cascade", "pt_lowpass"])
    @pytest.mark.parametrize("shape", [(2, 9000), (3, 40), (2, 1, 70)])
    def test_filters_along_last_axis(self, filt, shape):
        x = np.random.default_rng(3).normal(size=shape)
        y = dsp.apply_filter(filt, x)
        assert y.shape == x.shape
        for row in np.ndindex(shape[:-1]):
            np.testing.assert_array_equal(y[row], dsp.apply_filter(filt, x[row]))

    def test_empty_rows_and_scalars(self):
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        assert dsp.apply_filter(c, np.zeros((2, 0))).shape == (2, 0)
        assert dsp.apply_filter(c, np.zeros((0, 5))).shape == (0, 5)
        with pytest.raises(ValueError, match="scalar"):
            dsp.apply_filter(c, 1.0)


class TestMagnitudeResponse:
    def test_integer_lowpass_dc_limit(self):
        # series expansion of the closed form: sin^2(3wT)/sin^2(wT/2) -> 36
        assert dsp.magnitude_response(pt_lowpass(), 0.0, FS) == \
            pytest.approx(36.0, rel=1e-9)

    def test_integer_highpass_dc(self):
        # closed form at w=0: s -> 32, sqrt(1024 - 64 * 32 + 32^2) = 0;
        # cross-check: the numerator sums to -1 + 32 - 32 + 1 = 0
        assert dsp.magnitude_response(pt_highpass(), 0.0, FS) == \
            pytest.approx(0.0, abs=1e-12)
        assert -1 + 32 - 32 + 1 == 0

    def test_allpass_unity(self):
        ident = RationalFilter(num=[1.0], den=[1.0])
        for f in (0.0, 13.0, 50.0, 99.0):
            assert dsp.magnitude_response(ident, f, FS) == 1.0

    def test_lowpass_matches_closed_form_everywhere(self):
        f = np.linspace(0.0, FS / 2, 1002)[1:-1]
        mine = dsp.magnitude_response(pt_lowpass(), f, FS)
        ref = closed_form_lowpass(f)
        assert np.max(np.abs(mine - ref) / ref) < 1e-6

    def test_highpass_matches_closed_form_everywhere(self):
        f = np.linspace(0.0, FS / 2, 1002)[1:-1]
        mine = dsp.magnitude_response(pt_highpass(), f, FS)
        ref = closed_form_highpass(f)
        assert np.max(np.abs(mine - ref) / ref) < 1e-6

    def test_out_of_band_frequency_rejected(self):
        with pytest.raises(ValueError):
            dsp.magnitude_response(pt_lowpass(), 120.0, FS)

    def test_scalar_and_array_queries_agree(self):
        c = dsp.design_butterworth_lowpass(6, 35.0, FS)
        freqs = np.array([0.0, 12.5, 35.0, 80.0])
        vec = dsp.magnitude_response(c, freqs, FS)
        for f, v in zip(freqs, vec):
            assert dsp.magnitude_response(c, float(f), FS) == v


class TestTypes:
    def test_unstable_section_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            IirCascade(sections=[[1.0, 0.0, 0.0, -2.5, 1.5]])

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalFilter(num=[1.0], den=[0.0, 1.0])


def cascade_loop(cascade, x):
    """y[n] = sum b_k x[n-k] - sum a_k y[n-k], section by section, in
    Python floats; the oracle for ``apply_filter`` on a cascade."""
    y = [float(v) for v in x]
    for b0, b1, b2, a1, a2 in cascade.sections.tolist():
        out, x1, x2, y1, y2 = [], 0.0, 0.0, 0.0, 0.0
        for v in y:
            w = b0 * v + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
            x2, x1, y2, y1 = x1, v, y1, w
            out.append(w)
        y = out
    return cascade.gain * np.array(y)


def rational_loop(num, den, x):
    """The same difference equation for b(z^-1)/a(z^-1), a0 dividing."""
    b, a = np.asarray(num).tolist(), np.asarray(den).tolist()
    x, y = [float(v) for v in x], []
    for n in range(len(x)):
        acc = sum(bk * x[n - k] for k, bk in enumerate(b) if k <= n)
        acc -= sum(ak * y[n - k] for k, ak in enumerate(a) if 1 <= k <= n)
        y.append(acc / a[0])
    return np.array(y)


def random_input(rng, n):
    """Gaussian samples on a 2^-20 grid. With integer coefficients the
    loop then runs exactly, even through the Pan-Tompkins poles on the
    unit circle, which would otherwise integrate its own rounding."""
    return np.round(rng.normal(size=n) * 2.0 ** 20) / 2.0 ** 20


ORACLE_LENGTHS = (1, 2, 63, 64, 65, 700, 4097, 20000)


def assert_matches(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


CASCADE_DESIGNS = [
    (6, 35.0, 200.0), (6, 35.0, 300.0), (6, 35.0, 500.0),
    (2, 10.0, 100.0), (3, 10.0, 100.0), (5, 20.0, 300.0),
    (8, 40.0, 300.0),
    (8, 0.7, 360.0)]  # the long tail: over 4096 taps


def tail_bound(cascade, n):
    """The summed tail bound of ``IirCascade.taps`` written out directly,
    |b|_1 C(n + N - 1, N - 1) R^(n - M) / (1 - R (n + N) / (n + 1)), or
    inf where it does not hold."""
    b, radius = np.array([cascade.gain]), 0.0
    for b0, b1, b2, a1, a2 in cascade.sections:
        b = np.convolve(b, [b0, b1, b2])
        radius = max(radius, *np.abs(np.roots([1.0, a1, a2])))
    degree, poles = b.size - 1, 2 * len(cascade.sections)
    ratio = radius * (n + poles) / (n + 1)
    if n < degree or ratio >= 1.0:
        return math.inf
    return (float(np.sum(np.abs(b))) * math.comb(n + poles - 1, poles - 1)
            * radius ** (n - degree) / (1.0 - ratio))


class TestAgainstDifferenceEquation:
    @pytest.mark.parametrize("args", CASCADE_DESIGNS)
    def test_cascade(self, args):
        c = dsp.design_butterworth_lowpass(*args)
        rng = np.random.default_rng(int(args[2]) + args[0])
        for n in ORACLE_LENGTHS:
            x = random_input(rng, n)
            assert_matches(dsp.apply_filter(c, x), cascade_loop(c, x))

    @pytest.mark.parametrize("args", CASCADE_DESIGNS)
    def test_taps_cut_where_the_tail_bound_first_fits(self, args):
        # the taps are the impulse response up to the first n with
        # tail(n) <= TAIL_BOUND * peak; the slack covers the rounding of
        # the log-domain bound, while consecutive bounds differ by 0.2 % or
        # more on these designs
        c = dsp.design_butterworth_lowpass(*args)
        cut, slack = c.taps.size, 1.0 + 1e-9
        limit = dsp.TAIL_BOUND * np.max(np.abs(c.taps))
        assert tail_bound(c, cut) <= limit * slack
        assert limit < tail_bound(c, cut - 1) * slack
        impulse = np.zeros(cut)
        impulse[0] = 1.0
        np.testing.assert_array_equal(c.taps, cascade_loop(c, impulse))

    def test_long_tail_is_not_truncated(self):
        assert dsp.design_butterworth_lowpass(8, 0.7, 360.0).taps.size > 4096

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), order=st.integers(1, 8),
           fs=st.floats(100.0, 500.0), n=st.integers(1, 3000))
    def test_random_butterworth_designs(self, data, order, fs, n):
        fc = data.draw(st.floats(0.5, 0.45 * fs))
        c = dsp.design_butterworth_lowpass(order, fc, fs)
        x = random_input(np.random.default_rng(n), n)
        assert_matches(dsp.apply_filter(c, x), cascade_loop(c, x))

    @pytest.mark.parametrize("filt", [pt_lowpass(), pt_highpass(),
                                      # (2 - z^-1)(1 + z^-1): taps [1, 1]
                                      RationalFilter(num=[2.0, 1.0, -1.0],
                                                     den=[2.0, -1.0])],
                             ids=["pt_lowpass", "pt_highpass", "non_monic"])
    def test_rational(self, filt):
        rng = np.random.default_rng(7)
        for n in ORACLE_LENGTHS:
            x = random_input(rng, n)
            assert_matches(dsp.apply_filter(filt, x),
                           rational_loop(filt.num, filt.den, x))

    def test_pan_tompkins_filters_are_short_firs(self):
        # (1 - z^-6)^2 / (1 - z^-1)^2 = (1 + z^-1 + ... + z^-5)^2
        assert pt_lowpass().taps.tolist() == np.convolve(
            np.ones(6), np.ones(6)).tolist()
        # 32 z^-16 minus the 32-point moving sum
        expected = -np.ones(32)
        expected[16] += 32.0
        assert pt_highpass().taps.tolist() == expected.tolist()

    def test_one_pole_is_not_fir(self):
        with pytest.raises(ValueError, match="not an FIR"):
            RationalFilter(num=[1.0], den=[1.0, -0.5])
        with pytest.raises(ValueError, match="not an FIR"):
            RationalFilter(num=[1.0, 0.3], den=[1.0, -0.5, 0.3, -0.1])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3000))
    def test_random_stable_sections(self, data, n):
        sections = []
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):  # a conjugate pair
                r = data.draw(st.floats(0.0, 0.95))
                theta = data.draw(st.floats(0.0, np.pi))
                a1, a2 = -2.0 * r * np.cos(theta), r * r
            else:  # two real poles
                p, q = (data.draw(st.floats(-0.95, 0.95)) for _ in range(2))
                a1, a2 = -(p + q), p * q
            b = [data.draw(st.floats(0.1, 2.0)) * data.draw(
                st.sampled_from([-1.0, 1.0])) for _ in range(3)]
            sections.append(b + [a1, a2])
        c = IirCascade(sections=sections,
                       gain=data.draw(st.floats(0.1, 10.0)))
        x = random_input(np.random.default_rng(n), n)
        assert_matches(dsp.apply_filter(c, x), cascade_loop(c, x))


class TestButterworthPoles:
    @pytest.mark.parametrize("order,fc,fs", [(2, 10.0, 100.0),
                                             (3, 10.0, 100.0),
                                             (4, 35.0, 200.0),
                                             (6, 35.0, 300.0),
                                             (8, 40.0, 300.0)])
    def test_poles_are_the_mapped_prototype(self, order, fc, fs):
        c = dsp.design_butterworth_lowpass(order, fc, fs)
        k = np.arange(order)
        analog = np.exp(1j * np.pi * (2 * k + order + 1) / (2 * order))
        warped = 2.0 * fs * np.tan(np.pi * fc / fs)  # prewarped cutoff
        expected = (2.0 * fs + warped * analog) / (2.0 * fs - warped * analog)
        designed = np.concatenate([np.roots([1.0, a1, a2])
                                   for *_, a1, a2 in c.sections])
        designed = designed[designed != 0]  # a first-order section's a2 = 0
        assert designed.size == order
        for p in expected:
            assert np.min(np.abs(designed - p)) < 1e-12
        # scipy's order: the pair nearest the unit circle last, and an odd
        # order's single real pole in a first-order section first
        radii = [np.max(np.abs(np.roots([1.0, a1, a2])))
                 for *_, a1, a2 in c.sections]
        assert radii == sorted(radii)
        if order % 2:
            assert c.sections[0, 2] == 0.0 and c.sections[0, 4] == 0.0
        assert len(c.sections) == (order + 1) // 2

    @pytest.mark.parametrize("args", [(6, 35.0, 200.0), (6, 35.0, 300.0),
                                      (3, 10.0, 100.0)])
    def test_every_section_has_unit_dc_gain(self, args):
        c = dsp.design_butterworth_lowpass(*args)
        assert c.gain == 1.0
        for b0, b1, b2, a1, a2 in c.sections:
            assert (b0 + b1 + b2) / (1.0 + a1 + a2) == pytest.approx(
                1.0, abs=1e-15)


def test_cli_import_loads_no_scipy():
    """The cold start of every command: scipy must stay out of it."""
    src = Path(dsp.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, ecgscalo.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
