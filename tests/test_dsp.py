import numpy as np
import pytest

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
