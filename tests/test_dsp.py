"""DSP primitives: filters, chirps, spectra."""

import numpy as np
import pytest
from scipy import signal

from repro.dsp.chirp import StreamingCorrelator, linear_chirp, matched_filter_peak
from repro.dsp.filters import (
    BATCH_ROWS,
    BlockConvolver,
    filter_signal,
    fir_bandpass,
    fir_lowpass,
    resample,
)
from repro.dsp.spectrum import band_power_db, power_db, rms
from tests.reference.streaming_dsp import StreamingCorrelatorRef


class TestFilters:
    def test_lowpass_attenuates_high_band(self):
        fs = 48_000.0
        taps = fir_lowpass(5_000.0, fs, 255)
        t = np.arange(4800) / fs
        low = np.sin(2 * np.pi * 1_000 * t)
        high = np.sin(2 * np.pi * 15_000 * t)
        out = filter_signal(taps, low + high)
        # The filtered signal should closely track the low tone only.
        core = slice(500, -500)
        assert np.max(np.abs(out[core] - low[core])) < 0.05

    def test_bandpass_selects_band(self):
        fs = 192_000.0
        taps = fir_bandpass(55_000, 59_000, fs, 511)
        t = np.arange(19_200) / fs
        inside = np.sin(2 * np.pi * 57_000 * t)
        outside = np.sin(2 * np.pi * 19_000 * t)
        out = filter_signal(taps, inside + outside)
        assert band_power_db(out, fs, 56_000, 58_000) > band_power_db(
            out, fs, 18_000, 20_000
        ) + 30

    def test_delay_compensation_aligns(self):
        fs = 48_000.0
        taps = fir_lowpass(8_000.0, fs, 127)
        t = np.arange(2400) / fs
        x = np.sin(2 * np.pi * 2_000 * t)
        y = filter_signal(taps, x)
        lag = np.argmax(np.correlate(y[200:-200], x[200:-200], "full")) - (
            x[200:-200].size - 1
        )
        assert abs(lag) <= 1

    def test_invalid_cutoffs(self):
        with pytest.raises(ValueError):
            fir_lowpass(30_000, 48_000)
        with pytest.raises(ValueError):
            fir_bandpass(5_000, 4_000, 48_000)
        with pytest.raises(ValueError):
            fir_lowpass(1_000, 48_000, num_taps=128)  # even taps

    def test_resample_ratio(self):
        x = np.sin(np.linspace(0, 20 * np.pi, 1000))
        up = resample(x, 4, 1)
        assert up.size == 4000
        down = resample(up, 1, 4)
        assert down.size == 1000
        assert np.max(np.abs(down[50:-50] - x[50:-50])) < 0.02

    def test_resample_identity(self):
        x = np.arange(10.0)
        assert np.array_equal(resample(x, 3, 3), x)

    @pytest.mark.parametrize(
        "num_taps,block", [(127, 4096), (511, 4096), (1920, 30_720), (5, 7)]
    )
    def test_block_convolver_rows_match_per_segment_fftconvolve(self, num_taps, block):
        rng = np.random.default_rng(num_taps)
        taps = rng.normal(size=num_taps)
        conv = BlockConvolver(taps, block)
        seg = block + num_taps - 1
        n_batch = BATCH_ROWS + 3  # one full batch and a partial one
        for size in (num_taps - 1, seg - 1, seg, seg + block // 2, seg + n_batch * block):
            x = rng.normal(size=size)
            n = max(0, (size - num_taps + 1) // block)
            rows = [
                signal.fftconvolve(x[k * block : k * block + seg], taps, mode="valid")
                for k in range(n)
            ]
            rest = x[n * block :]
            if rest.size >= num_taps:
                rows.append(signal.fftconvolve(rest, taps, mode="valid"))
            for final in (False, True):
                got = list(conv.batches(x, final))
                assert all(b.size <= BATCH_ROWS * block for b in got)
                got = np.concatenate(got) if got else np.zeros(0)
                want = rows if final else rows[:n]
                want = np.concatenate(want) if want else np.zeros(0)
                assert got.size == want.size and np.array_equal(got, want)


class TestChirp:
    def test_duration_and_amplitude(self):
        c = linear_chirp(1_000, 5_000, 0.05, 48_000, amplitude=0.5)
        assert c.size == 2400
        assert np.max(np.abs(c)) <= 0.5 + 1e-9

    def test_matched_filter_finds_position(self):
        c = linear_chirp(2_000, 12_000, 0.03, 48_000)
        x = np.zeros(20_000)
        x[7_000 : 7_000 + c.size] = c
        rng = np.random.default_rng(0)
        x += rng.normal(0, 0.2, x.size)
        peaks = matched_filter_peak(x, c, threshold=0.4)
        assert len(peaks) == 1
        assert abs(peaks[0][0] - 7_000) <= 2

    def test_multiple_occurrences(self):
        c = linear_chirp(2_000, 12_000, 0.02, 48_000)
        x = np.zeros(30_000)
        for start in (2_000, 12_000, 25_000):
            x[start : start + c.size] = c
        peaks = matched_filter_peak(x, c, threshold=0.5)
        assert [p for p, _ in peaks] == pytest.approx([2_000, 12_000, 25_000], abs=2)

    def test_absent_template(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 10_000)
        c = linear_chirp(2_000, 12_000, 0.02, 48_000)
        assert matched_filter_peak(x, c, threshold=0.6) == []

    def test_short_buffer(self):
        c = linear_chirp(2_000, 12_000, 0.02, 48_000)
        assert matched_filter_peak(c[:100], c) == []

    def test_streaming_correlator_matches_per_block_reference(self):
        c = linear_chirp(2_000, 12_000, 0.02, 48_000)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 0.3, 200_000)
        x[50_000 : 50_000 + c.size] += c
        block = 16 * c.size
        chunkings = ([x.size], [4800], [block - 1, block + 1, 3 * block], [1, 997])
        for sizes in chunkings:
            got, want = StreamingCorrelator(c), StreamingCorrelatorRef(c)
            i = k = 0
            while i < x.size:
                step = int(sizes[k % len(sizes)])
                k += 1
                (s0, a), (s1, b) = got.push(x[i : i + step]), want.push(x[i : i + step])
                assert s0 == s1 and a.size == b.size and np.array_equal(a, b)
                i += step
            (s0, a), (s1, b) = got.flush(), want.flush()
            assert s0 == s1 and a.size == b.size and np.array_equal(a, b)
            assert got.scored == x.size - c.size + 1


class TestSpectrum:
    def test_rms_of_sine(self):
        t = np.arange(48_000) / 48_000
        x = np.sin(2 * np.pi * 440 * t)
        assert rms(x) == pytest.approx(1 / np.sqrt(2), rel=1e-3)

    def test_power_db_unit(self):
        assert power_db(np.ones(100)) == pytest.approx(0.0, abs=1e-9)

    def test_band_power_concentration(self):
        fs = 48_000.0
        t = np.arange(9_600) / fs
        x = np.sin(2 * np.pi * 9_200 * t)
        inside = band_power_db(x, fs, 9_000, 9_400)
        outside = band_power_db(x, fs, 1_000, 2_000)
        assert inside - outside > 40

    def test_empty_signal(self):
        assert rms(np.zeros(0)) == 0.0
        assert power_db(np.zeros(0)) == -200.0
