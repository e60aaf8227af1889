import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phqreg import audio
from phqreg.audio import (
    BLOCK_FRAMES,
    FUNCTIONAL_NAMES,
    GROUP_LLDS,
    GROUP_NAMES,
    HOP_SECONDS,
    MIN_FRAMES,
    EmptyInputError,
    FrameSet,
    add_derivatives,
    apply_functionals,
    frame_signal,
    prosodic_llds,
    session_acoustic_vector,
    spectral_llds,
    voice_quality_llds,
)
from phqreg.corpus import AudioSignal, Session, Speaker, TurnRecord

RATE = 16000


def sine(freq, dur, rate=RATE, amp=1.0):
    t = np.arange(int(dur * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


def sawtooth(freq, dur, rate=RATE, amp=1.0):
    t = np.arange(int(dur * rate)) / rate
    return amp * (2.0 * ((freq * t) % 1.0) - 1.0)


def pulse_train(periods, rate=RATE, amps=None):
    """One sharp decaying pulse per cycle; peak exactly at each cycle start."""
    total = int(sum(periods))
    x = np.zeros(total)
    pos = 0
    for m, tau in enumerate(periods):
        amp = 1.0 if amps is None else amps[m]
        n = int(tau)
        x[pos : pos + n] = amp * np.exp(-np.arange(n) / (0.18 * tau))
        pos += n
    return x


def session_with(samples, rate=RATE, sid="s1", label=None):
    turns = (TurnRecord(0.0, len(samples) / rate, Speaker.PARTICIPANT, ("hi",)),)
    return Session(id=sid, turns=turns, audio=AudioSignal(samples, rate), label=label)


def frames_of(samples, rate=RATE):
    s = session_with(samples, rate)
    return frame_signal(s.audio, s.turns)


class TestFraming:
    def test_frame_count_single_turn(self):
        audio = AudioSignal(np.zeros(int(1.025 * RATE)), RATE)
        turns = (TurnRecord(0.0, 1.025, Speaker.PARTICIPANT, ()),)
        assert len(frame_signal(audio, turns)) == 101

    def test_turn_shorter_than_window(self):
        audio = AudioSignal(np.zeros(RATE), RATE)
        turns = (TurnRecord(0.0, 0.020, Speaker.PARTICIPANT, ()),)
        assert len(frame_signal(audio, turns)) == 0

    def test_two_turns_sum_no_boundary_frames(self):
        audio = AudioSignal(np.zeros(4 * RATE), RATE)
        one = (TurnRecord(0.0, 1.025, Speaker.PARTICIPANT, ()),)
        two = (
            TurnRecord(0.0, 1.025, Speaker.PARTICIPANT, ()),
            TurnRecord(2.0, 3.025, Speaker.PARTICIPANT, ()),
        )
        assert len(frame_signal(audio, two)) == 2 * len(frame_signal(audio, one))

    def test_agent_only_errors(self):
        audio = AudioSignal(np.zeros(RATE), RATE)
        turns = (TurnRecord(0.0, 1.0, Speaker.AGENT, ()),)
        with pytest.raises(EmptyInputError):
            frame_signal(audio, turns)

    def test_low_sample_rate_rejected(self):
        audio = AudioSignal(np.zeros(4000), 4000)
        turns = (TurnRecord(0.0, 1.0, Speaker.PARTICIPANT, ()),)
        with pytest.raises(ValueError, match="sample rate"):
            frame_signal(audio, turns)


def dft_centroid(frame, rate):
    """Direct-summation oracle: explicit DFT, power spectrum, weighted mean."""
    n = len(frame)
    ks = np.arange(n // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(ks, np.arange(n)) / n)
    power = np.abs(basis @ frame) ** 2
    freqs = ks * rate / n
    return float((freqs * power).sum() / power.sum())


class TestSpectral:
    def test_pure_tone_band_localization(self):
        tracks = spectral_llds(frames_of(sine(100, 0.5)))
        total = tracks["band_0_250"] + tracks["band_1000_4000"]
        assert np.all(tracks["band_0_250"] >= 0.99 * total)
        assert np.all(tracks["band_1000_4000"] <= 0.01 * tracks["band_0_250"])

    def test_stationary_signal_zero_flux(self):
        # 100 Hz at 16 kHz: the period (160) equals the hop, so frames repeat
        tracks = spectral_llds(frames_of(sine(100, 0.5)))
        assert tracks["flux"][0] == 0.0
        assert np.allclose(tracks["flux"][1:], 0.0, atol=1e-9)

    def test_white_noise_centroid_matches_oracle(self):
        rng = np.random.default_rng(7)
        frames = frames_of(rng.normal(0, 0.3, RATE // 2))
        got = spectral_llds(frames)["centroid"]
        windowed = frames.windowed()
        for i in range(0, len(frames), 7):
            assert got[i] == pytest.approx(dft_centroid(windowed[i], RATE), abs=1e-9)

    def test_all_zero_frame_conventions(self):
        tracks = spectral_llds(frames_of(np.zeros(RATE // 4)))
        for name in ("band_0_250", "rolloff_70", "centroid", "flux"):
            assert np.all(tracks[name] == 0.0)

    def test_rolloff_ordering_and_bounds(self):
        rng = np.random.default_rng(1)
        tracks = spectral_llds(frames_of(rng.normal(0, 0.3, RATE // 2)))
        assert np.all(tracks["rolloff_25"] <= tracks["rolloff_50"])
        assert np.all(tracks["rolloff_50"] <= tracks["rolloff_70"])
        assert np.all(tracks["rolloff_70"] <= tracks["rolloff_90"])
        assert np.all(tracks["rolloff_90"] <= RATE / 2)


class TestProsody:
    def test_sawtooth_f0(self):
        tracks = prosodic_llds(frames_of(sawtooth(200, 1.0)))
        f0 = tracks["f0"]
        ok = np.abs(f0 - 200.0) <= 5.0
        assert ok.mean() >= 0.90

    def test_silence(self):
        tracks = prosodic_llds(frames_of(np.zeros(RATE // 2)))
        assert np.all(tracks["f0"] == 0.0)
        assert np.all(tracks["voicing"] <= 0.01)
        assert np.all(np.isfinite(tracks["loudness"]))

    def test_envelope_holds_through_unvoiced_gap(self):
        x = np.concatenate([sine(200, 0.4), np.zeros(int(0.3 * RATE)), sine(250, 0.4)])
        tracks = prosodic_llds(frames_of(x))
        f0, env = tracks["f0"], tracks["f0_env"]
        voiced = np.where(f0 > 0)[0]
        gap = np.where(f0 == 0)[0]
        gap = gap[(gap > voiced[0]) & (gap < voiced[-1])]
        assert len(gap) > 0
        for g in gap:
            last = voiced[voiced < g][-1]
            assert env[g] == f0[last]

    def test_voicing_clamped(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([sine(150, 0.3), rng.normal(0, 0.3, RATE // 4)])
        tracks = prosodic_llds(frames_of(x))
        assert np.all((tracks["voicing"] >= 0.0) & (tracks["voicing"] <= 1.0))


class TestVoiceQuality:
    def vq(self, samples):
        frames = frames_of(samples)
        return frames, voice_quality_llds(frames, prosodic_llds(frames)["f0"])

    def test_pure_tone_no_cycle_variation(self):
        _, tracks = self.vq(sine(200, 0.5))
        assert np.allclose(tracks["jitter_local"], 0.0, atol=1e-12)
        assert np.allclose(tracks["shimmer_local"], 0.0, atol=1e-12)

    def test_planted_alternating_jitter(self):
        # alternating +-2% around 100 samples (160 Hz at 16 kHz)
        periods = [102 if m % 2 == 0 else 98 for m in range(120)]
        # brute-force oracle over the generated period sequence
        diffs = np.abs(np.diff(periods))
        oracle = diffs.mean() / np.mean(periods)
        assert oracle == pytest.approx(0.04, abs=1e-12)
        _, tracks = self.vq(pulse_train(periods))
        measured = tracks["jitter_local"]
        measured = measured[measured > 0]
        assert len(measured) > 10
        assert np.mean(measured) == pytest.approx(oracle, abs=0.005)

    def test_planted_ddp(self):
        periods = [102 if m % 2 == 0 else 98 for m in range(120)]
        oracle = np.abs(np.diff(periods, n=2)).mean() / np.mean(periods)  # 0.08
        _, tracks = self.vq(pulse_train(periods))
        measured = tracks["jitter_ddp"]
        measured = measured[measured > 0]
        assert np.mean(measured) == pytest.approx(oracle, abs=0.01)

    def test_planted_shimmer(self):
        periods = [100] * 120
        amps = [1.0 if m % 2 == 0 else 0.94 for m in range(120)]
        oracle = np.abs(np.diff(amps)).mean() / np.mean(amps)
        _, tracks = self.vq(pulse_train(periods, amps=amps))
        measured = tracks["shimmer_local"]
        measured = measured[measured > 0]
        assert np.mean(measured) == pytest.approx(oracle, abs=0.01)

    def test_unvoiced_frames_zero(self):
        _, tracks = self.vq(np.zeros(RATE // 2))
        for name in ("jitter_local", "jitter_ddp", "shimmer_local", "log_hnr"):
            assert np.all(tracks[name] == 0.0)

    def test_hnr_high_for_clean_tone(self):
        _, tracks = self.vq(sine(200, 0.5))
        assert np.all(tracks["log_hnr"] >= 10.0)
        assert np.all(tracks["log_hnr"] <= 100.0)


# ---------------------------------------------------------------------------
# reference implementations: voice quality one frame at a time, ACF and
# spectrum of all frames in one FFT
# ---------------------------------------------------------------------------


def acf_oracle(x):
    """Normalized ACF of all frames in one FFT (no blocks)."""
    n, flen = x.shape
    nfft = 1 << int(np.ceil(np.log2(2 * flen)))
    spec = np.fft.rfft(x, n=nfft, axis=1)
    acf = np.fft.irfft(np.abs(spec) ** 2, n=nfft, axis=1)[:, :flen]
    r0 = acf[:, 0:1]
    lags = np.arange(flen)
    corr = flen / np.maximum(flen - lags, 1)
    return np.divide(acf, r0, out=np.zeros_like(acf), where=r0 > 0) * corr


def cycle_peaks_oracle(x, period):
    if len(x) < 3:
        return np.array([], dtype=int)
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
    cand = np.where(interior)[0] + 1
    peak_floor = 0.5 * x.max()
    cand = cand[x[cand] >= peak_floor]
    kept = []
    min_sep = 0.4 * period
    for i in cand:
        if kept and i - kept[-1] < min_sep:
            if x[i] > x[kept[-1]]:
                kept[-1] = int(i)
        else:
            kept.append(int(i))
    return np.array(kept, dtype=int)


def voice_quality_oracle(samples, rate, f0):
    """One frame at a time, numpy reductions throughout."""
    acf = acf_oracle(samples)
    n, flen = samples.shape
    out = {name: np.zeros(n) for name in ("jitter_local", "jitter_ddp", "shimmer_local", "log_hnr")}
    for t in range(n):
        if f0[t] <= 0:
            continue
        period = rate / f0[t]
        x = samples[t]
        if x.max() <= 0:
            continue
        lag = int(round(period))
        if 0 < lag < flen:
            r = float(np.clip(acf[t, lag], 1e-10, 1.0 - 1e-10))
            out["log_hnr"][t] = 10.0 * np.log10(r / (1.0 - r))
        peaks = cycle_peaks_oracle(x, period)
        if len(peaks) >= 2:
            periods = np.diff(peaks).astype(np.float64)
            ok = (periods >= 0.3 * period) & (periods <= 1.7 * period)
            periods = periods[ok]
            amps = x[peaks]
            if len(periods) >= 2:
                out["jitter_local"][t] = np.mean(np.abs(np.diff(periods))) / np.mean(periods)
            if len(periods) >= 3:
                out["jitter_ddp"][t] = np.mean(np.abs(np.diff(periods, n=2))) / np.mean(periods)
            if len(amps) >= 2 and np.mean(amps) > 0:
                out["shimmer_local"][t] = np.mean(np.abs(np.diff(amps))) / np.mean(amps)
    return out


def jittered_pulses(flen, period, rng):
    """Decaying pulses with +-5% cycle jitter and random heights, over a noise floor."""
    x = rng.normal(0.0, 0.01, flen)
    pos = rng.uniform(0.0, period)
    while pos < flen:
        i = int(pos)
        k = min(flen - i, int(period) + 1)
        x[i : i + k] += rng.uniform(0.5, 1.0) * np.exp(-np.arange(k) / (0.18 * period))
        pos += period * rng.uniform(0.95, 1.05)
    return x


@st.composite
def vq_inputs(draw):
    rate = draw(st.sampled_from([8000, 16000]))
    flen = int(round(0.025 * rate))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, f0 = [], []
    kinds = st.sampled_from(["zero", "noise", "negative", "pulses", "coarse"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        freq = draw(st.floats(55.0, 400.0))
        if kind == "zero":
            rows.append(np.zeros(flen))
        elif kind == "noise":
            rows.append(rng.normal(0.0, 0.3, flen))
        elif kind == "negative":
            rows.append(-np.abs(rng.normal(0.0, 0.3, flen)))
        elif kind == "pulses":
            rows.append(jittered_pulses(flen, rate / freq, rng))
        else:
            # few amplitude levels: equal peak heights, as in low-level 16-bit audio
            rows.append(np.round(4.0 * jittered_pulses(flen, rate / freq, rng)) / 4.0)
        f0.append(draw(st.sampled_from([
            0.0,  # unvoiced
            freq,  # the true pitch
            freq * draw(st.floats(0.5, 2.0)),  # a wrong estimate
            rate / (draw(st.integers(20, 140)) + 0.5),  # period halfway between two lags
            1.7 * rate / round(rate / freq),  # the true cycle is 1.7 periods: the longest accepted
        ])))
    return np.array(rows), rate, np.array(f0)


class TestVoiceQualityOracle:
    def check(self, samples, rate, f0):
        got = voice_quality_llds(FrameSet(samples, rate), f0)
        want = voice_quality_oracle(samples, rate, f0)
        for name, values in got.items():
            assert values.tobytes() == want[name].tobytes(), name

    @settings(max_examples=150, deadline=None)
    @given(vq_inputs())
    def test_matches_per_frame_loop_bytes(self, case):
        self.check(*case)

    def test_many_cycle_frames_take_the_pairwise_mean_path(self):
        # 390 Hz at 16 kHz: about ten cycles per 25 ms frame
        rng = np.random.default_rng(4)
        samples = np.array([jittered_pulses(400, RATE / 390.0, rng) for _ in range(40)])
        f0 = np.full(40, 390.0)
        counts = [len(cycle_peaks_oracle(x, RATE / 390.0)) for x in samples]
        assert max(counts) >= 9  # >= 8 amplitude differences: np.mean sums pairwise
        self.check(samples, RATE, f0)

    def test_equal_peaks_within_a_cycle_keep_the_first(self):
        x = np.zeros(400)
        for m, start in enumerate(range(10, 390, 100)):
            x[start] = 1.0
            if m % 2:
                x[start + 3] = 1.0  # an equal maximum closer than 0.4 periods
        got = voice_quality_llds(FrameSet(x[None, :], RATE), np.array([RATE / 100.0]))
        assert got["jitter_local"][0] == 0.0
        self.check(x[None, :], RATE, np.array([RATE / 100.0]))

    def test_prosody_f0_on_speech_like_frames(self):
        for x in (sawtooth(180, 0.6, amp=0.4), pulse_train([102 if m % 2 else 98 for m in range(80)])):
            frames = frames_of(x)
            f0 = prosodic_llds(frames)["f0"]
            self.check(frames.samples, RATE, f0)


def spectral_oracle(frames):
    """All frames in one FFT (no blocks)."""
    spec = np.fft.rfft(frames.windowed(), axis=1)
    power = np.abs(spec) ** 2
    mag = np.abs(spec)
    freqs = np.fft.rfftfreq(frames.frame_len, d=1.0 / frames.rate)
    total = power.sum(axis=1)
    nonzero = total > 0.0
    tracks = {}
    for (lo, hi), name in zip(((0.0, 250.0), (0.0, 650.0), (250.0, 650.0), (1000.0, 4000.0)),
                              ("band_0_250", "band_0_650", "band_250_650", "band_1000_4000")):
        tracks[name] = power[:, (freqs >= lo) & (freqs <= hi)].sum(axis=1)
    cum = np.cumsum(power, axis=1)
    for pct in (25, 50, 70, 90):
        idx = np.argmax(cum >= pct / 100 * total[:, None], axis=1)
        tracks[f"rolloff_{pct}"] = np.where(nonzero, freqs[idx], 0.0)
    centroid = np.zeros(len(frames))
    centroid[nonzero] = (power[nonzero] * freqs).sum(axis=1) / total[nonzero]
    tracks["centroid"] = centroid
    mag_sum = mag.sum(axis=1, keepdims=True)
    norm = np.divide(mag, mag_sum, out=np.zeros_like(mag), where=mag_sum > 0)
    flux = np.zeros(len(frames))
    flux[1:] = np.sqrt(((norm[1:] - norm[:-1]) ** 2).sum(axis=1))
    tracks["flux"] = flux
    tracks["max_pos"] = freqs[np.argmax(power, axis=1)]
    tracks["min_pos"] = freqs[np.argmin(power, axis=1)]
    return tracks


class TestBlocks:
    @pytest.fixture(scope="class")
    def long_frames(self):
        rate = 8000
        rng = np.random.default_rng(9)
        n = int(26.0 * rate)
        x = 0.3 * (2.0 * ((170.0 * np.arange(n) / rate) % 1.0) - 1.0) + rng.normal(0.0, 0.05, n)
        x[int(5.0 * rate) : int(6.0 * rate)] = 0.0  # all-zero frames: r0 = 0 rows
        frames = frames_of(x, rate)
        assert len(frames) > 2 * BLOCK_FRAMES
        return frames

    @staticmethod
    def blocks(frames):
        return [frames.block(lo, lo + BLOCK_FRAMES) for lo in range(0, len(frames), BLOCK_FRAMES)]

    def test_blocked_acf_equals_single_block(self, long_frames):
        got = np.concatenate([block.acf for block in self.blocks(long_frames)])
        assert got.tobytes() == acf_oracle(long_frames.samples).tobytes()

    def test_blocked_spectrum_equals_single_block(self, long_frames):
        want = spectral_oracle(long_frames)
        blocks = self.blocks(long_frames)
        per_block = [spectral_llds(blocks[0])]
        per_block += [spectral_llds(block, before.samples[-1]) for before, block in zip(blocks, blocks[1:])]
        assert list(per_block[0]) == list(want)
        for name in want:
            got = np.concatenate([tracks[name] for tracks in per_block])
            assert got.tobytes() == want[name].tobytes(), name


def edge_session(rate):
    """A voiced sawtooth, an unvoiced noise gap, then a voiced tone: 100 frames."""
    rng = np.random.default_rng(3)
    x = np.concatenate([
        sawtooth(180, 0.29, rate, 0.5), rng.normal(0.0, 0.05, int(0.28 * rate)), sine(300, 0.45, rate, 0.4),
    ])
    return session_with(x, rate)


class TestBlockedPass:
    @pytest.mark.parametrize("rate", [8000, 16000])
    def test_vectors_do_not_depend_on_block_size(self, rate, monkeypatch):
        s = edge_session(rate)
        frames = frame_signal(s.audio, s.turns)
        # with 7-frame blocks, the block at frame 35 starts inside the unvoiced
        # gap (the f0 envelope carries the last voiced f0 into it) and the one
        # at frame 56 starts at the gap-to-tone spectral change (flux carries
        # the previous frame's spectrum)
        prosody = prosodic_llds(frames)
        assert np.all(prosody["f0"][35:42] == 0.0) and prosody["f0_env"][35] > 0.0
        assert spectral_llds(frames)["flux"][56] > 0.1

        def vectors(block_frames):
            monkeypatch.setattr(audio, "BLOCK_FRAMES", block_frames)
            return {g: session_acoustic_vector(s, g).values.tobytes() for g in ("S", "P", "VQ", "M")}

        whole = vectors(len(frames) + 1)
        assert vectors(1) == whole
        assert vectors(7) == whole

    def test_peak_memory_flat_in_session_length(self):
        def session_peak(n_blocks):
            rate = 8000
            n = int((n_blocks * BLOCK_FRAMES + 3) * HOP_SECONDS * rate)
            rng = np.random.default_rng(n_blocks)
            s = session_with(sawtooth(150, n / rate, rate, 0.3) + rng.normal(0.0, 0.01, n), rate)
            tracemalloc.start()
            try:
                session_acoustic_vector(s, "M")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        session_peak(1)  # warm-up: first-call allocations do not count
        # frame-sized arrays of the whole session would make the 8-block
        # peak about twice the 2-block one; the per-frame tracks add about 6 %
        short, long = session_peak(2), session_peak(8)
        assert long <= 1.25 * short, (short, long)


def delta_oracle(values, width=2):
    """Brute-force regression-window delta with replicated edges."""
    n = len(values)
    out = np.zeros(n)
    denom = 2.0 * sum(k * k for k in range(1, width + 1))
    for t in range(n):
        acc = 0.0
        for k in range(1, width + 1):
            right = values[min(t + k, n - 1)]
            left = values[max(t - k, 0)]
            acc += k * (right - left)
        out[t] = acc / denom
    return out


class TestDerivatives:
    def track(self, values):
        return np.asarray(values, dtype=float)

    def test_constant_zero(self):
        d1, d2 = add_derivatives(self.track(np.full(10, 3.3)))
        assert np.all(d1 == 0.0)
        assert np.all(d2 == 0.0)

    def test_linear_ramp_interior_slope(self):
        a = 0.7
        d1, _ = add_derivatives(self.track(a * np.arange(20)))
        assert np.allclose(d1[2:-2], a, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 2, 64)
        d1, d2 = add_derivatives(self.track(x))
        np.testing.assert_allclose(d1, delta_oracle(x), atol=1e-12)
        np.testing.assert_allclose(d2, delta_oracle(delta_oracle(x)), atol=1e-12)

    def test_short_track_rejected(self):
        with pytest.raises(ValueError):
            add_derivatives(self.track([1.0, 2.0, 3.0, 4.0]))

    def test_names_and_orders(self):
        # each LLD, then its delta (_de) and delta-delta (_de2), each over the functionals
        for group, llds in GROUP_LLDS.items():
            want = [f"{group}.{lld}{suffix}" for lld in llds for suffix in ("", "_de", "_de2")]
            names = GROUP_NAMES[group]
            assert len(names) == {"S": 864, "P": 288, "VQ": 288}[group]
            assert [n.rsplit(".", 1)[0] for n in names[:: len(FUNCTIONAL_NAMES)]] == want
            assert [n.rsplit(".", 1)[1] for n in names[: len(FUNCTIONAL_NAMES)]] == list(FUNCTIONAL_NAMES)
        assert GROUP_NAMES["M"] == GROUP_NAMES["P"] + GROUP_NAMES["S"] + GROUP_NAMES["VQ"]


def functionals_oracle(x):
    """Independent re-derivation: explicit formulas, normal-equation fits."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    t = np.arange(n, dtype=float)

    def lsq(cols):
        A = np.stack(cols, axis=1)
        coef = np.linalg.solve(A.T @ A, A.T @ x)
        return coef, float(np.mean((A @ coef - x) ** 2))

    (slope, offset), lin_err = lsq([t, np.ones(n)])
    (qa, qb, qc), quad_err = lsq([t**2, t, np.ones(n)])

    zc = sum(1 for i in range(n - 1) if x[i] * x[i + 1] < 0) / (n - 1)
    peaks = [i for i in range(1, n - 1) if x[i] > x[i - 1] and x[i] > x[i + 1] and x[i] > x.mean()]
    pdist = float(np.mean(np.diff(peaks))) if len(peaks) >= 2 else 0.0
    pamp = float(np.mean([x[i] for i in peaks])) if peaks else 0.0
    nz = [abs(v) for v in x if v != 0]
    geo = float(np.exp(np.mean(np.log(nz)))) if nz else 0.0
    sx = float(x.sum())
    cent = float((t * x).sum() / sx) if sx != 0 else 0.0
    mean = float(x.mean())
    var = float(np.mean((x - mean) ** 2))
    std = var**0.5
    skew = float(np.mean((x - mean) ** 3) / std**3) if std > 0 else 0.0
    kurt = float(np.mean((x - mean) ** 4) / var**2) if var > 0 else 0.0
    return np.array([
        x.max() - x.min(), float(np.argmax(x)), float(np.argmin(x)),
        slope, offset, lin_err, qa, qb, qc, quad_err,
        zc, float(len(peaks)), pdist, pamp,
        geo, float(np.count_nonzero(x)), cent,
        var, std, skew, kurt, mean, x.max(), x.min(),
    ])


class TestFunctionals:
    def test_hand_countable_track(self):
        vals = dict(zip(FUNCTIONAL_NAMES, apply_functionals(np.array([1.0, 3.0, 2.0]))))
        assert vals["range"] == 2.0
        assert vals["argmax_pos"] == 1.0
        assert vals["argmin_pos"] == 0.0
        assert vals["zcr"] == 0.0
        assert vals["n_peaks"] == 1.0
        assert vals["peak_amp_mean"] == 3.0
        assert vals["peak_dist_mean"] == 0.0

    def test_constant_track_conventions(self):
        c = -2.5
        vals = dict(zip(FUNCTIONAL_NAMES, apply_functionals(np.full(12, c))))
        assert vals["variance"] == 0.0
        assert vals["skewness"] == 0.0
        assert vals["kurtosis"] == 0.0
        assert vals["geo_mean_nz"] == pytest.approx(abs(c), abs=1e-12)
        assert vals["n_nonzero"] == 12.0
        assert vals["mean"] == c

    def test_output_length_and_order(self):
        assert len(FUNCTIONAL_NAMES) == 24
        assert len(apply_functionals(np.arange(5.0))) == 24

    def test_random_track_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(0, 3, 50)
            np.testing.assert_allclose(apply_functionals(x), functionals_oracle(x), atol=1e-9, rtol=1e-9)

    def test_short_track_rejected(self):
        with pytest.raises(ValueError):
            apply_functionals(np.array([1.0, 2.0]))


def two_turn_session(rate=RATE, sid="s1", freq=180.0, amp=0.5, silent=False):
    dur = 3.0
    samples = np.zeros(int(dur * rate))
    spans = ((0.2, 1.3), (1.6, 2.8))
    if not silent:
        for lo, hi in spans:
            i, j = int(lo * rate), int(hi * rate)
            t = np.arange(j - i) / rate
            samples[i:j] = amp * (2.0 * ((freq * t) % 1.0) - 1.0)
    turns = tuple(
        [TurnRecord(1.35, 1.55, Speaker.AGENT, ("ok",))]
        + [TurnRecord(lo, hi, Speaker.PARTICIPANT, ("hi",)) for lo, hi in spans]
    )
    turns = tuple(sorted(turns, key=lambda t: t.start))
    return Session(id=sid, turns=turns, audio=AudioSignal(samples, rate))


class TestSessionVectors:
    def test_dimensions(self):
        s = two_turn_session()
        assert len(session_acoustic_vector(s, "S").values) == 864
        assert len(session_acoustic_vector(s, "P").values) == 288
        assert len(session_acoustic_vector(s, "VQ").values) == 288

    def test_deterministic(self):
        s = two_turn_session()
        a = session_acoustic_vector(s, "S")
        b = session_acoustic_vector(s, "S")
        assert a.names == b.names
        np.testing.assert_array_equal(a.values, b.values)

    def test_silent_session_finite(self):
        s = two_turn_session(silent=True)
        for group in ("S", "P", "VQ"):
            vec = session_acoustic_vector(s, group)
            assert np.all(np.isfinite(vec.values))

    def test_merge_dimensions_and_order(self):
        s = two_turn_session()
        p = session_acoustic_vector(s, "P")
        sv = session_acoustic_vector(s, "S")
        m = session_acoustic_vector(s, "M")
        assert len(m.values) == 1440
        np.testing.assert_array_equal(m.values[:288], p.values)
        np.testing.assert_array_equal(m.values[288:1152], sv.values)
        assert m.names[:288] == p.names
        assert len(set(m.names)) == 1440
        assert all(n.startswith(("P.", "S.", "VQ.")) for n in m.names)

    @pytest.mark.parametrize("rate", [8000, 16000])
    def test_one_pass_merge_equals_merge_groups(self, rate):
        s = two_turn_session(rate=rate)
        # M from one pass equals the groups extracted one by one, merged in P, S, VQ order
        m = session_acoustic_vector(s, "M")
        groups = [session_acoustic_vector(s, g) for g in ("P", "S", "VQ")]
        assert (m.group, m.session_id) == ("M", s.id)
        assert m.names == sum((v.names for v in groups), ())
        assert m.values.tobytes() == np.concatenate([v.values for v in groups]).tobytes()

    def test_fewer_frames_than_delta_window(self):
        audio = AudioSignal(np.zeros(RATE), RATE)
        # 25 ms window + (MIN_FRAMES - 2) hops: one frame short of the delta window
        stop = 0.025 + 0.010 * (MIN_FRAMES - 2) + 0.001
        s = Session(id="x", turns=(TurnRecord(0.0, stop, Speaker.PARTICIPANT, ()),), audio=audio)
        assert len(frames_of(np.zeros(RATE))) >= MIN_FRAMES
        assert len(frame_signal(audio, s.turns)) == MIN_FRAMES - 1
        for group in ("S", "M"):
            with pytest.raises(EmptyInputError, match="delta window"):
                session_acoustic_vector(s, group)

    def test_low_sample_rate_is_an_input_skip(self):
        s = session_with(np.zeros(4000), rate=4000)
        with pytest.raises(EmptyInputError, match="sample rate"):
            session_acoustic_vector(s, "M")

    def test_empty_frames_error(self):
        audio = AudioSignal(np.zeros(RATE), RATE)
        turns = (TurnRecord(0.0, 0.01, Speaker.PARTICIPANT, ()),)
        s = Session(id="x", turns=turns, audio=audio)
        with pytest.raises(EmptyInputError):
            session_acoustic_vector(s, "S")


class TestInvariances:
    def test_time_shift_leaves_functionals_unchanged(self):
        s = two_turn_session()
        shift = 2.0
        shifted_samples = np.concatenate([np.zeros(int(shift * RATE)), s.audio.samples])
        shifted_turns = tuple(
            TurnRecord(t.start + shift, t.stop + shift, t.speaker, t.text) for t in s.turns
        )
        s2 = Session(id=s.id, turns=shifted_turns, audio=AudioSignal(shifted_samples, RATE))
        for group in ("S", "P", "VQ"):
            a = session_acoustic_vector(s, group)
            b = session_acoustic_vector(s2, group)
            np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_amplitude_scaling_effects(self):
        g = 2.5
        base = sawtooth(180, 0.8, amp=0.3)
        f1 = frames_of(base)
        f2 = frames_of(g * base)

        p1 = prosodic_llds(f1)
        p2 = prosodic_llds(f2)
        np.testing.assert_allclose(p1["f0"], p2["f0"], atol=1e-9)
        np.testing.assert_allclose(p1["voicing"], p2["voicing"], atol=1e-9)
        np.testing.assert_allclose(p2["loudness"] - p1["loudness"], 2.0 * np.log(g), atol=1e-9)

        s1 = spectral_llds(f1)
        s2 = spectral_llds(f2)
        np.testing.assert_allclose(s2["band_0_250"], g * g * s1["band_0_250"], rtol=1e-9)

        v1 = voice_quality_llds(f1, p1["f0"])
        v2 = voice_quality_llds(f2, p2["f0"])
        np.testing.assert_allclose(v1["jitter_local"], v2["jitter_local"], atol=1e-9)

    def test_clipping_and_tiny_turn_edge_cases_stay_finite(self):
        clipped = np.clip(3.0 * sine(150, 1.2), -1.0, 1.0)
        audio = AudioSignal(clipped, RATE)
        turns = (
            TurnRecord(0.0, 1.0, Speaker.PARTICIPANT, ()),
            TurnRecord(1.1, 1.1 + 1.0 / RATE, Speaker.PARTICIPANT, ()),  # single-sample turn
        )
        s = Session(id="x", turns=turns, audio=audio)
        for group in ("S", "P", "VQ"):
            assert np.all(np.isfinite(session_acoustic_vector(s, group).values))
