import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phqreg import audio
from phqreg.audio import (
    BLOCK_FRAMES,
    FRAME_SECONDS,
    FUNCTIONAL_NAMES,
    GROUP_COLUMNS,
    GROUP_LLDS,
    GROUP_NAMES,
    HOP_SECONDS,
    MIN_FRAMES,
    SPECTRAL_BANDS,
    SPECTRAL_LLDS,
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
from phqreg.corpus import AudioSignal, Session, Speaker, TurnRecord, load_wav, save_wav

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


def session_with(samples, rate=RATE, sid="s1"):
    turns = (TurnRecord(0.0, len(samples) / rate, Speaker.PARTICIPANT, ("hi",)),)
    return Session(id=sid, turns=turns, audio=AudioSignal(samples, rate))


def session_frames(session):
    """Every frame of the session's participant turns, copied into one block."""
    starts = frame_signal(session.audio, session.turns)
    windows = np.lib.stride_tricks.sliding_window_view(session.audio.samples, round(FRAME_SECONDS * session.audio.rate))
    return FrameSet(windows[starts], session.audio.rate)


def frames_of(samples, rate=RATE):
    return session_frames(session_with(samples, rate))


def blocks_of(frames, size=BLOCK_FRAMES):
    """``frames`` cut into blocks of ``size`` frames, as the acoustic pass cuts a session."""
    return [FrameSet(frames.samples[lo : lo + size], frames.rate) for lo in range(0, len(frames), size)]


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

    @pytest.mark.parametrize("rate", [8000, 16000])
    def test_band_energies_are_left_to_right_bin_sums(self, rate):
        # bands from bin 0 come from the roll-off's cumulative sum, the others
        # from a masked copy: each must equal the sequential sum of its bins
        # (one-frame blocks are where a pairwise sum would differ)
        rng = np.random.default_rng(3)
        frames = frames_of(rng.normal(0, 0.3, rate // 2), rate)
        freqs = np.fft.rfftfreq(frames.frame_len, d=1.0 / rate)
        for block in (frames, *blocks_of(frames, 1)[:8]):
            tracks = spectral_llds(block)
            power = np.abs(np.fft.rfft(block.samples * np.hamming(block.frame_len), axis=1)) ** 2
            for (lo, hi), name in zip(SPECTRAL_BANDS, SPECTRAL_LLDS[:4]):
                want = np.cumsum(power[:, (freqs >= lo) & (freqs <= hi)], axis=1)[:, -1]
                assert tracks[name].tobytes() == want.tobytes(), (len(block), name)

    def test_stationary_signal_zero_flux(self):
        # 100 Hz at 16 kHz: the period (160) equals the hop, so frames repeat
        tracks = spectral_llds(frames_of(sine(100, 0.5)))
        assert tracks["flux"][0] == 0.0
        assert np.allclose(tracks["flux"][1:], 0.0, atol=1e-9)

    def test_white_noise_centroid_matches_oracle(self):
        rng = np.random.default_rng(7)
        frames = frames_of(rng.normal(0, 0.3, RATE // 2))
        got = spectral_llds(frames)["centroid"]
        windowed = frames.samples * np.hamming(frames.frame_len)
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


def spike_train(flen, count, rng):
    """``count`` spikes of heights in [0.5, 1] on a zero floor, about evenly
    spaced with up to a fifth of the spacing of jitter: at f0 = rate /
    spacing, every spike is a candidate and a kept peak."""
    spacing = flen // (count + 1)
    x = np.zeros(flen)
    shift = spacing // 5
    x[spacing * np.arange(1, count + 1) + rng.integers(-shift, shift + 1, count)] = rng.uniform(0.5, 1.0, count)
    return x, spacing


def vq_row(draw, kind, rate, rng):
    """One frame of ``kind`` and the f0 it is given."""
    flen = int(round(0.025 * rate))
    freq = draw(st.floats(55.0, 400.0))
    if kind == "spikes":
        x, spacing = spike_train(flen, draw(st.integers(1, 12)), rng)
        return x, rate / spacing
    if kind == "ramp":  # no interior maximum: no candidate
        return np.linspace(-0.5, 1.0, flen), freq
    if kind == "merged":  # two candidates closer than 0.4 periods: one kept peak
        x = np.zeros(flen)
        x[flen // 2], x[flen // 2 + 2] = rng.uniform(0.5, 1.0, 2)
        return x, rate / 20.0
    if kind == "zero":
        x = np.zeros(flen)
    elif kind == "noise":
        x = rng.normal(0.0, 0.3, flen)
    elif kind == "negative":
        x = -np.abs(rng.normal(0.0, 0.3, flen))
    elif kind == "pulses":
        x = jittered_pulses(flen, rate / freq, rng)
    else:
        # few amplitude levels: equal peak heights, as in low-level 16-bit audio
        x = np.round(4.0 * jittered_pulses(flen, rate / freq, rng)) / 4.0
    return x, draw(st.sampled_from([
        0.0,  # unvoiced
        freq,  # the true pitch
        freq * draw(st.floats(0.5, 2.0)),  # a wrong estimate
        rate / (draw(st.integers(20, 140)) + 0.5),  # period halfway between two lags
        1.7 * rate / round(rate / freq),  # the true cycle is 1.7 periods: the longest accepted
    ]))


@st.composite
def vq_inputs(draw):
    rate = draw(st.sampled_from([8000, 16000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["zero", "noise", "negative", "pulses", "coarse"])
    rows, f0 = zip(*(vq_row(draw, kind, rate, rng) for kind in draw(st.lists(kinds, min_size=1, max_size=8))))
    return np.array(rows), rate, np.array(f0)


@st.composite
def vq_block_inputs(draw):
    """32-64 frames for one call, in a drawn order: every row kind of
    vq_inputs, an all-zero and an unvoiced row, rows with fewer than two
    candidates or with two that merge into one peak, and spike trains that
    keep 7-10 peaks, so that both the peak heights and their differences
    fall on both sides of np.mean's 8-value pairwise boundary."""
    rate = draw(st.sampled_from([8000, 16000]))
    flen = int(round(0.025 * rate))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [(np.zeros(flen), 100.0), (rng.normal(0.0, 0.3, flen), 0.0)]
    rows += [vq_row(draw, kind, rate, rng) for kind in ("ramp", "merged")]
    for count in (1, 7, 8, 9, 10):
        x, spacing = spike_train(flen, count, rng)
        rows.append((x, rate / spacing))
    kinds = st.sampled_from(["zero", "noise", "negative", "pulses", "coarse", "spikes", "ramp", "merged"])
    extra = draw(st.lists(kinds, min_size=32 - len(rows), max_size=64 - len(rows)))
    rows += [vq_row(draw, kind, rate, rng) for kind in extra]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i][0] for i in order]), rate, np.array([rows[i][1] for i in order])


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

    @settings(max_examples=60, deadline=None)
    @given(vq_block_inputs())
    def test_block_of_mixed_frames_matches_per_frame_loop_bytes(self, case):
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
    spec = np.fft.rfft(frames.samples * np.hamming(frames.frame_len), axis=1)
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

    def test_blocked_acf_equals_single_block(self, long_frames):
        got = np.concatenate([block.acf for block in blocks_of(long_frames)])
        assert got.tobytes() == acf_oracle(long_frames.samples).tobytes()

    def test_blocked_spectrum_equals_single_block(self, long_frames):
        want = spectral_oracle(long_frames)
        blocks = blocks_of(long_frames)
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
        frames = session_frames(s)
        # with 7-frame blocks, the block at frame 35 starts inside the unvoiced
        # gap (the f0 envelope carries the last voiced f0 into it) and the one
        # at frame 56 starts at the gap-to-tone spectral change (flux carries
        # the previous frame's spectrum)
        prosody = prosodic_llds(frames)
        assert np.all(prosody["f0"][35:42] == 0.0) and prosody["f0_env"][35] > 0.0
        assert spectral_llds(frames)["flux"][56] > 0.1

        def vectors(block_frames):
            monkeypatch.setattr(audio, "BLOCK_FRAMES", block_frames)
            return session_acoustic_vector(s).values.tobytes()

        whole = vectors(len(frames) + 1)
        assert vectors(1) == whole
        assert vectors(7) == whole

    def test_peak_memory_flat_in_session_length(self, tmp_path):
        """The pass holds no session-length sample or frame array, only the LLD track matrices.

        The sessions are WAV-backed and loaded inside the measurement, so
        samples held whole would count: 160 float64 samples per frame at
        16 kHz are eight track matrices' worth. From 16 to 48 blocks the peak
        may grow by four track matrices (base, delta, delta-delta and
        _delta's scratch); the functionals' row chunks are capped by
        FUNCTIONAL_ELEMENTS at both lengths, so they add no growth.
        """
        rate = 16000

        def session_peak(n_blocks):
            n = int((n_blocks * BLOCK_FRAMES + 3) * HOP_SECONDS * rate)
            rng = np.random.default_rng(n_blocks)
            path = tmp_path / f"{n_blocks}.wav"
            save_wav(AudioSignal(sawtooth(150, n / rate, rate, 0.3) + rng.normal(0.0, 0.01, n), rate), path)
            turns = (TurnRecord(0.0, n / rate, Speaker.PARTICIPANT, ("hi",)),)
            tracemalloc.start()
            try:
                session_acoustic_vector(Session("s1", turns, load_wav(path)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        session_peak(1)  # warm-up: first-call allocations do not count
        short, long = session_peak(16), session_peak(48)
        track_matrix = 8 * sum(map(len, GROUP_LLDS.values())) * (48 - 16) * BLOCK_FRAMES
        assert long - short <= 4 * track_matrix, (short, long, track_matrix)

    @pytest.mark.parametrize("block_frames", [7, BLOCK_FRAMES])
    def test_wav_backed_session_gives_the_bytes_of_its_samples_in_memory(self, tmp_path, monkeypatch, block_frames):
        """Reading each block's frames from the file gives the vector of the same samples in memory.

        Participant turns with gaps between them put several sample spans in
        one block, 7-frame blocks straddle the gaps, and the last turn runs
        past the end of the data.
        """
        rate = 16000
        x = edge_session(rate).audio.samples
        x = np.clip(np.round(x * 32768.0), -32768, 32767) / 32768.0  # the values a 16-bit file holds
        path = tmp_path / "s.wav"
        save_wav(AudioSignal(x, rate), path)
        turns = tuple(TurnRecord(lo, hi, speaker, ("hi",)) for lo, hi, speaker in [
            (0.0, 0.31, Speaker.PARTICIPANT), (0.31, 0.43, Speaker.AGENT), (0.43, 0.6, Speaker.PARTICIPANT),
            (0.66, 0.71, Speaker.PARTICIPANT), (0.8, 5.0, Speaker.PARTICIPANT),
        ])
        assert turns[-1].stop * rate > len(x)
        monkeypatch.setattr(audio, "BLOCK_FRAMES", block_frames)
        in_memory = session_acoustic_vector(Session("s1", turns, AudioSignal(x, rate))).values
        from_file = session_acoustic_vector(Session("s1", turns, load_wav(path))).values
        assert from_file.tobytes() == in_memory.tobytes()


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
    def derivatives(self, values):
        d1, d2 = add_derivatives(np.asarray(values, dtype=float)[None])
        return d1[0], d2[0]

    def test_constant_zero(self):
        d1, d2 = self.derivatives(np.full(10, 3.3))
        assert np.all(d1 == 0.0)
        assert np.all(d2 == 0.0)

    def test_linear_ramp_interior_slope(self):
        a = 0.7
        d1, _ = self.derivatives(a * np.arange(20))
        assert np.allclose(d1[2:-2], a, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 2, 64)
        d1, d2 = self.derivatives(x)
        np.testing.assert_allclose(d1, delta_oracle(x), atol=1e-12)
        np.testing.assert_allclose(d2, delta_oracle(delta_oracle(x)), atol=1e-12)

    def test_short_track_rejected(self):
        with pytest.raises(ValueError):
            self.derivatives([1.0, 2.0, 3.0, 4.0])

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


def functionals_per_track(values):
    """The per-track definition: one track, np.polyfit fits, numpy reductions."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n < 3:
        raise ValueError(f"track length {n} < 3")
    t = np.arange(n, dtype=np.float64)

    lin = np.polyfit(t, x, 1)
    lin_err = float(np.mean((np.polyval(lin, t) - x) ** 2))
    quad = np.polyfit(t, x, 2)
    quad_err = float(np.mean((np.polyval(quad, t) - x) ** 2))

    zcr = float(np.count_nonzero(x[:-1] * x[1:] < 0)) / (n - 1)

    interior = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
    peaks = np.where(interior)[0] + 1
    peaks = peaks[x[peaks] > x.mean()]
    n_peaks = float(len(peaks))
    peak_dist = float(np.mean(np.diff(peaks))) if len(peaks) >= 2 else 0.0
    peak_amp = float(np.mean(x[peaks])) if len(peaks) else 0.0

    nz = np.abs(x[x != 0.0])
    geo = float(np.exp(np.mean(np.log(nz)))) if len(nz) else 0.0

    sx = float(x.sum())
    centroid = float((t * x).sum() / sx) if sx != 0.0 else 0.0

    mean = float(x.mean())
    var = float(np.mean((x - mean) ** 2))
    std = float(np.sqrt(var))
    if std > 0.0:
        skew = float(np.mean((x - mean) ** 3) / std**3)
        kurt = float(np.mean((x - mean) ** 4) / var**2)
    else:
        skew = kurt = 0.0

    return np.array([
        float(x.max() - x.min()),
        float(np.argmax(x)),
        float(np.argmin(x)),
        float(lin[0]), float(lin[1]), lin_err,
        float(quad[0]), float(quad[1]), float(quad[2]), quad_err,
        zcr, n_peaks, peak_dist, peak_amp,
        geo, float(np.count_nonzero(x)), centroid,
        var, std, skew, kurt,
        mean, float(x.max()), float(x.min()),
    ])


def delta_per_track(values, width=2):
    """The per-track regression delta: one track, padded, summed over the window."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2 * width + 1:
        raise ValueError(f"track length {len(values)} too short for delta window +-{width}")
    padded = np.pad(values, width, mode="edge")
    denom = 2.0 * sum(k * k for k in range(1, width + 1))
    out = np.zeros_like(values)
    for k in range(1, width + 1):
        out += k * (padded[width + k : width + k + len(values)] - padded[width - k : width - k + len(values)])
    return out / denom


def edge_tracks():
    """Tracks on the conventions' edges: no spread, no non-zero value, one peak, the shortest length."""
    one = np.zeros(40)
    one[17] = 2.5
    return {
        "constant": np.full(30, 4.25),
        "all_zero": np.zeros(30),
        "single_nonzero": one,
        "three_frames": np.array([0.5, -1.0, 2.0]),
    }


class TestFunctionals:
    def test_hand_countable_track(self):
        vals = dict(zip(FUNCTIONAL_NAMES, apply_functionals(np.array([[1.0, 3.0, 2.0]]))[0]))
        assert vals["range"] == 2.0
        assert vals["argmax_pos"] == 1.0
        assert vals["argmin_pos"] == 0.0
        assert vals["zcr"] == 0.0
        assert vals["n_peaks"] == 1.0
        assert vals["peak_amp_mean"] == 3.0
        assert vals["peak_dist_mean"] == 0.0

    def test_constant_track_conventions(self):
        c = -2.5
        vals = dict(zip(FUNCTIONAL_NAMES, apply_functionals(np.full((1, 12), c))[0]))
        assert vals["variance"] == 0.0
        assert vals["skewness"] == 0.0
        assert vals["kurtosis"] == 0.0
        assert vals["geo_mean_nz"] == pytest.approx(abs(c), abs=1e-12)
        assert vals["n_nonzero"] == 12.0
        assert vals["mean"] == c

    def test_output_length_and_order(self):
        assert len(FUNCTIONAL_NAMES) == 24
        assert apply_functionals(np.arange(5.0)[None]).shape == (1, 24)

    def test_random_track_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(0, 3, 50)
            np.testing.assert_allclose(apply_functionals(x[None])[0], functionals_oracle(x), atol=1e-9, rtol=1e-9)
        for name, x in edge_tracks().items():
            got = apply_functionals(x[None])[0]
            np.testing.assert_allclose(got, functionals_oracle(x), atol=1e-9, rtol=1e-9, err_msg=name)
            np.testing.assert_allclose(got, functionals_per_track(x), atol=1e-9, rtol=1e-9, err_msg=name)
        # 30 min at 100 frames/s: the closed-form fits' monomial coefficients
        # and residual errors stay within 1e-9 of np.polyfit's
        t = np.arange(180_000, dtype=float)
        x = 40.0 + 2e-4 * t - 1.5e-9 * t**2 + rng.normal(0.0, 1.0, len(t))
        np.testing.assert_allclose(apply_functionals(x[None])[0], functionals_per_track(x), atol=1e-9, rtol=1e-9)

    def test_short_track_rejected(self):
        with pytest.raises(ValueError):
            apply_functionals(np.array([[1.0, 2.0]]))


@st.composite
def track_matrices(draw, min_frames=3):
    """(tracks, frames) matrices mixing noisy, offset, tied, sparse, constant and all-zero rows."""
    n = draw(st.integers(min_frames, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["normal", "offset", "ties", "sparse", "constant", "zero"]), min_size=1, max_size=10))
    rows = []
    for kind in kinds:
        if kind == "normal":
            rows.append(rng.normal(0.0, 3.0, n))
        elif kind == "offset":
            rows.append(rng.normal(-30.0, 0.01, n))
        elif kind == "ties":
            rows.append(np.round(rng.normal(0.0, 1.0, n)))
        elif kind == "sparse":
            rows.append(rng.exponential(1.0, n) * (rng.random(n) < 0.2))
        elif kind == "constant":
            rows.append(np.full(n, rng.normal()))
        else:
            rows.append(np.zeros(n))
    return np.array(rows)


class TestTrackMatrix:
    @settings(max_examples=150, deadline=None)
    @given(track_matrices(), st.data())
    def test_rows_do_not_depend_on_the_rows_beside_them(self, x, data):
        subset = sorted(data.draw(st.sets(st.integers(0, len(x) - 1), min_size=1)))
        whole = apply_functionals(x)
        assert whole.shape == (len(x), len(FUNCTIONAL_NAMES))
        # a chunk of a few rows, and chunks that cut the subset elsewhere
        chunk_rows = data.draw(st.integers(1, len(x)))
        with mock.patch.object(audio, "FUNCTIONAL_ELEMENTS", chunk_rows * x.shape[1]):
            assert apply_functionals(x).tobytes() == whole.tobytes()
            assert apply_functionals(x[subset]).tobytes() == whole[subset].tobytes()
        assert apply_functionals(x[subset]).tobytes() == whole[subset].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(track_matrices(min_frames=MIN_FRAMES))
    def test_row_deltas_equal_per_track_bytes(self, x):
        d1, d2 = add_derivatives(x)
        for row, first, second in zip(x, d1, d2):
            assert first.tobytes() == delta_per_track(row).tobytes()
            assert second.tobytes() == delta_per_track(delta_per_track(row)).tobytes()


def multi_block_session(rate):
    """13 s of noisy sawtooth with a silent second: more than two blocks of frames."""
    rng = np.random.default_rng(21)
    x = sawtooth(170, 13.0, rate, 0.3) + rng.normal(0.0, 0.05, 13 * rate)
    x[3 * rate : 4 * rate] = 0.0
    return session_with(x, rate)


def group_vector(session, group):
    """``group``'s GROUP_COLUMNS slice of the session's acoustic pass."""
    return session_acoustic_vector(session).values[GROUP_COLUMNS[group]]


def group_pass_oracle(session, group):
    """One group's values from a block pass over that group's LLDs alone (M: all three).

    The per-group pass that session_acoustic_vector's column slices must
    equal byte for byte: S runs no prosody, and P runs no spectrum or VQ.
    """
    frames = session_frames(session)
    groups = audio.M_GROUPS if group == "M" else (group,)
    rows = [(g, name) for g in groups for name in GROUP_LLDS[g]]
    base = np.empty((len(rows), len(frames)))
    previous, held_f0 = None, 0.0
    for lo, block in zip(range(0, len(frames), BLOCK_FRAMES), blocks_of(frames)):
        tracks = {}
        if "S" in groups:
            tracks["S"] = spectral_llds(block, previous)
            previous = block.samples[-1].copy()
        if group != "S":
            tracks["P"] = prosodic_llds(block, held_f0)
            held_f0 = tracks["P"]["f0_env"][-1]
            if "VQ" in groups:
                tracks["VQ"] = voice_quality_llds(block, tracks["P"]["f0"])
        for i, (g, name) in enumerate(rows):
            base[i, lo : lo + len(block)] = tracks[g][name]
    values = np.stack([apply_functionals(m) for m in (base, *add_derivatives(base))], axis=1)
    return values.reshape(-1)


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
        assert len(group_vector(s, "S")) == 864
        assert len(group_vector(s, "P")) == 288
        assert len(group_vector(s, "VQ")) == 288

    def test_deterministic(self):
        s = two_turn_session()
        a = group_vector(s, "S")
        b = group_vector(s, "S")
        assert len(a) == len(b) == len(GROUP_NAMES["S"])
        np.testing.assert_array_equal(a, b)

    def test_silent_session_finite(self):
        s = two_turn_session(silent=True)
        for group in ("S", "P", "VQ"):
            assert np.all(np.isfinite(group_vector(s, group)))

    def test_merge_dimensions_and_order(self):
        s = two_turn_session()
        p = group_vector(s, "P")
        sv = group_vector(s, "S")
        m = session_acoustic_vector(s).values
        assert len(m) == 1440
        np.testing.assert_array_equal(m[:288], p)
        np.testing.assert_array_equal(m[288:1152], sv)
        assert GROUP_NAMES["M"][:288] == GROUP_NAMES["P"]
        assert len(set(GROUP_NAMES["M"])) == len(m) == 1440
        assert all(n.startswith(("P.", "S.", "VQ.")) for n in GROUP_NAMES["M"])

    @pytest.mark.parametrize("rate", [8000, 16000])
    def test_one_pass_merge_equals_merge_groups(self, rate):
        s = multi_block_session(rate)
        assert len(frame_signal(s.audio, s.turns)) > 2 * BLOCK_FRAMES
        # each group's columns of the one full pass equal that group's own pass
        vec = session_acoustic_vector(s)
        assert vec.session_id == s.id
        vectors = {g: vec.values[GROUP_COLUMNS[g]] for g in ("P", "S", "VQ", "M")}
        for g, values in vectors.items():
            assert len(values) == len(GROUP_NAMES[g])
            assert values.tobytes() == group_pass_oracle(s, g).tobytes(), g
        assert GROUP_NAMES["M"] == sum((GROUP_NAMES[g] for g in ("P", "S", "VQ")), ())
        merged = np.concatenate([vectors[g] for g in ("P", "S", "VQ")])
        assert vectors["M"].tobytes() == merged.tobytes()

    @pytest.mark.parametrize("kind", ["8000", "16000", "silent", "multi_block"])
    def test_every_column_within_1e9_of_per_track_definition(self, kind):
        if kind == "multi_block":
            s = multi_block_session(8000)
        else:
            s = two_turn_session(rate=8000 if kind == "silent" else int(kind), silent=kind == "silent")
        frames = session_frames(s)
        assert kind != "multi_block" or len(frames) > 2 * BLOCK_FRAMES
        # LLDs of all frames in one block, then each track's deltas and functionals alone
        prosody = prosodic_llds(frames)
        tracks = {"P": prosody, "S": spectral_llds(frames), "VQ": voice_quality_llds(frames, prosody["f0"])}
        want = []
        for group in ("P", "S", "VQ"):
            for name in GROUP_LLDS[group]:
                base = tracks[group][name]
                d1 = delta_per_track(base)
                want += [functionals_per_track(track) for track in (base, d1, delta_per_track(d1))]
        got = session_acoustic_vector(s).values
        np.testing.assert_allclose(got, np.concatenate(want), atol=1e-9, rtol=1e-9)

    def test_fewer_frames_than_delta_window(self):
        audio = AudioSignal(np.zeros(RATE), RATE)
        # 25 ms window + (MIN_FRAMES - 2) hops: one frame short of the delta window
        stop = 0.025 + 0.010 * (MIN_FRAMES - 2) + 0.001
        s = Session(id="x", turns=(TurnRecord(0.0, stop, Speaker.PARTICIPANT, ()),), audio=audio)
        assert len(frames_of(np.zeros(RATE))) >= MIN_FRAMES
        assert len(frame_signal(audio, s.turns)) == MIN_FRAMES - 1
        with pytest.raises(EmptyInputError, match="delta window"):
            session_acoustic_vector(s)

    def test_low_sample_rate_is_an_input_skip(self):
        s = session_with(np.zeros(4000), rate=4000)
        with pytest.raises(EmptyInputError, match="sample rate"):
            session_acoustic_vector(s)

    def test_empty_frames_error(self):
        audio = AudioSignal(np.zeros(RATE), RATE)
        turns = (TurnRecord(0.0, 0.01, Speaker.PARTICIPANT, ()),)
        s = Session(id="x", turns=turns, audio=audio)
        with pytest.raises(EmptyInputError):
            session_acoustic_vector(s)


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
            np.testing.assert_allclose(group_vector(s, group), group_vector(s2, group), atol=1e-9)

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
            assert np.all(np.isfinite(group_vector(s, group)))
