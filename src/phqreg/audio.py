"""Acoustic low-level descriptors (LLDs) and statistical functionals.

Participant speech is framed at ~100 overlapping frames per second (25 ms
window, 10 ms hop). Three LLD groups are extracted per frame:

    spectral (S)       4 band energies (0-250, 0-650, 250-650, 1000-4000 Hz),
                       4 roll-off points (25/50/70/90%), centroid, flux,
                       max-position, min-position
    prosody (P)        f0, f0-envelope, loudness (log-energy), voicing probability
    voice quality (VQ) jitter (local, DDP), shimmer (local), logHNR

Each group's LLD function returns its per-frame tracks as arrays keyed by LLD
name. Every base LLD track is augmented with first and second regression
deltas and each track is projected on 24 statistical functionals, giving
per-session vectors (names: GROUP_NAMES) of dimension |S| = 12*3*24 = 864,
|P| = |VQ| = 4*3*24 = 288 and a merged vector |M| = 1440.

Spectral analysis runs on Hamming-windowed frames; time-domain periodicity
measures (f0, jitter, shimmer, HNR) use the raw frame samples so that a
perfectly periodic tone reports zero cycle variation.

A session is processed in one pass over blocks of BLOCK_FRAMES frames.
Framing only records where each frame starts. A FrameSet is one block: its
frames are read from the audio source, one sample span per run of
hop-spaced frame starts (a run ends at a turn's last frame), so a WAV file
is read block by block and never held whole; an in-memory AudioSignal
serves the same spans as views. From the block's frames come its power
spectrum (S) and one normalised autocorrelation (ACF) per frame, cached on
the FrameSet, which feeds both P and VQ; VQ reuses the f0 track from P. The
spectrum and ACF FFTs go through FFT_CHUNK_FRAMES rows at a time, so their
temporaries stay small whatever the block size. VQ takes the block's frames
together, with no Python loop over frames: their cycle-peak candidates sit
in zero-padded matrices, the greedy merge walks them one candidate rank at
a time, and the means sum in np.mean's order, so its values equal a
per-frame loop's byte for byte. Every LLD is computed per frame, so neither
the block nor the chunk split changes a value. The two descriptors that
look across frames carry their state over a block edge: flux gets the
frame before the block, and the f0 envelope the last voiced f0. A block's
frames, spectrum and ACF are dropped before the next block, so what a
session keeps is the O(n_frames) LLD tracks, one row each of a (tracks,
frames) matrix. After the pass, one call takes the deltas of every row,
each summed in place with one scratch matrix, and the functionals run over
row chunks of the base, delta and delta-delta matrices, the line and
parabola fits in closed form. The pass always runs every group
and yields the merged vector M, the P, S and VQ values concatenated in that
order; S, P and VQ are its GROUP_COLUMNS slices. Every reduction runs along a
row, so a group's slice is byte for byte what a pass over that group alone
gives, and one pass serves every acoustic store (see pipeline). The
functionals are within 1e-9 (absolute and relative) of the per-track
definition (np.polyfit fits, one track at a time), not byte equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import AudioSignal, EmptyInputError, Session, Speaker, WavReader

FRAME_SECONDS = 0.025
HOP_SECONDS = 0.010
MIN_SAMPLE_RATE = 8000

F0_MIN_HZ = 55.0
F0_MAX_HZ = 400.0
VOICING_THRESHOLD = 0.45

SPECTRAL_BANDS = ((0.0, 250.0), (0.0, 650.0), (250.0, 650.0), (1000.0, 4000.0))
ROLLOFF_PERCENTS = (0.25, 0.50, 0.70, 0.90)

SPECTRAL_LLDS = (
    "band_0_250", "band_0_650", "band_250_650", "band_1000_4000",
    "rolloff_25", "rolloff_50", "rolloff_70", "rolloff_90",
    "centroid", "flux", "max_pos", "min_pos",
)
PROSODY_LLDS = ("f0", "f0_env", "loudness", "voicing")
VQ_LLDS = ("jitter_local", "jitter_ddp", "shimmer_local", "log_hnr")

FUNCTIONAL_NAMES = (
    "range", "argmax_pos", "argmin_pos",
    "lin_slope", "lin_offset", "lin_err",
    "quad_a", "quad_b", "quad_c", "quad_err",
    "zcr", "n_peaks", "peak_dist_mean", "peak_amp_mean",
    "geo_mean_nz", "n_nonzero", "centroid",
    "variance", "stddev", "skewness", "kurtosis",
    "mean", "vmax", "vmin",
)

GROUP_LLDS = {"S": SPECTRAL_LLDS, "P": PROSODY_LLDS, "VQ": VQ_LLDS}

# each LLD, then its delta (_de) and delta-delta (_de2), over the 24 functionals
GROUP_NAMES = {
    g: tuple(f"{g}.{lld}{d}.{f}" for lld in llds for d in ("", "_de", "_de2") for f in FUNCTIONAL_NAMES)
    for g, llds in GROUP_LLDS.items()
}
# the merged vector M: P, S and VQ in that order
M_GROUPS = ("P", "S", "VQ")
GROUP_NAMES["M"] = tuple(name for g in M_GROUPS for name in GROUP_NAMES[g])
# each group's columns of M
GROUP_COLUMNS = {
    g: slice(GROUP_NAMES["M"].index(names[0]), GROUP_NAMES["M"].index(names[-1]) + 1)
    for g, names in GROUP_NAMES.items()
}

# frames per block of the acoustic pass: bounds every frame-sized array (the
# block's frames and ACF, 1.6 MB each at 16 kHz) whatever the session length.
BLOCK_FRAMES = 512

# frames per chunk of the spectrum and ACF FFTs within a block: bounds their
# temporaries (at most 0.5 MB each at 16 kHz) whatever the block size. Small
# temporaries are what lets glibc's malloc reuse one block's memory for the
# next instead of returning it to the system and faulting it in again: on 3
# sessions of 5.5 minutes at 16 kHz the pass took about 13k minor page
# faults with 64-frame chunks, 51k with 128 and 260k with whole blocks.
FFT_CHUNK_FRAMES = 64

# values per chunk of track rows in apply_functionals: bounds its chunk-sized
# temporaries (1 MB each) whatever the session length. On 60 tracks of 17,400
# frames, 7-row chunks peaked at 6.5 MB and ran in 53 ms; the whole matrix at
# once peaked at 53 MB and took 69 ms.
FUNCTIONAL_ELEMENTS = 1 << 17

# regression-delta window +-DELTA_WIDTH; shorter sessions cannot be described
DELTA_WIDTH = 2
MIN_FRAMES = 2 * DELTA_WIDTH + 1

_LOUDNESS_FLOOR = 1e-30


@dataclass(frozen=True)
class FrameSet:
    """A block of raw 25 ms frames (rows), read from the audio source, and its sample rate."""

    samples: np.ndarray  # (n_frames, frame_len)
    rate: int

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def frame_len(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def acf(self) -> np.ndarray:
        """Normalised ACF per frame (lags 0..frame_len-1), computed on first use."""
        return _normalized_acf(self.samples)


@dataclass(frozen=True)
class AcousticVector:
    """Per-session merged acoustic vector M, in GROUP_NAMES["M"] order."""

    values: np.ndarray
    session_id: str


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def _frame_len(rate: int) -> int:
    return int(round(FRAME_SECONDS * rate))


def _hop(rate: int) -> int:
    return int(round(HOP_SECONDS * rate))


def frame_signal(audio: AudioSignal | WavReader, turns) -> np.ndarray:
    """The start sample of each 25 ms / 10 ms-hop frame of the participant turn spans.

    Frames crossing a turn boundary are dropped; turns shorter than one
    window contribute no frames.
    """
    if audio.rate < MIN_SAMPLE_RATE:
        raise EmptyInputError(f"sample rate {audio.rate} below minimum {MIN_SAMPLE_RATE} Hz")
    spans = [t for t in turns if t.speaker is Speaker.PARTICIPANT]
    if not spans:
        raise EmptyInputError("no participant turns")

    flen, hop = _frame_len(audio.rate), _hop(audio.rate)
    n = audio.n_samples

    starts = []
    for t in spans:
        lo = min(max(int(round(t.start * audio.rate)), 0), n)
        hi = min(max(int(round(t.stop * audio.rate)), 0), n)
        starts.append(np.arange(lo, hi - flen + 1, hop))
    return np.concatenate(starts)


def _read_frames(audio: AudioSignal | WavReader, starts: np.ndarray, flen: int, hop: int) -> np.ndarray:
    """The (len(starts), flen) frames at ``starts``, read as one sample span per run of hop-spaced starts."""
    frames = np.empty((len(starts), flen))
    edges = np.flatnonzero(np.diff(starts) != hop) + 1  # a run ends where a turn's frames end
    for a, b in zip(np.r_[0, edges], np.r_[edges, len(starts)]):
        span = audio.read(starts[a], starts[b - 1] + flen)
        frames[a:b] = np.lib.stride_tricks.sliding_window_view(span, flen)[::hop]
    return frames


# ---------------------------------------------------------------------------
# spectral LLDs
# ---------------------------------------------------------------------------


def _magnitude_spectrum(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.rfft(x * window, axis=1))


def _unit_sum(mag: np.ndarray) -> np.ndarray:
    """Each row scaled to sum 1; all-zero rows stay 0."""
    total = mag.sum(axis=1, keepdims=True)
    return np.divide(mag, total, out=np.zeros_like(mag), where=total > 0)


def spectral_llds(frames: FrameSet, previous: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """12 spectral tracks from the power spectrum of Hamming-windowed frames.

    All-zero frames report 0 for band energies, roll-offs and centroid. Flux
    compares each frame's normalised magnitude spectrum with the frame before
    it; ``previous`` is the raw frame just before the first one (a block's
    carry), and without it the first frame's flux is 0. The frames go
    through in chunks of FFT_CHUNK_FRAMES, each chunk carrying its last frame
    to the next as ``previous``; every value is a function of its own frame
    and, for flux, the frame before, so the chunks do not change a value.
    """
    if len(frames) == 0:
        raise EmptyInputError("empty frame set")
    freqs = np.fft.rfftfreq(frames.frame_len, d=1.0 / frames.rate)
    window = np.hamming(frames.frame_len)
    tracks = {name: np.empty(len(frames)) for name in SPECTRAL_LLDS}
    for lo in range(0, len(frames), FFT_CHUNK_FRAMES):
        x = frames.samples[lo : lo + FFT_CHUNK_FRAMES]
        for name, values in _spectral_chunk(x, freqs, window, previous).items():
            tracks[name][lo : lo + len(x)] = values
        previous = x[-1]
    return tracks


def _spectral_chunk(x: np.ndarray, freqs: np.ndarray, window: np.ndarray, previous) -> dict[str, np.ndarray]:
    """spectral_llds on one chunk of frames (rows of ``x``)."""
    mag = _magnitude_spectrum(x, window)
    power = mag**2
    tracks = {}

    total = power.sum(axis=1)
    nonzero = total > 0.0

    # band energies are summed bin by bin, left to right: .sum(axis=1) on the
    # column-major masked copy does that for several frames but sums one
    # frame pairwise, so the chunk size would change the last bits. A band
    # that starts at bin 0 is a column of the roll-off's cumulative sum, the
    # same prefix sum; the others sum a masked copy. The copies let the
    # chunk's cumulative sums go.
    cum = np.cumsum(power, axis=1)
    for (lo, hi), name in zip(SPECTRAL_BANDS, SPECTRAL_LLDS[:4]):
        band = (freqs >= lo) & (freqs <= hi)
        if lo == 0.0:
            tracks[name] = cum[:, np.flatnonzero(band)[-1]].copy()
        else:
            tracks[name] = np.cumsum(power[:, band], axis=1)[:, -1].copy()

    for pct, name in zip(ROLLOFF_PERCENTS, SPECTRAL_LLDS[4:8]):
        idx = np.argmax(cum >= pct * total[:, None], axis=1)
        tracks[name] = np.where(nonzero, freqs[idx], 0.0)

    centroid = np.zeros(len(power))
    centroid[nonzero] = (power[nonzero] * freqs).sum(axis=1) / total[nonzero]
    tracks["centroid"] = centroid

    norm = _unit_sum(mag)
    if previous is not None:
        norm = np.concatenate([_unit_sum(_magnitude_spectrum(previous[None, :], window)), norm])
    flux = np.zeros(len(x))
    flux[len(x) + 1 - len(norm) :] = np.sqrt(((norm[1:] - norm[:-1]) ** 2).sum(axis=1))
    tracks["flux"] = flux

    tracks["max_pos"] = freqs[np.argmax(power, axis=1)]
    tracks["min_pos"] = freqs[np.argmin(power, axis=1)]

    return tracks


# ---------------------------------------------------------------------------
# prosodic LLDs
# ---------------------------------------------------------------------------


def _normalized_acf(x: np.ndarray) -> np.ndarray:
    """Bias-corrected normalized autocorrelation r(tau) per frame (FFT-based).

    The FFTs take FFT_CHUNK_FRAMES rows at a time, each chunk written into
    one preallocated output; a row's values do not depend on the rows
    transformed with it.
    """
    n, flen = x.shape
    nfft = 1 << int(np.ceil(np.log2(2 * flen)))
    corr = flen / np.maximum(flen - np.arange(flen), 1)
    out = np.zeros((n, flen))
    for lo in range(0, n, FFT_CHUNK_FRAMES):
        spec = np.fft.rfft(x[lo : lo + FFT_CHUNK_FRAMES], n=nfft, axis=1)
        acf = np.fft.irfft(np.abs(spec) ** 2, n=nfft, axis=1)[:, :flen]
        r0 = acf[:, 0:1]
        chunk = out[lo : lo + FFT_CHUNK_FRAMES]
        np.divide(acf, r0, out=chunk, where=r0 > 0)
        chunk *= corr
    return out


def _pitch_lags(frames: FrameSet) -> tuple[int, int]:
    lag_min = max(int(np.ceil(frames.rate / F0_MAX_HZ)), 2)
    lag_max = min(int(np.floor(frames.rate / F0_MIN_HZ)), frames.frame_len - 1)
    if lag_max <= lag_min:
        raise ValueError("frame too short for the pitch search range")
    return lag_min, lag_max


def prosodic_llds(frames: FrameSet, held_f0: float = 0.0) -> dict[str, np.ndarray]:
    """f0 (autocorrelation peak in 55-400 Hz), its envelope, loudness, voicing.

    Unvoiced frames get f0 = 0; the envelope holds the last voiced value
    through unvoiced gaps, starting from ``held_f0`` (the envelope's value
    before the first frame, a block's carry). Loudness is the natural log of
    mean frame energy, so scaling the signal by g shifts it by 2*log(g).
    """
    if len(frames) == 0:
        raise EmptyInputError("empty frame set")
    lag_min, lag_max = _pitch_lags(frames)
    window = frames.acf[:, lag_min : lag_max + 1]
    # for exactly periodic signals the corrected ACF is ~1 at every period
    # multiple; take the smallest lag within tolerance of the peak so the
    # fundamental wins over its subharmonics
    rmax = window.max(axis=1)
    near_peak = window >= (rmax[:, None] - 0.01)
    best = np.argmax(near_peak, axis=1) + lag_min
    peak = window[np.arange(len(frames)), best - lag_min]
    voicing = np.clip(peak, 0.0, 1.0)

    voiced = voicing >= VOICING_THRESHOLD
    f0 = np.where(voiced, frames.rate / best, 0.0)

    # index of the latest voiced frame at or before each frame (-1: none yet)
    last = np.maximum.accumulate(np.where(f0 > 0, np.arange(len(frames)), -1))
    env = np.where(last >= 0, f0[last], held_f0)

    energy = np.mean(frames.samples**2, axis=1)
    loudness = np.log(np.maximum(energy, _LOUDNESS_FLOOR))

    return {"f0": f0, "f0_env": env, "loudness": loudness, "voicing": voicing}


# ---------------------------------------------------------------------------
# voice-quality LLDs
# ---------------------------------------------------------------------------


def _row_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.mean of each row's first ``counts`` values; the rest of the row is 0.

    np.mean sums fewer than 8 values left to right, which a cumulative sum
    over the zero-padded row does for every row at once (adding +0.0 changes
    no sum of non-negative values). From 8 values on it sums pairwise, so
    the rows that share a count go through np.mean together.
    """
    out = np.cumsum(values, axis=1)[:, -1] / np.maximum(counts, 1)
    for count in set(counts[counts >= 8].tolist()):
        rows = counts == count
        out[rows] = values[rows, :count].mean(axis=1)  # a C-ordered copy: each row sums pairwise
    return out


def voice_quality_llds(frames: FrameSet, f0: np.ndarray) -> dict[str, np.ndarray]:
    """Jitter (local, DDP), shimmer (local) and logHNR; all 0 on unvoiced frames.

    HNR reads the frame's normalised ACF at the pitch period. Jitter and
    shimmer come from one amplitude peak per pitch cycle: interior maxima of
    at least half the frame maximum, merged greedily when closer than 0.4
    periods (generous, so the picker survives a period-doubled f0 estimate).
    Periods outside 0.3-1.7 pitch periods are ignored.

    Every frame goes at once: the candidates sit in zero-padded (frames,
    candidates) matrices, the merge walks them one candidate rank at a time,
    and the means are masked row reductions in np.mean's summation order.
    """
    if len(frames) == 0:
        raise EmptyInputError("empty frame set")
    f0 = np.asarray(f0)
    if len(f0) != len(frames):
        raise ValueError("f0 track and frames disagree in length")

    n = len(frames)
    jit_loc = np.zeros(n)
    jit_ddp = np.zeros(n)
    shim = np.zeros(n)
    hnr = np.zeros(n)

    samples = frames.samples
    frame_max = samples.max(axis=1)
    voiced = (f0 > 0) & (frame_max > 0)
    active = np.flatnonzero(voiced)
    period = frames.rate / f0[active]

    lag = np.rint(period)
    has_lag = (lag > 0) & (lag < frames.frame_len)
    r = np.clip(frames.acf[active[has_lag], lag[has_lag].astype(np.intp)], 1e-10, 1.0 - 1e-10)
    hnr[active[has_lag]] = 10.0 * np.log10(r / (1.0 - r))

    # candidate cycle peaks, one boolean mask built in place over the block;
    # the NaN floor of a frame without a pitch admits none. The flat nonzero
    # is about ten times faster than the two-dimensional one.
    mid = samples[:, 1:-1]
    cand = mid >= np.where(voiced, 0.5 * frame_max, np.nan)[:, None]
    cand &= mid > samples[:, :-2]
    cand &= mid > samples[:, 2:]
    rows, cols = np.divmod(np.flatnonzero(cand), mid.shape[1])

    # the frames with two candidates or more, their candidates left-aligned
    # in rows of (m, width) matrices: positions, heights and the count
    n_cand = np.bincount(rows, minlength=n)
    frame = np.flatnonzero(n_cand >= 2)
    keep = n_cand[rows] >= 2
    rows, cols = rows[keep], cols[keep] + 1
    n_cand = n_cand[frame]
    m, width = len(frame), int(n_cand.max(initial=2))
    row = np.repeat(np.arange(m), n_cand)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(n_cand) - n_cand, n_cand)
    pos = np.zeros((m, width), np.intp)
    pos[row, rank] = cols
    amp = np.zeros((m, width))
    amp[row, rank] = samples[rows, cols]
    tau = frames.rate / f0[frame]

    # one peak per cycle, greedy from the left: candidate j replaces the last
    # kept peak when closer than 0.4 periods and taller, or else follows it.
    # Kept peaks are written over consumed candidates, so pos and amp end
    # with each frame's n_kept peaks left-aligned.
    min_sep = 0.4 * tau
    n_kept = np.ones(m, np.intp)
    every = np.arange(m)
    for j in range(1, width):
        last = n_kept - 1
        close = pos[:, j] - pos[every, last] < min_sep
        take = (j < n_cand) & (~close | (amp[:, j] > amp[every, last]))
        slot = np.where(close, last, n_kept)[take]
        pos[every[take], slot] = pos[take, j]
        amp[every[take], slot] = amp[take, j]
        n_kept += take & ~close

    # periods within 0.3-1.7 pitch periods, left-aligned in order. They are
    # whole samples, so every sum of them is exact and each mean rounds once
    # at its division, as np.mean's float sum / count does.
    gaps = np.diff(pos, axis=1)
    in_range = ((np.arange(width - 1) < n_kept[:, None] - 1)
                & (gaps >= 0.3 * tau[:, None]) & (gaps <= 1.7 * tau[:, None]))
    order = np.argsort(~in_range, axis=1, kind="stable")
    periods = np.take_along_axis(np.where(in_range, gaps, 0), order, axis=1)
    n_periods = in_range.sum(axis=1)
    steps = np.diff(periods, axis=1)
    step_sum = np.where(np.arange(width - 2) < n_periods[:, None] - 1, np.abs(steps), 0).sum(axis=1)
    ddp_sum = np.where(np.arange(width - 3) < n_periods[:, None] - 2, np.abs(np.diff(steps, axis=1)), 0).sum(axis=1)
    mean_period = periods.sum(axis=1) / np.maximum(n_periods, 1)
    two, three = n_periods >= 2, n_periods >= 3
    jit_loc[frame[two]] = step_sum[two] / (n_periods[two] - 1) / mean_period[two]
    jit_ddp[frame[three]] = ddp_sum[three] / (n_periods[three] - 2) / mean_period[three]

    # shimmer over the kept peak heights of frames that kept two or more
    amp[np.arange(width) >= n_kept[:, None]] = 0.0
    amp_steps = np.abs(np.diff(amp, axis=1))
    amp_steps[np.arange(width - 1) >= n_kept[:, None] - 1] = 0.0
    mean_amp = _row_means(amp, n_kept)
    cycled = (n_kept >= 2) & (mean_amp > 0)
    shim[frame[cycled]] = _row_means(amp_steps, n_kept - 1)[cycled] / mean_amp[cycled]

    return {"jitter_local": jit_loc, "jitter_ddp": jit_ddp, "shimmer_local": shim, "log_hnr": hnr}


# ---------------------------------------------------------------------------
# derivatives and functionals
# ---------------------------------------------------------------------------


def _track_matrix(values) -> np.ndarray:
    """values as a C-ordered float matrix, so every row is summed pairwise as np.mean sums one track."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (tracks, frames) matrix, got shape {x.shape}")
    return x


def add_derivatives(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second regression deltas (window +-2, replicated edges) of
    each row of a (tracks, frames) matrix."""
    d1 = _delta(values)
    return d1, _delta(d1)


def _delta(values: np.ndarray) -> np.ndarray:
    """One regression delta of each row, summed in place: the result and one scratch matrix."""
    width = DELTA_WIDTH
    values = _track_matrix(values)
    n = values.shape[1]
    if n < 2 * width + 1:
        raise ValueError(f"track length {n} too short for delta window +-{width}")
    denom = 2.0 * sum(k * k for k in range(1, width + 1))
    out = np.zeros_like(values)
    step = np.empty_like(values)
    for k in range(1, width + 1):
        # x[t + k] - x[t - k], the edge values held beyond either end
        np.subtract(values[:, 2 * k :], values[:, : n - 2 * k], out=step[:, k : n - k])
        np.subtract(values[:, k : 2 * k], values[:, :1], out=step[:, :k])
        np.subtract(values[:, n - 1 :], values[:, n - 2 * k : n - k], out=step[:, n - k :])
        step *= k
        out += step
    out /= denom
    return out


def apply_functionals(values: np.ndarray) -> np.ndarray:
    """Project each row of a (tracks, frames) matrix on the 24 functionals.

    Returns (tracks, 24) in FUNCTIONAL_NAMES order. The rows go through in
    chunks of at most FUNCTIONAL_ELEMENTS values, and every reduction runs
    along a row, so a row's result does not depend on the rows beside it.
    """
    x = _track_matrix(values)
    n = x.shape[1]
    if n < 3:
        raise ValueError(f"track length {n} < 3")
    rows = max(1, FUNCTIONAL_ELEMENTS // n)
    return np.concatenate([_functionals(x[lo : lo + rows]) for lo in range(0, len(x), rows)])


def _functionals(x: np.ndarray) -> np.ndarray:
    """apply_functionals on one chunk of rows."""
    n = x.shape[1]
    t = np.arange(n, dtype=np.float64)

    total = x.sum(axis=1)
    mean = total / n  # np.mean's value: the pairwise row sum over n
    dev = x - mean[:, None]

    # least-squares line and parabola in the discrete orthogonal polynomials
    # of the centred time u = t - c (1, u, u^2 - k), then converted to
    # np.polyfit's monomial coefficients; the errors come from the residuals
    c = (n - 1) / 2.0
    k = (n * n - 1) / 12.0
    u = t - c
    p2 = u * u - k
    b1 = (dev * u).sum(axis=1) / (n * (n * n - 1) / 12)
    b2 = (dev * p2).sum(axis=1) / (n * (n * n - 1) * (n * n - 4) / 180)
    lin_res = dev - b1[:, None] * u
    quad_res = lin_res - b2[:, None] * p2
    lin_err = (lin_res**2).mean(axis=1)
    quad_err = (quad_res**2).mean(axis=1)

    zcr = np.count_nonzero(x[:, :-1] * x[:, 1:] < 0, axis=1) / (n - 1)

    # interior maxima above the mean; the mean gap between consecutive peaks
    # telescopes to (last - first) / (count - 1)
    mid = x[:, 1:-1]
    peaks = (mid > x[:, :-2]) & (mid > x[:, 2:]) & (mid > mean[:, None])
    n_peaks = np.count_nonzero(peaks, axis=1)
    first = np.argmax(peaks, axis=1)
    last = n - 3 - np.argmax(peaks[:, ::-1], axis=1)
    peak_dist = np.divide(last - first, n_peaks - 1, out=np.zeros(len(x)), where=n_peaks >= 2)
    peak_amp = np.divide(np.where(peaks, mid, 0.0).sum(axis=1), n_peaks, out=np.zeros(len(x)), where=n_peaks > 0)

    nonzero = x != 0.0
    n_nonzero = np.count_nonzero(nonzero, axis=1)
    log_abs = np.log(np.abs(x), out=np.zeros_like(x), where=nonzero)
    some = n_nonzero > 0
    mean_log = np.divide(log_abs.sum(axis=1), n_nonzero, out=np.zeros(len(x)), where=some)
    geo = np.exp(mean_log, out=np.zeros(len(x)), where=some)

    centroid = np.divide((t * x).sum(axis=1), total, out=np.zeros(len(x)), where=total != 0.0)

    # powers by products: with numpy 2.4, ``** 3`` and ``** 4`` cost about 50 products each
    dev2 = dev * dev
    var = dev2.mean(axis=1)
    std = np.sqrt(var)
    spread = std > 0.0
    skew = np.divide((dev2 * dev).mean(axis=1), var * std, out=np.zeros(len(x)), where=spread)
    kurt = np.divide((dev2 * dev2).mean(axis=1), var * var, out=np.zeros(len(x)), where=spread)

    vmax, vmin = x.max(axis=1), x.min(axis=1)
    return np.column_stack([
        vmax - vmin, np.argmax(x, axis=1), np.argmin(x, axis=1),
        b1, mean - b1 * c, lin_err,
        b2, b1 - 2.0 * c * b2, mean - b1 * c + b2 * (c * c - k), quad_err,
        zcr, n_peaks, peak_dist, peak_amp,
        geo, n_nonzero, centroid,
        var, std, skew, kurt,
        mean, vmax, vmin,
    ])


# ---------------------------------------------------------------------------
# per-session vectors
# ---------------------------------------------------------------------------


def session_acoustic_vector(session: Session) -> AcousticVector:
    """A session's full acoustic pass: its merged vector M, in GROUP_NAMES["M"] order.

    The session is framed once, and its P, S and VQ LLDs come from one pass
    over blocks of BLOCK_FRAMES frame starts, each block's frames read from
    the session's audio (a WavReader or an AudioSignal) into a FrameSet.
    Each LLD over the blocks, its delta and its delta-delta are
    projected on the 24 functionals, which gives M; S, P and VQ are its
    GROUP_COLUMNS slices. Sessions the recipe cannot
    describe (no audio, no participant turns, a sample rate below 8 kHz,
    fewer frames than the delta window) raise EmptyInputError.
    """
    audio = session.audio
    if audio is None:
        raise EmptyInputError(f"session {session.id} has no audio")
    starts = frame_signal(audio, session.turns)
    if len(starts) < MIN_FRAMES:
        raise EmptyInputError(f"session {session.id}: {len(starts)} frames, fewer than the delta window ({MIN_FRAMES})")

    flen, hop = _frame_len(audio.rate), _hop(audio.rate)
    rows = [(g, name) for g in M_GROUPS for name in GROUP_LLDS[g]]
    base = np.empty((len(rows), len(starts)))  # one row per LLD, in GROUP_NAMES["M"] order
    previous, held_f0 = None, 0.0  # state carried over block edges
    for lo in range(0, len(starts), BLOCK_FRAMES):
        block = FrameSet(_read_frames(audio, starts[lo : lo + BLOCK_FRAMES], flen, hop), audio.rate)
        tracks = {"S": spectral_llds(block, previous), "P": prosodic_llds(block, held_f0)}
        tracks["VQ"] = voice_quality_llds(block, tracks["P"]["f0"])
        previous, held_f0 = block.samples[-1].copy(), tracks["P"]["f0_env"][-1]
        for i, (g, name) in enumerate(rows):
            base[i, lo : lo + len(block)] = tracks[g][name]

    # each LLD's functionals, then its delta's and its delta-delta's
    values = np.stack([apply_functionals(m) for m in (base, *add_derivatives(base))], axis=1)
    return AcousticVector(values.reshape(-1), session.id)
