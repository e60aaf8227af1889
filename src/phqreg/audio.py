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
Framing only records where each frame starts; each block's frames are copied
once, and from that copy come its power spectrum (S) and one normalised
autocorrelation (ACF) per frame, cached on the block's FrameSet, which feeds
both P and VQ; VQ reuses the f0 track from P. Every LLD is computed per frame,
so the block split does not change a value. The two descriptors that look
across frames carry their state over a block edge: flux gets the frame before
the block, and the f0 envelope the last voiced f0. A block's frames, spectrum
and ACF are dropped before the next block, so what a session keeps is its
samples plus the O(n_frames) LLD tracks; deltas and functionals run on those
tracks after the pass. The merged vector M is the P, S and VQ values of that
single pass, concatenated in that order; a group's values do not depend on
which other groups share the pass, so M's slices equal the separately
extracted groups byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import AudioSignal, Session, Speaker

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
GROUP_NAMES["M"] = GROUP_NAMES["P"] + GROUP_NAMES["S"] + GROUP_NAMES["VQ"]

# frames per block of the acoustic pass: bounds every frame-sized array (the
# block's frames, spectrum and ACF, about 16 MB at 16 kHz) whatever the
# session length. Blocks this small also let the allocator reuse one block's
# arrays for the next; at 1024 frames they were unmapped and faulted in
# again every block, and the pass ran slower than on whole-session arrays.
BLOCK_FRAMES = 512

# regression-delta window +-DELTA_WIDTH; shorter sessions cannot be described
DELTA_WIDTH = 2
MIN_FRAMES = 2 * DELTA_WIDTH + 1

_LOUDNESS_FLOOR = 1e-30


class EmptyInputError(ValueError):
    pass


@dataclass(frozen=True)
class FrameSet:
    """Raw 25 ms frames (rows) taken from participant turn spans.

    The frames are the rows ``starts`` of ``windows``, or every row when
    ``starts`` is None. frame_signal passes the signal's sliding-window view
    as ``windows``, so no frame is copied until ``block`` or ``samples`` asks.
    """

    windows: np.ndarray  # (n_windows, frame_len)
    rate: int
    starts: np.ndarray | None = None  # row of windows for each frame

    def __len__(self) -> int:
        return len(self.windows) if self.starts is None else len(self.starts)

    @property
    def frame_len(self) -> int:
        return self.windows.shape[1]

    @property
    def samples(self) -> np.ndarray:
        """(n_frames, frame_len); a fresh copy of every frame when ``starts`` is set."""
        return self.windows if self.starts is None else self.windows[self.starts]

    def windowed(self) -> np.ndarray:
        return self.samples * np.hamming(self.frame_len)

    def block(self, lo: int, hi: int) -> FrameSet:
        """Frames lo..hi-1 as a FrameSet of their own; frames picked by ``starts`` are copied."""
        rows = slice(lo, hi)
        return FrameSet(self.windows[rows] if self.starts is None else self.windows[self.starts[rows]], self.rate)

    @cached_property
    def acf(self) -> np.ndarray:
        """Normalised ACF per frame (lags 0..frame_len-1), computed on first use."""
        return _normalized_acf(self.samples)


@dataclass(frozen=True)
class AcousticVector:
    """Named per-session feature vector for one acoustic group."""

    group: str  # S | P | VQ | M
    names: tuple[str, ...]  # GROUP_NAMES[group]
    values: np.ndarray
    session_id: str = ""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def frame_signal(audio: AudioSignal, turns) -> FrameSet:
    """Cut 25 ms / 10 ms-hop frames from participant turn spans.

    Frames crossing a turn boundary are dropped; turns shorter than one
    window contribute no frames.
    """
    if audio.rate < MIN_SAMPLE_RATE:
        raise EmptyInputError(f"sample rate {audio.rate} below minimum {MIN_SAMPLE_RATE} Hz")
    spans = [t for t in turns if t.speaker is Speaker.PARTICIPANT]
    if not spans:
        raise EmptyInputError("no participant turns")

    flen = int(round(FRAME_SECONDS * audio.rate))
    hop = int(round(HOP_SECONDS * audio.rate))
    n = len(audio.samples)

    starts = []
    for t in spans:
        lo = min(max(int(round(t.start * audio.rate)), 0), n)
        hi = min(max(int(round(t.stop * audio.rate)), 0), n)
        starts.append(np.arange(lo, hi - flen + 1, hop))
    starts = np.concatenate(starts)
    if not len(starts):
        return FrameSet(np.zeros((0, flen)), audio.rate)
    windows = np.lib.stride_tricks.sliding_window_view(audio.samples, flen)
    return FrameSet(windows, audio.rate, starts)


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
    carry), and without it the first frame's flux is 0.
    """
    if len(frames) == 0:
        raise EmptyInputError("empty frame set")
    freqs = np.fft.rfftfreq(frames.frame_len, d=1.0 / frames.rate)
    window = np.hamming(frames.frame_len)
    mag = _magnitude_spectrum(frames.samples, window)
    power = mag**2
    tracks = {}

    total = power.sum(axis=1)
    nonzero = total > 0.0

    # band energies are summed bin by bin, left to right: .sum(axis=1) on the
    # column-major masked copy does that for several frames but sums one
    # frame pairwise, so the block size would change the last bits. The copy
    # lets the block's cumulative sums go.
    for (lo, hi), name in zip(SPECTRAL_BANDS, SPECTRAL_LLDS[:4]):
        tracks[name] = np.cumsum(power[:, (freqs >= lo) & (freqs <= hi)], axis=1)[:, -1].copy()

    cum = np.cumsum(power, axis=1)
    for pct, name in zip(ROLLOFF_PERCENTS, SPECTRAL_LLDS[4:8]):
        idx = np.argmax(cum >= pct * total[:, None], axis=1)
        tracks[name] = np.where(nonzero, freqs[idx], 0.0)

    centroid = np.zeros(len(power))
    centroid[nonzero] = (power[nonzero] * freqs).sum(axis=1) / total[nonzero]
    tracks["centroid"] = centroid

    norm = _unit_sum(mag)
    if previous is not None:
        norm = np.concatenate([_unit_sum(_magnitude_spectrum(previous[None, :], window)), norm])
    flux = np.zeros(len(frames))
    flux[len(frames) + 1 - len(norm) :] = np.sqrt(((norm[1:] - norm[:-1]) ** 2).sum(axis=1))
    tracks["flux"] = flux

    tracks["max_pos"] = freqs[np.argmax(power, axis=1)]
    tracks["min_pos"] = freqs[np.argmin(power, axis=1)]

    return tracks


# ---------------------------------------------------------------------------
# prosodic LLDs
# ---------------------------------------------------------------------------


def _normalized_acf(x: np.ndarray) -> np.ndarray:
    """Bias-corrected normalized autocorrelation r(tau) per frame (FFT-based)."""
    flen = x.shape[1]
    nfft = 1 << int(np.ceil(np.log2(2 * flen)))
    corr = flen / np.maximum(flen - np.arange(flen), 1)
    spec = np.fft.rfft(x, n=nfft, axis=1)
    acf = np.fft.irfft(np.abs(spec) ** 2, n=nfft, axis=1)[:, :flen]
    r0 = acf[:, 0:1]
    return np.divide(acf, r0, out=np.zeros_like(acf), where=r0 > 0) * corr


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


def _mean(values: list[float]) -> float:
    """np.mean's value, summed in its order: left to right below 8 elements."""
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _merge_cycle_peaks(positions: list[int], heights: list[float], min_sep: float) -> tuple[list[int], list[float]]:
    """One peak per pitch cycle: a candidate closer than min_sep to the last
    kept peak replaces it when taller (greedy, left to right)."""
    kept, amps = [positions[0]], [heights[0]]
    for i, h in zip(positions[1:], heights[1:]):
        if i - kept[-1] < min_sep:
            if h > amps[-1]:
                kept[-1], amps[-1] = i, h
        else:
            kept.append(i)
            amps.append(h)
    return kept, amps


def voice_quality_llds(frames: FrameSet, f0: np.ndarray) -> dict[str, np.ndarray]:
    """Jitter (local, DDP), shimmer (local) and logHNR; all 0 on unvoiced frames.

    HNR reads the frame's normalised ACF at the pitch period. Jitter and
    shimmer come from one amplitude peak per pitch cycle: interior maxima of
    at least half the frame maximum, merged greedily when closer than 0.4
    periods (generous, so the picker survives a period-doubled f0 estimate).
    Periods outside 0.3-1.7 pitch periods are ignored.
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
    active = np.flatnonzero((f0 > 0) & (frame_max > 0))
    x, xmax = samples[active], frame_max[active]
    period = frames.rate / f0[active]

    lag = np.rint(period)
    has_lag = (lag > 0) & (lag < frames.frame_len)
    r = np.clip(frames.acf[active[has_lag], lag[has_lag].astype(np.intp)], 1e-10, 1.0 - 1e-10)
    hnr[active[has_lag]] = 10.0 * np.log10(r / (1.0 - r))

    # candidate cycle peaks of every frame at once, row-major
    mid = x[:, 1:-1]
    cand = (mid > x[:, :-2]) & (mid > x[:, 2:]) & (mid >= 0.5 * xmax[:, None])
    rows, cols = np.nonzero(cand)
    cols += 1
    heights = x[rows, cols].tolist()
    bounds = np.searchsorted(rows, np.arange(len(active) + 1)).tolist()
    cols = cols.tolist()

    for j, (t, tau) in enumerate(zip(active.tolist(), period.tolist())):
        lo, hi = bounds[j], bounds[j + 1]
        if hi - lo < 2:
            continue
        peaks, amps = _merge_cycle_peaks(cols[lo:hi], heights[lo:hi], 0.4 * tau)
        if len(peaks) < 2:
            continue
        # periods are whole samples: their sums are exact in any order, and
        # int / int rounds once, as np.mean's float sum / count does
        short, long = 0.3 * tau, 1.7 * tau
        periods = [b - a for a, b in zip(peaks, peaks[1:]) if short <= b - a <= long]
        if len(periods) >= 2:
            steps = [b - a for a, b in zip(periods, periods[1:])]
            mean_period = sum(periods) / len(periods)
            jit_loc[t] = sum(map(abs, steps)) / len(steps) / mean_period
            if len(steps) >= 2:
                jit_ddp[t] = sum(abs(b - a) for a, b in zip(steps, steps[1:])) / (len(steps) - 1) / mean_period
        mean_amp = _mean(amps)
        if mean_amp > 0:
            shim[t] = _mean([abs(b - a) for a, b in zip(amps, amps[1:])]) / mean_amp

    return {"jitter_local": jit_loc, "jitter_ddp": jit_ddp, "shimmer_local": shim, "log_hnr": hnr}


# ---------------------------------------------------------------------------
# derivatives and functionals
# ---------------------------------------------------------------------------


def add_derivatives(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second regression deltas (window +-2, replicated edges)."""
    d1 = _delta(values)
    return d1, _delta(d1)


def _delta(values: np.ndarray, width: int = DELTA_WIDTH) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2 * width + 1:
        raise ValueError(f"track length {len(values)} too short for delta window +-{width}")
    padded = np.pad(values, width, mode="edge")
    denom = 2.0 * sum(k * k for k in range(1, width + 1))
    out = np.zeros_like(values)
    for k in range(1, width + 1):
        out += k * (padded[width + k : width + k + len(values)] - padded[width - k : width - k + len(values)])
    return out / denom


def apply_functionals(values: np.ndarray) -> np.ndarray:
    """Project one LLD track on the 24 functionals, in FUNCTIONAL_NAMES order."""
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


# ---------------------------------------------------------------------------
# per-session vectors
# ---------------------------------------------------------------------------


def session_acoustic_vector(session: Session, group: str) -> AcousticVector:
    """Extract one acoustic group (S, P, VQ or the merge M) for a session.

    The session is framed once and its LLDs come from one pass over blocks
    of BLOCK_FRAMES frames; M concatenates the P, S and VQ values of that
    pass. Each LLD over the blocks, its delta and its delta-delta are
    projected on the 24 functionals. Sessions the recipe cannot describe (no
    audio, no participant turns, a sample rate below 8 kHz, fewer frames
    than the delta window) raise EmptyInputError.
    """
    if group not in GROUP_NAMES:
        raise ValueError(f"unknown group {group!r}")
    if session.audio is None:
        raise EmptyInputError(f"session {session.id} has no audio")
    frames = frame_signal(session.audio, session.turns)
    if len(frames) < MIN_FRAMES:
        raise EmptyInputError(f"session {session.id}: {len(frames)} frames, fewer than the delta window ({MIN_FRAMES})")

    groups = ("P", "S", "VQ") if group == "M" else (group,)
    per_block = {g: [] for g in groups}  # group -> one name -> track dict per block
    previous, held_f0 = None, 0.0  # state carried over block edges
    for lo in range(0, len(frames), BLOCK_FRAMES):
        block = frames.block(lo, lo + BLOCK_FRAMES)
        if "S" in groups:
            per_block["S"].append(spectral_llds(block, previous))
            previous = block.samples[-1].copy()
        if group != "S":
            prosody = prosodic_llds(block, held_f0)
            held_f0 = prosody["f0_env"][-1]
            if "P" in groups:
                per_block["P"].append(prosody)
            if "VQ" in groups:
                per_block["VQ"].append(voice_quality_llds(block, prosody["f0"]))

    chunks = []
    for g in groups:
        for name in GROUP_LLDS[g]:
            base = np.concatenate([tracks[name] for tracks in per_block[g]])
            chunks += [apply_functionals(track) for track in (base, *add_derivatives(base))]
    return AcousticVector(group, GROUP_NAMES[group], np.concatenate(chunks), session.id)
