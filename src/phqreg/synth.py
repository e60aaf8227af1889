"""Synthetic corpus generator.

Writes a corpus tree with the real file formats (transcripts, WAV audio,
landmark CSVs, labels, split id lists) and PHQ-8 labels constructed as a
documented function of planted effects plus noise:

    rt_med  ~ U(1.10, 2.10) s for depressed sessions, U(0.25, 0.95) otherwise
    label   = round(24 * (rt_med - 0.25) / 1.85 + N(0, 0.7)),
              clipped into [10, 24] (depressed) or [0, 9] (non-depressed)

so the response-time median carries a monotone severity effect, and the
depression-diagnosis answer (PDI dep flag) confirms with 95% probability for
depressed sessions. Secondary effects follow the label: more disfluencies and
sighs, less laughter, lower speaking pitch, and smaller facial motion for
higher severity. Same spec + seed reproduces the corpus byte for byte. The
files go where corpus.corpus_path puts them.
"""

from __future__ import annotations

import numpy as np

from .config import SynthSpec  # re-exported: the spec is defined with the config it fills
from .corpus import (
    AudioSignal,
    LandmarkSequence,
    N_LANDMARKS,
    PHQ8_DEPRESSED_CUTOFF,
    PHQ8_MAX,
    PHQ8_MIN,
    SPLITS,
    Speaker,
    TurnRecord,
    corpus_path,
    save_labels,
    save_landmarks,
    save_transcript,
    save_wav,
    write_whole,
)

BASE_WORDS = (
    "i", "think", "well", "you", "know", "today", "like", "really", "just",
    "maybe", "sometimes", "work", "home", "people", "things", "time", "day",
)
LOW_MOOD_WORDS = ("tired", "sad", "down", "empty", "alone", "heavy", "numb")
HIGH_MOOD_WORDS = ("good", "great", "fun", "happy", "fine", "okay", "better")
DISFLUENCY_WORDS = ("um", "uh", "er", "mm", "hmm")

AGENT_SMALLTALK = (
    ("how", "are", "you", "doing", "today"),
    ("tell", "me", "about", "your", "week"),
    ("what", "do", "you", "do", "to", "relax"),
    ("how", "have", "you", "been", "sleeping"),
    ("what", "was", "the", "best", "part", "of", "your", "day"),
    ("do", "you", "spend", "much", "time", "with", "friends"),
    ("what", "kind", "of", "work", "do", "you", "do"),
)
QUESTION_DEP = ("have", "you", "ever", "been", "diagnosed", "with", "depression")
QUESTION_PTSD = ("do", "you", "have", "ptsd")
QUESTION_MB = ("did", "you", "ever", "serve", "in", "the", "military")


def _face_template() -> np.ndarray:
    # fixed pseudo-face: a noisy ellipsoid shell, in millimeters
    rng = np.random.default_rng(1234)
    theta = rng.uniform(0, 2 * np.pi, N_LANDMARKS)
    phi = rng.uniform(0.2, np.pi - 0.2, N_LANDMARKS)
    pts = np.stack(
        [
            60.0 * np.sin(phi) * np.cos(theta),
            80.0 * np.sin(phi) * np.sin(theta),
            40.0 * np.cos(phi),
        ],
        axis=1,
    )
    return pts + rng.normal(0, 2.0, pts.shape)


_FACE_TEMPLATE = _face_template()


def _participant_tokens(rng, n_tokens: int, label: int) -> list[str]:
    p_low = min(0.05 + 0.012 * label, 0.35)
    p_high = min(0.05 + 0.012 * (24 - label), 0.35)
    p_disf = min(0.02 + 0.01 * label, 0.3)
    tokens = []
    for _ in range(n_tokens):
        r = rng.random()
        if r < p_disf:
            tokens.append(DISFLUENCY_WORDS[rng.integers(len(DISFLUENCY_WORDS))])
        elif r < p_disf + p_low:
            tokens.append(LOW_MOOD_WORDS[rng.integers(len(LOW_MOOD_WORDS))])
        elif r < p_disf + p_low + p_high:
            tokens.append(HIGH_MOOD_WORDS[rng.integers(len(HIGH_MOOD_WORDS))])
        else:
            tokens.append(BASE_WORDS[rng.integers(len(BASE_WORDS))])
    if rng.random() < min(0.1 + 0.6 * (24 - label) / 24.0, 0.7):
        tokens.insert(int(rng.integers(len(tokens) + 1)), "<laughter>")
    if rng.random() < 0.25 * label / 24.0:
        tokens.insert(int(rng.integers(len(tokens) + 1)), "<sigh>")
    return tokens


def _session_turns(rng, spec: SynthSpec, label: int, rt_med: float, pdi: dict) -> list[TurnRecord]:
    pause_med = 0.2 + 0.04 * label
    scripted = {1: ("dep", QUESTION_DEP), 2: ("ptsd", QUESTION_PTSD), 3: ("mb", QUESTION_MB)}
    turns = []
    t = 0.5 + rng.uniform(0, 0.3)
    for pair in range(spec.turn_pairs):
        topic = None
        if pair in scripted and pdi[scripted[pair][0]] is not None:
            topic, question = scripted[pair]
        else:
            question = AGENT_SMALLTALK[rng.integers(len(AGENT_SMALLTALK))]
        dur_a = rng.uniform(1.0, 2.5)
        turns.append(TurnRecord(round(t, 3), round(t + dur_a, 3), Speaker.AGENT, question))
        t += dur_a + rt_med * float(np.exp(rng.normal(0, 0.2)))

        if topic is not None:
            answer = ("yes", "i", "have") if pdi[topic] else ("no", "never")
            dur_p = rng.uniform(1.0, 2.0)
            turns.append(TurnRecord(round(t, 3), round(t + dur_p, 3), Speaker.PARTICIPANT, answer))
            t += dur_p
        else:
            dur_p = rng.uniform(1.5, 4.0)
            tokens = _participant_tokens(rng, max(int(2.5 * dur_p), 3), label)
            turns.append(TurnRecord(round(t, 3), round(t + dur_p, 3), Speaker.PARTICIPANT, tokens))
            t += dur_p
            if rng.random() < 0.4:  # follow-on turn -> within-speaker pause
                t += pause_med * float(np.exp(rng.normal(0, 0.2)))
                dur_p2 = rng.uniform(1.0, 3.0)
                tokens = _participant_tokens(rng, max(int(2.5 * dur_p2), 3), label)
                turns.append(TurnRecord(round(t, 3), round(t + dur_p2, 3), Speaker.PARTICIPANT, tokens))
                t += dur_p2
        t += rng.uniform(0.2, 0.8)
    return turns


def _session_audio(rng, spec: SynthSpec, turns, label: int) -> AudioSignal:
    rate = spec.audio_rate
    end = max(t.stop for t in turns) + 0.25
    samples = np.zeros(int(np.ceil(end * rate)))
    f0 = 120.0 + 2.0 * (24 - label)  # lower pitch for higher severity
    for turn in turns:
        if turn.speaker is not Speaker.PARTICIPANT:
            continue
        lo, hi = int(turn.start * rate), min(int(turn.stop * rate), len(samples))
        n = hi - lo
        if n <= 0:
            continue
        tt = np.arange(n) / rate
        phase = (f0 * tt) % 1.0
        amp = 0.3 * (1.0 + 0.1 * np.sin(2 * np.pi * 1.3 * tt))
        samples[lo:hi] = amp * (2.0 * phase - 1.0)  # sawtooth at f0
    return AudioSignal(samples, rate)


def _session_landmarks(rng, spec: SynthSpec, turns, label: int) -> LandmarkSequence:
    end = max(t.stop for t in turns)
    n_frames = max(int(end * spec.landmark_fps), 2)
    ts = np.arange(n_frames) / spec.landmark_fps
    amp = 2.0 + 6.0 * (24 - label) / 24.0  # depressed faces move less
    freq = rng.uniform(0.1, 0.5, size=3)
    phase = rng.uniform(0, 2 * np.pi, size=(N_LANDMARKS, 3))
    motion = amp * np.sin(2 * np.pi * freq * ts[:, None, None] + phase)
    jitter = rng.normal(0, 0.3, size=(n_frames, N_LANDMARKS, 3))
    pts = _FACE_TEMPLATE + motion + jitter
    success = rng.random(n_frames) >= spec.fail_prob
    conf = np.where(success, rng.uniform(0.85, 1.0, n_frames), rng.uniform(0.05, 0.3, n_frames))
    return LandmarkSequence(ts, conf, success, pts)


def _make_session(rng, spec: SynthSpec, depressed: bool):
    if depressed:
        rt_med = rng.uniform(1.10, 2.10)
    else:
        rt_med = rng.uniform(0.25, 0.95)
    raw = 24.0 * (rt_med - 0.25) / 1.85 + rng.normal(0, 0.7)
    lo, hi = (PHQ8_DEPRESSED_CUTOFF, PHQ8_MAX) if depressed else (PHQ8_MIN, PHQ8_DEPRESSED_CUTOFF - 1)
    label = int(np.clip(round(raw), lo, hi))

    pdi = {
        "dep": depressed if rng.random() >= 0.05 else not depressed,
        "ptsd": (rng.random() < 0.2 + 0.4 * depressed) if rng.random() < 0.7 else None,
        "mb": (rng.random() < 0.5) if rng.random() < 0.7 else None,
    }
    turns = _session_turns(rng, spec, label, rt_med, pdi)
    return label, turns


def gen_synthetic(spec: SynthSpec, root, seed: int) -> dict:
    """Write the corpus under ``root``; returns a small summary dict."""
    plan = []
    for split, (n, frac, base) in zip(SPLITS, (
        (spec.n_train, spec.depressed_fraction_train, 1000),
        (spec.n_dev, spec.depressed_fraction_dev, 2000),
    )):
        n_dep = int(round(n * frac))
        for i in range(n):
            plan.append((split, f"{base + 1 + i}", i < n_dep))

    labels = {}
    ids = {split: [] for split in SPLITS}
    seeds = np.random.SeedSequence(seed).spawn(len(plan))
    for (split, sid, depressed), ss in zip(plan, seeds):
        rng = np.random.default_rng(ss)
        label, turns = _make_session(rng, spec, depressed)
        labels[sid] = label
        ids[split].append(sid)

        if "transcript" in spec.modalities:
            save_transcript(turns, corpus_path(root, "transcript", sid))
        if "audio" in spec.modalities:
            save_wav(_session_audio(rng, spec, turns, label), corpus_path(root, "audio", sid))
        if "landmarks" in spec.modalities:
            save_landmarks(_session_landmarks(rng, spec, turns, label), corpus_path(root, "landmarks", sid))

    save_labels(labels, corpus_path(root, "labels"))
    for split in SPLITS:
        write_whole(corpus_path(root, "ids", split), "\n".join(ids[split]) + "\n")
    return {
        "n_train": len(ids["train"]),
        "n_dev": len(ids["dev"]),
        "train_depressed": sum(labels[s] >= PHQ8_DEPRESSED_CUTOFF for s in ids["train"]),
        "dev_depressed": sum(labels[s] >= PHQ8_DEPRESSED_CUTOFF for s in ids["dev"]),
    }
