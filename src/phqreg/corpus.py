"""Session data model and loaders/writers for the interview corpus formats.

One session = one recorded interview: mono audio, speaker turns from the
transcript, a facial-landmark sequence, and an optional PHQ-8 label (0-24).

File formats:
    transcript   TSV, header ``start_time  stop_time  speaker  value``
    landmarks    CSV, header ``frame,timestamp,confidence,success,X0..X67,Y0..Y67,Z0..Z67``
    labels       CSV, header ``Participant_ID,PHQ8_Binary,PHQ8_Score``
    audio        16-bit PCM WAV, mono

All types are immutable after construction; loaders are pure functions of
file content.
"""

from __future__ import annotations

import enum
import re
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_LANDMARKS = 68
PHQ8_MIN, PHQ8_MAX = 0, 24
PHQ8_DEPRESSED_CUTOFF = 10  # PHQ8_Binary is 1 from this score up

TRANSCRIPT_HEADER = ("start_time", "stop_time", "speaker", "value")
LABELS_HEADER = ("Participant_ID", "PHQ8_Binary", "PHQ8_Score")

# Annotation tokens: maximal <...> substrings, kept intact and lowercased.
_TOKEN_RE = re.compile(r"<[^<>\s]+>|[^\s<>]+")
_ANNOTATION_RE = re.compile(r"<[^<>\s]+>\Z")


class ParseError(ValueError):
    """A corpus file does not match its expected format."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class Speaker(enum.Enum):
    AGENT = "agent"
    PARTICIPANT = "participant"


_SPEAKER_ALIASES = {"ellie": Speaker.AGENT, "participant": Speaker.PARTICIPANT}


def is_annotation(token: str) -> bool:
    return _ANNOTATION_RE.match(token) is not None


def tokenize(value: str) -> tuple[str, ...]:
    """Whitespace-tokenize transcript text, keeping ``<...>`` annotations intact.

    Annotation tokens are lowercased; word tokens are kept verbatim.
    """
    out = []
    for tok in _TOKEN_RE.findall(value):
        out.append(tok.lower() if is_annotation(tok) else tok)
    return tuple(out)


@dataclass(frozen=True)
class TurnRecord:
    """One speaker turn: [start, stop) seconds and its tokenized text."""

    start: float
    stop: float
    speaker: Speaker
    text: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.stop > self.start:
            raise ValueError(f"turn stop ({self.stop}) must exceed start ({self.start})")
        object.__setattr__(self, "text", tuple(self.text))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AudioSignal:
    """Mono PCM samples in [-1, 1] plus the sample rate in Hz."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("audio samples must be a 1-d array (mono)")
        object.__setattr__(self, "samples", _frozen(samples))


@dataclass(frozen=True)
class LandmarkSequence:
    """Per-frame 68x3 facial keypoints with timestamp/confidence/success."""

    timestamps: np.ndarray  # (n,) seconds, strictly increasing
    confidence: np.ndarray  # (n,) in [0, 1]
    success: np.ndarray  # (n,) bool
    points: np.ndarray  # (n, 68, 3) millimeters

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 3 or pts.shape[1] != N_LANDMARKS or pts.shape[2] != 3:
            raise ValueError(f"points must have shape (n, {N_LANDMARKS}, 3), got {pts.shape}")
        if len(ts) != len(pts):
            raise ValueError("timestamps and points disagree in length")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", _frozen(ts))
        object.__setattr__(self, "confidence", _frozen(np.asarray(self.confidence, dtype=np.float64)))
        object.__setattr__(self, "success", _frozen(np.asarray(self.success, dtype=bool)))
        object.__setattr__(self, "points", _frozen(pts))

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class Session:
    """One interview: audio, turns, landmarks, and an optional PHQ-8 score."""

    id: str
    turns: tuple[TurnRecord, ...] = ()
    audio: AudioSignal | None = None
    landmarks: LandmarkSequence | None = None
    label: int | None = None

    def __post_init__(self):
        turns = tuple(self.turns)
        starts = [t.start for t in turns]
        if starts != sorted(starts):
            raise ValueError(f"session {self.id}: turns must be sorted by start time")
        if self.label is not None and not PHQ8_MIN <= self.label <= PHQ8_MAX:
            raise ValueError(f"session {self.id}: label {self.label} outside [{PHQ8_MIN}, {PHQ8_MAX}]")
        object.__setattr__(self, "turns", turns)


# ---------------------------------------------------------------------------
# transcript TSV
# ---------------------------------------------------------------------------


def load_transcript(path) -> list[TurnRecord]:
    """Parse a tab-separated transcript into TurnRecords (file order)."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected transcript header")
    header = tuple(h.strip().lower() for h in lines[0].split("\t"))
    if header != TRANSCRIPT_HEADER:
        raise ParseError(path, 1, f"bad header {header!r}, expected {TRANSCRIPT_HEADER!r}")

    turns = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 4:
            raise ParseError(path, lineno, f"expected 4 tab-separated fields, got {len(parts)}")
        try:
            start, stop = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric time in {parts[:2]!r}") from None
        if not stop > start:
            raise ParseError(path, lineno, f"stop ({stop}) must exceed start ({start})")
        speaker = _SPEAKER_ALIASES.get(parts[2].strip().lower())
        if speaker is None:
            raise ParseError(path, lineno, f"unknown speaker {parts[2]!r}")
        turns.append(TurnRecord(start, stop, speaker, tokenize(parts[3])))
    return turns


def save_transcript(turns, path) -> None:
    path = Path(path)
    rows = ["\t".join(TRANSCRIPT_HEADER)]
    for t in turns:
        name = "Ellie" if t.speaker is Speaker.AGENT else "Participant"
        rows.append(f"{t.start!r}\t{t.stop!r}\t{name}\t{' '.join(t.text)}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# landmarks CSV
# ---------------------------------------------------------------------------

_N_LM_COLS = 4 + 3 * N_LANDMARKS


def landmark_header() -> str:
    cols = ["frame", "timestamp", "confidence", "success"]
    for axis in ("X", "Y", "Z"):
        cols += [f"{axis}{i}" for i in range(N_LANDMARKS)]
    return ",".join(cols)


def load_landmarks(path) -> LandmarkSequence:
    """Parse a landmark CSV (frame, timestamp, confidence, success, 204 coords)."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected landmark header")
    # the header fixes the coordinate layout, so a file with any other header is refused
    if ",".join(h.strip() for h in lines[0].split(",")) != landmark_header():
        raise ParseError(path, 1, "bad header, expected frame,timestamp,confidence,success,X0..X67,Y0..Y67,Z0..Z67")

    ts, conf, succ, pts = [], [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != _N_LM_COLS:
            raise ParseError(path, lineno, f"expected {_N_LM_COLS} columns, got {len(parts)}")
        try:
            vals = np.array([float(p) for p in parts], dtype=np.float64)
        except ValueError:
            raise ParseError(path, lineno, "non-numeric value") from None
        flag = int(vals[3])
        if flag not in (0, 1):
            raise ParseError(path, lineno, f"success flag must be 0 or 1, got {parts[3]!r}")
        ts.append(vals[1])
        conf.append(vals[2])
        succ.append(bool(flag))
        # columns are X0..X67, Y0..Y67, Z0..Z67
        pts.append(vals[4:].reshape(3, N_LANDMARKS).T)

    ts = np.array(ts)
    if len(ts) > 1 and not np.all(np.diff(ts) > 0):
        bad = int(np.argmax(np.diff(ts) <= 0))
        raise ParseError(path, bad + 3, "timestamps must be strictly increasing")
    return LandmarkSequence(ts, np.array(conf), np.array(succ), np.array(pts).reshape(-1, N_LANDMARKS, 3))


def save_landmarks(seq: LandmarkSequence, path) -> None:
    path = Path(path)
    rows = [landmark_header()]
    for i in range(len(seq)):
        coords = seq.points[i].T.reshape(-1)  # X0..X67, Y0..Y67, Z0..Z67
        cells = [str(i), repr(float(seq.timestamps[i])), repr(float(seq.confidence[i])), str(int(seq.success[i]))]
        cells += [repr(float(c)) for c in coords]
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# labels CSV
# ---------------------------------------------------------------------------


def load_labels(path) -> dict[str, int]:
    """Map session id -> PHQ-8 score. The binary column is parsed but unused."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected labels header")
    header = tuple(h.strip() for h in lines[0].split(","))
    if header != LABELS_HEADER:
        raise ParseError(path, 1, f"bad header {header!r}, expected {LABELS_HEADER!r}")
    labels = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 3 columns, got {len(parts)}")
        try:
            int(parts[1])  # binary flag, unused
            score = int(parts[2])
        except ValueError:
            raise ParseError(path, lineno, "non-integer label") from None
        if not PHQ8_MIN <= score <= PHQ8_MAX:
            raise ParseError(path, lineno, f"PHQ8_Score {score} outside [{PHQ8_MIN}, {PHQ8_MAX}]")
        if parts[0] in labels:
            raise ParseError(path, lineno, f"Participant_ID {parts[0]} listed twice")
        labels[parts[0]] = score
    return labels


def save_labels(labels: dict[str, int], path) -> None:
    path = Path(path)
    rows = [",".join(LABELS_HEADER)]
    for sid in sorted(labels):
        score = labels[sid]
        rows.append(f"{sid},{int(score >= PHQ8_DEPRESSED_CUTOFF)},{score}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# WAV audio
# ---------------------------------------------------------------------------


def load_wav(path) -> AudioSignal:
    """Read a 16-bit PCM mono WAV file. Stereo input is rejected, not downmixed."""
    path = Path(path)
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got {w.getnchannels()} channels")
        if w.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
        rate = w.getframerate()
        raw = w.readframes(w.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= 32768.0  # in place: no second float64 copy of the session
    return AudioSignal(samples, rate)


def save_wav(signal: AudioSignal, path) -> None:
    path = Path(path)
    pcm = np.clip(np.round(signal.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(signal.rate)
        w.writeframes(pcm.tobytes())
