"""Loaders and writers for the interview corpus formats, and the types they return.

One session = one recorded interview: mono audio, speaker turns from the
transcript and a facial-landmark sequence. PHQ-8 labels (0-24) come from
the labels CSV, keyed by session id.

A corpus is a tree of these files (CORPUS_LAYOUT), one id list per split
and a directory per session; corpus_path names each of them.

File formats:
    transcript   TSV, header ``start_time  stop_time  speaker  value``, rows in start-time order
    landmarks    CSV, header ``frame,timestamp,confidence,success,X0..X67,Y0..Y67,Z0..Z67``
    labels       CSV, header ``Participant_ID,PHQ8_Binary,PHQ8_Score``
    audio        16-bit PCM WAV, mono

load_wav checks a WAV file's header and data size and returns a WavReader,
which reads samples on demand: a session's samples are never held whole, so
extraction memory does not grow with the recording's length. The in-memory
AudioSignal (synth, tests) has the same ``rate``, ``n_samples`` and
``read(lo, hi)``, so the acoustic pass takes either.

The three text formats share one row reader (header line, blank lines
skipped, one field per header cell); each loader parses its own cells. A
refusal is a ParseError naming the path and the offending line.

All types are immutable after construction; loaders are pure functions of
file content. whole_file is the one writer of every file phqreg writes, here
and in the pipeline, so each appears whole or not at all.
"""

from __future__ import annotations

import enum
import math
import os
import re
import wave
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "dev")
# file kind -> path under the corpus root; {0} is the split of an id list or the session id of a session file
CORPUS_LAYOUT = {
    "labels": "labels.csv",
    "ids": "{0}_ids.txt",
    "transcript": "sessions/{0}/{0}_transcript.tsv",
    "audio": "sessions/{0}/{0}_audio.wav",
    "landmarks": "sessions/{0}/{0}_landmarks.csv",
}
N_LANDMARKS = 68
PHQ8_MIN, PHQ8_MAX = 0, 24
PHQ8_DEPRESSED_CUTOFF = 10  # PHQ8_Binary is 1 from this score up

TRANSCRIPT_HEADER = ("start_time", "stop_time", "speaker", "value")
LABELS_HEADER = ("Participant_ID", "PHQ8_Binary", "PHQ8_Score")
LANDMARK_HEADER = ("frame", "timestamp", "confidence", "success") + tuple(
    f"{axis}{i}" for axis in "XYZ" for i in range(N_LANDMARKS)
)

# Annotation tokens: maximal <...> substrings, kept intact and lowercased.
_TOKEN_RE = re.compile(r"<[^<>\s]+>|[^\s<>]+")
_ANNOTATION_RE = re.compile(r"<[^<>\s]+>\Z")


class ParseError(ValueError):
    """A corpus file does not match its expected format."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class EmptyInputError(ValueError):
    """A session holds nothing to describe: no participant turns, no audio, too few frames."""


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


def corpus_path(root, kind: str, key: str = "") -> Path:
    """Path of one corpus file under ``root``; ``key`` is the split (ids) or the session id (session files)."""
    return Path(root) / CORPUS_LAYOUT[kind].format(key)


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

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo..hi-1 (a read-only view)."""
        return self.samples[lo:hi]


@dataclass(frozen=True)
class WavReader:
    """A 16-bit PCM mono WAV file whose header load_wav has checked; samples are read on demand."""

    path: Path
    rate: int
    n_samples: int
    data_offset: int  # byte offset of sample 0 in the file

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo..hi-1 in [-1, 1), as load_wav once read the whole file.

        A file that now ends before sample ``hi`` fails with a ValueError that
        names its path.
        """
        pcm = np.empty(hi - lo, dtype="<i2")
        with open(self.path, "rb") as f:
            f.seek(self.data_offset + 2 * lo)
            got = f.readinto(pcm)
        if got < pcm.nbytes:
            raise ValueError(f"{self.path}: truncated WAV data: {lo + got // 2} of {self.n_samples} samples")
        samples = pcm.astype(np.float64)
        samples /= 32768.0  # in place: no second float64 copy
        return samples


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


# ---------------------------------------------------------------------------
# writing a file whole
# ---------------------------------------------------------------------------


@contextmanager
def whole_file(path, binary: bool = False):
    """A file object to write ``path`` with, so that it appears whole or not at all.

    Every file phqreg writes goes through here. The bytes go to a hidden
    ``.<name>.<pid>.tmp`` beside ``path`` (the directory is made if missing),
    which os.replace moves onto ``path`` when the block ends; on any error it
    is removed and ``path`` keeps what it held. Text is UTF-8 with ``\\n`` line
    ends. The replace is atomic within one filesystem; nothing is fsynced, so
    a power loss may still lose the new bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_whole(path, text: str) -> None:
    """Write ``text`` to ``path`` through whole_file."""
    with whole_file(path) as f:
        f.write(text)


# ---------------------------------------------------------------------------
# delimited rows
# ---------------------------------------------------------------------------


def _rows(path, header: tuple[str, ...], sep: str = ",", fold=str.strip):
    """Yield (line number, fields) for each non-blank data row of a delimited file.

    The first line must name ``header`` (each cell compared after ``fold``),
    and every data row must have one field per header cell; anything else
    raises ParseError naming the path and line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file, expected a header line")
    found = tuple(fold(h) for h in lines[0].split(sep))
    if found != header:
        got, want = found + (None,), header + (None,)  # None: past the last column
        col = next(i for i in range(len(got)) if got[i] != want[i])
        raise ParseError(path, 1, f"bad header: column {col + 1} is {got[col]!r}, expected {want[col]!r}")
    sep_name = "tab" if sep == "\t" else "comma"
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(sep)
        if len(parts) != len(header):
            raise ParseError(path, lineno, f"expected {len(header)} {sep_name}-separated fields, got {len(parts)}")
        yield lineno, parts


# ---------------------------------------------------------------------------
# transcript TSV
# ---------------------------------------------------------------------------


def load_transcript(path) -> list[TurnRecord]:
    """Parse a tab-separated transcript into TurnRecords, whose rows must be in start-time order."""
    turns = []
    for lineno, parts in _rows(path, TRANSCRIPT_HEADER, "\t", fold=lambda h: h.strip().lower()):
        try:
            start, stop = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric time in {parts[:2]!r}") from None
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ParseError(path, lineno, f"non-finite time in {parts[:2]!r}")
        if not stop > start:
            raise ParseError(path, lineno, f"stop ({stop}) must exceed start ({start})")
        if turns and start < turns[-1].start:
            raise ParseError(path, lineno, f"start ({start}) before the previous row's ({turns[-1].start})")
        speaker = _SPEAKER_ALIASES.get(parts[2].strip().lower())
        if speaker is None:
            raise ParseError(path, lineno, f"unknown speaker {parts[2]!r}")
        turns.append(TurnRecord(start, stop, speaker, tokenize(parts[3])))
    return turns


def save_transcript(turns, path) -> None:
    rows = ["\t".join(TRANSCRIPT_HEADER)]
    for t in turns:
        name = "Ellie" if t.speaker is Speaker.AGENT else "Participant"
        rows.append(f"{t.start!r}\t{t.stop!r}\t{name}\t{' '.join(t.text)}")
    write_whole(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# landmarks CSV
# ---------------------------------------------------------------------------


def load_landmarks(path) -> LandmarkSequence:
    """Parse a landmark CSV (frame, timestamp, confidence, success, 204 coords)."""
    # the header fixes the coordinate layout, so a file with any other header is refused
    linenos, ts, conf, succ, pts = [], [], [], [], []
    for lineno, parts in _rows(path, LANDMARK_HEADER):
        try:
            vals = np.array([float(p) for p in parts], dtype=np.float64)
        except ValueError:
            raise ParseError(path, lineno, "non-numeric value") from None
        if vals[3] not in (0.0, 1.0):
            raise ParseError(path, lineno, f"success flag must be 0 or 1, got {parts[3]!r}")
        if not np.isfinite(vals).all():
            col = int(np.argmin(np.isfinite(vals)))
            raise ParseError(path, lineno, f"non-finite {LANDMARK_HEADER[col]} {parts[col]!r}")
        linenos.append(lineno)
        ts.append(vals[1])
        conf.append(vals[2])
        succ.append(vals[3] == 1.0)
        # columns are X0..X67, Y0..Y67, Z0..Z67
        pts.append(vals[4:].reshape(3, N_LANDMARKS).T)

    ts = np.array(ts)
    if len(ts) > 1 and not np.all(np.diff(ts) > 0):
        bad = int(np.argmax(np.diff(ts) <= 0))
        raise ParseError(path, linenos[bad + 1], "timestamps must be strictly increasing")
    return LandmarkSequence(ts, np.array(conf), np.array(succ), np.array(pts).reshape(-1, N_LANDMARKS, 3))


def save_landmarks(seq: LandmarkSequence, path) -> None:
    rows = [",".join(LANDMARK_HEADER)]
    for i in range(len(seq)):
        coords = seq.points[i].T.reshape(-1)  # X0..X67, Y0..Y67, Z0..Z67
        cells = [str(i), repr(float(seq.timestamps[i])), repr(float(seq.confidence[i])), str(int(seq.success[i]))]
        cells += [repr(float(c)) for c in coords]
        rows.append(",".join(cells))
    write_whole(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# labels CSV
# ---------------------------------------------------------------------------


def load_labels(path) -> dict[str, int]:
    """Map session id -> PHQ-8 score. The binary column is parsed but unused."""
    labels = {}
    for lineno, parts in _rows(path, LABELS_HEADER):
        parts = [p.strip() for p in parts]
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
    rows = [",".join(LABELS_HEADER)]
    for sid in sorted(labels):
        score = labels[sid]
        rows.append(f"{sid},{int(score >= PHQ8_DEPRESSED_CUTOFF)},{score}")
    write_whole(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# WAV audio
# ---------------------------------------------------------------------------


def load_wav(path) -> WavReader:
    """Check a 16-bit PCM mono WAV file and return a reader of its samples.

    Stereo input is rejected, not downmixed. A file that is not a WAV file,
    or that holds fewer samples than its header declares, fails with a
    ValueError that names its path. Only the header is read here; the
    samples are read by WavReader.read.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f, wave.open(f, "rb") as w:
            if w.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
            rate = w.getframerate()
            declared = w.getnframes()
            offset = f.tell()  # wave stops reading the header at the start of the data chunk
            available = os.fstat(f.fileno()).st_size - offset
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a readable WAV file: {str(exc) or 'unexpected end of file'}") from exc
    if available < 2 * declared:
        raise ValueError(f"{path}: truncated WAV data: {available // 2} of {declared} samples")
    return WavReader(path, rate, declared, offset)


def save_wav(signal: AudioSignal, path) -> None:
    pcm = np.clip(np.round(signal.samples * 32768.0), -32768, 32767).astype("<i2")
    with whole_file(path, binary=True) as f, wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(signal.rate)
        w.writeframes(pcm.tobytes())
