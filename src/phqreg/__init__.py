"""phqreg: multimodal depression-severity (PHQ-8) regression toolkit.

Four per-session feature pipelines (acoustic LLD functionals, behavioral turn
features, bag-of-words / embedding text features, facial-landmark geometry)
feed three learners (epsilon-SVR, reduced-error-pruning regression tree,
two-layer LSTM) through a file-based CLI.
"""

__version__ = "0.1.0"

from .corpus import (
    AudioSignal,
    LandmarkSequence,
    ParseError,
    Speaker,
    TurnRecord,
    load_labels,
    load_landmarks,
    load_transcript,
    load_wav,
)
from .metrics import evs, mae, rmse

__all__ = [
    "AudioSignal", "LandmarkSequence", "ParseError", "Speaker", "TurnRecord",
    "load_labels", "load_landmarks", "load_transcript", "load_wav",
    "evs", "mae", "rmse",
    "__version__",
]
