"""Trainable predictors with a uniform predict contract, plus model file I/O.

Model files are versioned, self-describing JSON: a format version, the model
kind, hyperparameters, normalization statistics and parameters. Loading a
file with a mismatched format version fails loudly.

Each learner lives in the submodule named after its kind (``svr``,
``reptree``, ``lstm``). The package imports none of them: ``load_model``
imports only the one whose file it reads. The min-max scaling that the SVR
and Relief share lives here, so Relief loads no learner.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np

MODEL_FORMAT_VERSION = 3


class ModelFormatError(ValueError):
    pass


# model kind -> the class in phqreg.models.<kind> that reads its files
_MODEL_CLASSES = {"svr": "SvrModel", "reptree": "RepTreeModel", "lstm": "LstmModel"}


def min_max_scale(X: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """(X - mins) / (maxs - mins) per column; a column with maxs == mins maps to 0."""
    ranges = maxs - mins
    out = np.zeros_like(X)
    ok = ranges > 0
    out[:, ok] = (X[:, ok] - mins[ok]) / ranges[ok]
    return out


def save_model(model, path, extra: dict | None = None) -> None:
    """Write a model to its JSON envelope; ``extra`` carries pipeline metadata."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "model": model.to_dict(),
        "extra": extra or {},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_model(path) -> tuple[object, dict]:
    """Read a model envelope; returns (model, extra metadata)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"{path}: model format version {version!r}, expected {MODEL_FORMAT_VERSION}")
    kind = payload.get("kind")
    if kind not in _MODEL_CLASSES:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    cls = getattr(importlib.import_module(f"{__name__}.{kind}"), _MODEL_CLASSES[kind])
    return cls.from_dict(payload["model"]), payload.get("extra", {})


__all__ = ["save_model", "load_model", "ModelFormatError", "MODEL_FORMAT_VERSION"]
