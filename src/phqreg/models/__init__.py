"""Trainable predictors with a uniform predict contract, plus model file I/O.

Model files are versioned, self-describing JSON: a format version, the model
kind, hyperparameters, normalization statistics and parameters. Loading a
file with a mismatched format version fails loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

from .lstm import LstmConfig, LstmModel, lstm_train
from .reptree import RepTreeModel, reptree_train
from .svr import SvrModel, svr_train

MODEL_FORMAT_VERSION = 2


class ModelFormatError(ValueError):
    pass


_MODEL_KINDS = {"svr": SvrModel, "reptree": RepTreeModel, "lstm": LstmModel}


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
    cls = _MODEL_KINDS.get(kind)
    if cls is None:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    return cls.from_dict(payload["model"]), payload.get("extra", {})


__all__ = [
    "LstmConfig", "LstmModel", "lstm_train",
    "RepTreeModel", "reptree_train",
    "SvrModel", "svr_train",
    "save_model", "load_model", "ModelFormatError", "MODEL_FORMAT_VERSION",
]
