"""Trainable predictors with a uniform predict contract, plus model file I/O.

Model files are versioned JSON envelopes: a format version, the model kind,
the model body and the pipeline's extra metadata. The body holds only what
``predict`` and ``eval`` read: the fitted parameters, the SVR's kernel, C,
gamma and min-max ranges, and the training record (SMO iterations and KKT
gap, the LSTM's best epoch and loss curve). The fixed hyperparameters are the
learners' module constants and are not stored. A file of another format
version, or one that is not an envelope, whose body lacks or mistypes a
field, or that holds a non-finite number (``json`` reads ``1e999`` as
infinity), fails loudly with ModelFormatError.

Each learner lives in the submodule named after its kind (``svr``,
``reptree``, ``lstm``). The package imports none of them: ``load_model``
imports only the one whose file it reads. The min-max scaling that the SVR
and Relief share lives here, so Relief loads no learner.
"""

from __future__ import annotations

import importlib
import json
import math

import numpy as np

from ..corpus import read_text, write_whole

MODEL_FORMAT_VERSION = 4


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
    write_whole(path, json.dumps(payload, sort_keys=True))


def _non_finite(value) -> list | None:
    """The keys down to the first non-finite number in a parsed JSON value, or None if it holds none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else []
    if isinstance(value, list):
        try:
            if all(map(math.isfinite, value)):  # a row of numbers, checked in one call
                return None
        except (TypeError, OverflowError):  # nested lists, text, or an int too large for a float
            pass
        items = enumerate(value)
    elif isinstance(value, dict):
        items = value.items()
    else:
        return None
    for key, item in items:
        keys = _non_finite(item)
        if keys is not None:
            return [key, *keys]
    return None


def load_model(path) -> tuple[object, dict]:
    """Read a model envelope; returns (model, extra metadata)."""
    try:
        payload = json.loads(read_text(path, ModelFormatError))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: not a model envelope (a JSON object)")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"{path}: model format version {version!r}, expected {MODEL_FORMAT_VERSION}")
    kind = payload.get("kind")
    if kind not in _MODEL_CLASSES:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    body, extra = payload.get("model"), payload.get("extra", {})
    if not isinstance(body, dict) or not isinstance(extra, dict):
        raise ModelFormatError(f"{path}: 'model' and 'extra' must be JSON objects")
    for part, value in (("model", body), ("extra", extra)):
        keys = _non_finite(value)
        if keys is not None:
            where = part + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)
            raise ModelFormatError(f"{path}: damaged {kind} model (non-finite number at {where})")
    cls = getattr(importlib.import_module(f"{__name__}.{kind}"), _MODEL_CLASSES[kind])
    try:
        return cls.from_dict(body), extra
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelFormatError(f"{path}: damaged {kind} model ({type(exc).__name__}: {exc})") from None


__all__ = ["save_model", "load_model", "ModelFormatError", "MODEL_FORMAT_VERSION"]
