"""Pipeline configuration: a flat INI file of key=value sections.

``phqreg show-config`` prints every default. The seed is mandatory for any
command that touches data; modality/model pairings follow the toolkit
defaults (acoustic -> svr-rbf, behavioral -> reptree, text -> svr-linear,
visual -> lstm) and mismatched overrides only warn.
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, fields
from pathlib import Path

logger = logging.getLogger(__name__)

MODALITIES = (
    "acoustic:S", "acoustic:P", "acoustic:VQ", "acoustic:M", "acoustic:M+FS",
    "behavioral",
    "text:BOOL", "text:TFIDF", "text:WE",
    "visual",
)
MODELS = ("svr", "reptree", "lstm", "mean")

# default model per modality family
PAIRINGS = {"acoustic": "svr", "behavioral": "reptree", "text": "svr", "visual": "lstm"}


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    # [corpus]
    root: str = "corpus"
    out_dir: str = "out"
    # [run]
    modality: str = "behavioral"
    model: str = ""  # empty -> modality default
    seed: int | None = None
    # [svr]
    svr_kernel: str = ""  # empty -> rbf for acoustic, linear for text
    svr_c: float = 1.0
    svr_gamma: float = 0.01
    svr_epsilon: float = 1e-3
    svr_tol: float = 1e-3
    # [reptree]
    reptree_min_leaf: int = 2
    reptree_prune_fraction: float = 1.0 / 3.0
    # [lstm]
    lstm_hidden: int = 16
    lstm_dropout: float = 0.5
    lstm_lr: float = 1e-3
    lstm_batch_size: int = 32
    lstm_max_epochs: int = 100
    lstm_clip_norm: float = 5.0
    lstm_val_fraction: float = 0.2
    # [visual]
    visual_window: int = 60
    visual_overlap: int = 30
    visual_variance_keep: float = 0.995
    # [relief]
    relief_threshold: float = 0.02
    relief_k: int = 20
    relief_n_max: int = 20
    relief_tune: bool = False
    # [text]
    text_embeddings: str = ""
    # [synth]
    synth_n_train: int = 107
    synth_n_dev: int = 35
    synth_depressed_fraction_train: float = 0.28
    synth_depressed_fraction_dev: float = 0.34
    synth_modalities: str = "transcript audio landmarks"
    synth_audio_rate: int = 8000
    synth_landmark_fps: float = 2.0
    synth_turn_pairs: int = 10
    synth_fail_prob: float = 0.02

    def family(self) -> str:
        return self.modality.split(":")[0]

    def variant(self) -> str:
        parts = self.modality.split(":")
        return parts[1] if len(parts) > 1 else ""

    def uses_relief(self) -> bool:
        return self.modality == "acoustic:M+FS"

    def effective_model(self) -> str:
        default = PAIRINGS[self.family()]
        if not self.model:
            return default
        if self.model != default and self.model != "mean":
            logger.warning(
                "modality %s conventionally pairs with model %s; using %s as configured",
                self.modality, default, self.model,
            )
        return self.model

    def effective_svr_kernel(self) -> str:
        if self.svr_kernel:
            return self.svr_kernel
        return "linear" if self.family() == "text" else "rbf"

    def validate(self) -> "PipelineConfig":
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}; expected one of {MODALITIES}")
        if self.model and self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.seed is None:
            raise ConfigError("seed is mandatory: set [run] seed or pass --seed")
        return self


# (section, ini key) per dataclass field
_LAYOUT = {
    "root": ("corpus", "root"), "out_dir": ("corpus", "out_dir"),
    "modality": ("run", "modality"), "model": ("run", "model"), "seed": ("run", "seed"),
    "svr_kernel": ("svr", "kernel"), "svr_c": ("svr", "c"), "svr_gamma": ("svr", "gamma"),
    "svr_epsilon": ("svr", "epsilon"), "svr_tol": ("svr", "tol"),
    "reptree_min_leaf": ("reptree", "min_leaf"),
    "reptree_prune_fraction": ("reptree", "prune_fraction"),
    "lstm_hidden": ("lstm", "hidden"), "lstm_dropout": ("lstm", "dropout"),
    "lstm_lr": ("lstm", "lr"), "lstm_batch_size": ("lstm", "batch_size"),
    "lstm_max_epochs": ("lstm", "max_epochs"), "lstm_clip_norm": ("lstm", "clip_norm"),
    "lstm_val_fraction": ("lstm", "val_fraction"),
    "visual_window": ("visual", "window"), "visual_overlap": ("visual", "overlap"),
    "visual_variance_keep": ("visual", "variance_keep"),
    "relief_threshold": ("relief", "threshold"), "relief_k": ("relief", "k"),
    "relief_n_max": ("relief", "n_max"), "relief_tune": ("relief", "tune"),
    "text_embeddings": ("text", "embeddings"),
    "synth_n_train": ("synth", "n_train"), "synth_n_dev": ("synth", "n_dev"),
    "synth_depressed_fraction_train": ("synth", "depressed_fraction_train"),
    "synth_depressed_fraction_dev": ("synth", "depressed_fraction_dev"),
    "synth_modalities": ("synth", "modalities"),
    "synth_audio_rate": ("synth", "audio_rate"),
    "synth_landmark_fps": ("synth", "landmark_fps"),
    "synth_turn_pairs": ("synth", "turn_pairs"),
    "synth_fail_prob": ("synth", "fail_prob"),
}

_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _convert(name: str, raw: str):
    t = _TYPES[name]
    raw = raw.strip()
    if t in ("int", "int | None"):
        return int(raw)
    if t == "float":
        return float(raw)
    if t == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {raw!r} for {name}")
    return raw


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a config from an optional INI file plus CLI overrides."""
    cfg = PipelineConfig()
    if path is not None:
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        text = Path(path).read_text(encoding="utf-8")
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for field_name, (section, key) in _LAYOUT.items():
            if cp.has_option(section, key):
                raw = cp.get(section, key)
                if raw.strip():
                    setattr(cfg, field_name, _convert(field_name, raw))
        known = {(s.lower(), k.lower()) for s, k in _LAYOUT.values()}
        for section in cp.sections():
            for key in cp[section]:
                if (section.lower(), key.lower()) not in known:
                    raise ConfigError(f"{path}: unknown option [{section}] {key}")
    for name, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, name, value)
    return cfg


# fields holding locations on the machine that runs the pipeline
MACHINE_PATHS = ("root", "out_dir", "text_embeddings")


def config_text(cfg: PipelineConfig, omit: tuple[str, ...] = ()) -> str:
    """Render the effective config as INI text (deterministic order).

    Fields named in ``omit`` are left out, and so is a section they empty.
    """
    sections: dict[str, list[str]] = {}
    for field_name, (section, key) in _LAYOUT.items():
        if field_name in omit:
            continue
        value = getattr(cfg, field_name)
        if value is None:
            value = ""
        sections.setdefault(section, []).append(f"{key} = {value}")
    out = []
    for section in ("corpus", "run", "svr", "reptree", "lstm", "visual", "relief", "text", "synth"):
        if section not in sections:
            continue
        out.append(f"[{section}]")
        out.extend(sections[section])
        out.append("")
    return "\n".join(out)
