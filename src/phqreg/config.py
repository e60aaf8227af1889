"""Pipeline configuration: a flat INI file of key=value sections.

``phqreg show-config`` prints every default. The seed is mandatory for any
command that touches data. The modality alone picks the learner (see
pipeline), so no key names one. The paper's fixed hyperparameters are not
keys here either: they are module constants of the code that reads them.
Relief's ``[relief] threshold`` and ``k`` are the one place a tuned point
goes: ``tune-relief`` prints the pair to copy there.

Every verb loads this module, so of phqreg it imports only corpus, which the
package loads anyway, for its text reader. The one definition it shares with
a family is ``SynthSpec``, which synth imports.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .corpus import read_text

MODALITIES = (
    "acoustic:S", "acoustic:P", "acoustic:VQ", "acoustic:M", "acoustic:M+FS",
    "behavioral",
    "text:BOOL", "text:TFIDF", "text:WE",
    "visual",
)


class ConfigError(ValueError):
    pass


@dataclass
class SynthSpec:
    """What ``synth.gen_synthetic`` writes: split sizes, depressed shares, modalities and rates."""

    n_train: int = 107
    n_dev: int = 35
    depressed_fraction_train: float = 0.28
    depressed_fraction_dev: float = 0.34
    modalities: tuple[str, ...] = ("transcript", "audio", "landmarks")
    audio_rate: int = 8000
    landmark_fps: float = 2.0
    turn_pairs: int = 10
    fail_prob: float = 0.02

    def __post_init__(self):
        known = {"transcript", "audio", "landmarks"}
        mods = tuple(self.modalities)
        if not mods or not set(mods) <= known:
            raise ValueError(f"modalities must be a non-empty subset of {sorted(known)}, got {mods}")
        if self.n_train < 1 or self.n_dev < 0:
            raise ValueError("need at least one training session and a non-negative dev count")
        if not (0.0 <= self.depressed_fraction_train <= 1.0 and 0.0 <= self.depressed_fraction_dev <= 1.0):
            raise ValueError("depressed fractions must lie in [0, 1]")
        if self.turn_pairs < 4:
            raise ValueError("need at least 4 turn pairs to place the scripted queries")
        if not (self.audio_rate > 0 and self.landmark_fps > 0):
            raise ValueError(f"audio_rate ({self.audio_rate}) and landmark_fps ({self.landmark_fps}) must be positive")
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ValueError(f"fail_prob ({self.fail_prob}) must lie in [0, 1]")
        object.__setattr__(self, "modalities", mods)


@dataclass
class PipelineConfig:
    # [corpus]
    root: str = "corpus"
    out_dir: str = "out"
    # [run]
    modality: str = "behavioral"
    seed: int | None = None
    # [relief] the paper's operating point
    relief_threshold: float = 0.02
    relief_k: int = 20
    # [text]
    text_embeddings: str = ""
    # [synth]
    synth_n_train: int = SynthSpec.n_train
    synth_n_dev: int = SynthSpec.n_dev
    synth_depressed_fraction_train: float = SynthSpec.depressed_fraction_train
    synth_depressed_fraction_dev: float = SynthSpec.depressed_fraction_dev
    synth_modalities: str = " ".join(SynthSpec.modalities)
    synth_audio_rate: int = SynthSpec.audio_rate
    synth_landmark_fps: float = SynthSpec.landmark_fps
    synth_turn_pairs: int = SynthSpec.turn_pairs
    synth_fail_prob: float = SynthSpec.fail_prob

    def family(self) -> str:
        return self.modality.split(":")[0]

    def variant(self) -> str:
        parts = self.modality.split(":")
        return parts[1] if len(parts) > 1 else ""

    def uses_relief(self) -> bool:
        return self.modality == "acoustic:M+FS"

    def validate(self) -> "PipelineConfig":
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}; expected one of {MODALITIES}")
        if self.seed is None:
            raise ConfigError("seed is mandatory: set [run] seed or pass --seed")
        return self


# (section, ini key) per dataclass field: [corpus] and [run] keys are the
# field names, every other field is named <section>_<key>
_UNPREFIXED = {"root": "corpus", "out_dir": "corpus", "modality": "run", "seed": "run"}
_LAYOUT = {
    f.name: (_UNPREFIXED[f.name], f.name) if f.name in _UNPREFIXED else tuple(f.name.split("_", 1))
    for f in fields(PipelineConfig)
}

_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _convert(name: str, raw: str):
    t = _TYPES[name]
    if t in ("int", "int | None"):
        return int(raw)
    if t == "float":
        return float(raw)
    return raw


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a config from an optional INI file plus CLI overrides."""
    cfg = PipelineConfig()
    if path is not None:
        # values are literal: a "%" in a path is kept as written
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
        text = read_text(path, ConfigError)
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        known = set(_LAYOUT.values())
        for section in cp.sections():
            for key in cp[section]:
                if (section, key) not in known:
                    raise ConfigError(f"{path}: unknown option [{section}] {key}")
        for field_name, (section, key) in _LAYOUT.items():
            raw = cp.get(section, key, fallback="").strip()
            if raw:
                try:
                    setattr(cfg, field_name, _convert(field_name, raw))
                except ValueError as exc:
                    raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
    for name, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def config_text(cfg: PipelineConfig) -> str:
    """Render the effective config as INI text (deterministic order)."""
    sections: dict[str, list[str]] = {}
    for field_name, (section, key) in _LAYOUT.items():
        value = getattr(cfg, field_name)
        if value is None:
            value = ""
        sections.setdefault(section, []).append(f"{key} = {value}")
    out = []
    for section, lines in sections.items():
        out += [f"[{section}]", *lines, ""]
    return "\n".join(out)
