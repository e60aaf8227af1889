"""Start-up: a CLI verb loads only the code of the modality it runs.

Every verb is a process of its own, so what it imports is part of its cost.
Each check runs in a fresh interpreter and reads the ``phqreg.*`` entries of
``sys.modules`` (numpy's own submodules vary with its version).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import phqreg
from phqreg.cli import main
from phqreg.synth import SynthSpec, gen_synthetic

SRC = Path(phqreg.__file__).resolve().parent.parent
FAMILIES = {f"phqreg.{name}" for name in ("audio", "face", "textfeats", "turns", "relief", "synth")}
LEARNERS = {"phqreg.models.svr", "phqreg.models.reptree", "phqreg.models.lstm"}


def loaded_after(code: str) -> set[str]:
    """The phqreg modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('phqreg'))))"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup_corpus")
    gen_synthetic(SynthSpec(n_train=6, n_dev=2, modalities=("transcript", "audio"), turn_pairs=4), root, seed=1)
    return root


def run_verb(verb: str, modality: str, root, out) -> set[str]:
    args = [verb, "--corpus", str(root), "--out", str(out), "--modality", modality, "--seed", "1"]
    return loaded_after(f"from phqreg.cli import main\nassert main({args!r}) == 0")


def test_cli_import_loads_no_family_learner_or_synth():
    loaded = loaded_after("import phqreg.cli")
    assert loaded & ({"phqreg.pipeline"} | FAMILIES | LEARNERS) == set()


def test_show_config_loads_no_pipeline():
    loaded = loaded_after("from phqreg.cli import main\nassert main(['show-config']) == 0")
    assert loaded & ({"phqreg.pipeline"} | FAMILIES | LEARNERS) == set()


def test_extract_behavioral_loads_no_audio_face_or_lstm(tiny_corpus, tmp_path):
    loaded = run_verb("extract", "behavioral", tiny_corpus, tmp_path)
    assert "phqreg.turns" in loaded
    assert loaded & {"phqreg.audio", "phqreg.face", "phqreg.models.lstm"} == set()


def test_extract_acoustic_loads_no_face_text_or_learner(tiny_corpus, tmp_path):
    loaded = run_verb("extract", "acoustic:S", tiny_corpus, tmp_path)
    assert "phqreg.audio" in loaded
    assert loaded & ({"phqreg.face", "phqreg.textfeats"} | LEARNERS) == set()


def test_eval_loads_only_the_learner_of_its_model_file(tiny_corpus, tmp_path):
    for verb in ("extract", "train"):
        assert main([verb, "--corpus", str(tiny_corpus), "--out", str(tmp_path),
                     "--modality", "behavioral", "--seed", "1"]) == 0
    loaded = run_verb("eval", "behavioral", tiny_corpus, tmp_path)
    assert loaded & (FAMILIES | LEARNERS) == {"phqreg.models.reptree"}


def test_cv_behavioral_loads_relief_but_no_svr(small_corpus, tmp_path):
    assert main(["extract", "--corpus", str(small_corpus), "--out", str(tmp_path),
                 "--modality", "behavioral", "--seed", "1"]) == 0
    loaded = run_verb("cv", "behavioral", small_corpus, tmp_path)
    assert loaded & (FAMILIES | LEARNERS) == {"phqreg.relief", "phqreg.models.reptree"}


def visual_run(full_corpus, tmp_path):
    """Run the visual extract; returns the arguments that follow a verb.

    A verb run in a fresh interpreter trains for the paper's lstm.MAX_EPOCHS.
    """
    args = ["--corpus", str(full_corpus), "--out", str(tmp_path), "--modality", "visual", "--seed", "1"]
    assert main(["extract", *args]) == 0
    return args


def test_eval_and_cv_visual_load_the_lstm_but_no_face(full_corpus, tmp_path, monkeypatch):
    import phqreg.models.lstm

    args = visual_run(full_corpus, tmp_path)
    monkeypatch.setattr(phqreg.models.lstm, "MAX_EPOCHS", 1)  # this process's train; eval only reads the model
    assert main(["train", *args]) == 0
    for verb, learners in (("eval", {"phqreg.models.lstm"}), ("cv", {"phqreg.relief", "phqreg.models.lstm"})):
        loaded = loaded_after(f"from phqreg.cli import main\nassert main({[verb, *args]!r}) == 0")
        assert loaded & (FAMILIES | LEARNERS) == learners, verb


def test_train_visual_loads_the_lstm_but_no_face(full_corpus, tmp_path):
    args = visual_run(full_corpus, tmp_path)
    loaded = loaded_after(f"from phqreg.cli import main\nassert main({['train', *args]!r}) == 0")
    assert loaded & (FAMILIES | LEARNERS) == {"phqreg.models.lstm"}
