"""extract acoustic:M from the S, P and VQ stores when their manifests say they are current.

S, P and VQ each write ``manifest_acoustic_<V>.json``; M assembles its stores
from theirs only while the corpus, the code and the stores are the ones the
manifests record, and otherwise runs the full acoustic pass. Either way the
M stores must be the bytes that M extracted into an empty directory gives.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from phqreg import audio, pipeline
from phqreg.config import load_config
from phqreg.pipeline import run_extract
from phqreg.synth import SynthSpec, gen_synthetic

SPEC = SynthSpec(n_train=6, n_dev=2, modalities=("transcript", "audio"), turn_pairs=4)
GROUPS = ("S", "P", "VQ")


@pytest.fixture(scope="module")
def acoustic_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acoustic_corpus")
    gen_synthetic(SPEC, root, seed=3)
    return root


@pytest.fixture
def corpus(acoustic_corpus, tmp_path):
    """A private copy of the corpus that a test may change."""
    return Path(shutil.copytree(acoustic_corpus, tmp_path / "corpus"))


def extract(root, out, modality):
    return run_extract(load_config(None, {"root": str(root), "out_dir": str(out), "seed": 1, "modality": modality}))


def m_stores(out) -> dict:
    return {split: (Path(out) / f"features_acoustic_M_{split}.csv").read_bytes() for split in ("train", "dev")}


def count_passes(monkeypatch) -> list:
    """Record the session of every session_acoustic_vector call from now on."""
    calls, real = [], audio.session_acoustic_vector

    def counted(session, group):
        calls.append(session.id)
        return real(session, group)

    monkeypatch.setattr(audio, "session_acoustic_vector", counted)
    return calls


@pytest.mark.parametrize("modality", ["acoustic:M", "acoustic:M+FS"])
@pytest.mark.parametrize("drop_wav", [False, True], ids=["all-sessions", "one-wav-missing"])
def test_m_is_assembled_from_current_group_stores(corpus, tmp_path, monkeypatch, caplog, modality, drop_wav):
    if drop_wav:  # a skipped session: no group store lists it, and neither does M
        next((corpus / "sessions").glob("*/*_audio.wav")).unlink()
    out = tmp_path / "out"
    for group in GROUPS:
        written = extract(corpus, out, f"acoustic:{group}")
        assert written[-1] == out / f"manifest_acoustic_{group}.json"
    calls = count_passes(monkeypatch)
    with caplog.at_level("INFO", logger="phqreg.pipeline"):
        extract(corpus, out, modality)
    assert calls == []
    assert any("assembled from the current S, P and VQ stores" in r.getMessage() for r in caplog.records)
    monkeypatch.undo()
    extract(corpus, tmp_path / "fresh", "acoustic:M")
    assert m_stores(out) == m_stores(tmp_path / "fresh")


def _edit_store(root, out, monkeypatch):
    path = out / "features_acoustic_P_dev.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1.0)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_manifest(root, out, monkeypatch):
    (out / "manifest_acoustic_VQ.json").unlink()


def _resynthesise(root, out, monkeypatch):
    gen_synthetic(SPEC, root, seed=4)


def _change_code(root, out, monkeypatch):
    monkeypatch.setattr(pipeline, "_code_digest", lambda: "0" * 64)


def _add_dev_session(root, out, monkeypatch):
    """A copy of session 2001's files under a new id, listed in dev_ids.txt."""
    (root / "sessions" / "2999").mkdir()
    for name in ("transcript.tsv", "audio.wav"):
        shutil.copy(root / "sessions" / "2001" / f"2001_{name}", root / "sessions" / "2999" / f"2999_{name}")
    with (root / "dev_ids.txt").open("a", encoding="utf-8") as ids:
        ids.write("2999\n")


MISSES = {
    "store-edited": _edit_store,
    "manifest-missing": _drop_manifest,
    "corpus-resynthesised": _resynthesise,
    "session-added-to-dev": _add_dev_session,
    "code-changed": _change_code,
}


@pytest.mark.parametrize("case", list(MISSES))
def test_m_falls_back_to_the_pass_when_a_group_store_is_not_current(corpus, tmp_path, monkeypatch, caplog, case):
    out = tmp_path / "out"
    for group in GROUPS:
        extract(corpus, out, f"acoustic:{group}")
    MISSES[case](corpus, out, monkeypatch)
    calls = count_passes(monkeypatch)
    with caplog.at_level("INFO", logger="phqreg.pipeline"):
        extract(corpus, out, "acoustic:M")
    sessions = [sid for split in ("train", "dev") for sid in (corpus / f"{split}_ids.txt").read_text().split()]
    assert sorted(calls) == sorted(sessions)
    assert any("full acoustic pass" in r.getMessage() for r in caplog.records)
    extract(corpus, tmp_path / "fresh", "acoustic:M")
    assert m_stores(out) == m_stores(tmp_path / "fresh")


def test_manifests_are_byte_identical_for_copies_of_a_corpus_at_different_paths(acoustic_corpus, tmp_path):
    manifests = []
    for copy in (tmp_path / "a" / "corpus", tmp_path / "b" / "deeper" / "other"):
        shutil.copytree(acoustic_corpus, copy)
        out = copy.parent / "out"
        for group in GROUPS:
            extract(copy, out, f"acoustic:{group}")
        manifests.append({g: (out / f"manifest_acoustic_{g}.json").read_bytes() for g in GROUPS})
    assert manifests[0] == manifests[1]
    assert all(str(tmp_path).encode() not in text for text in manifests[0].values())


def test_manifest_records_the_stores_and_session_counts(acoustic_corpus, tmp_path):
    extract(acoustic_corpus, tmp_path, "acoustic:S")
    manifest = json.loads((tmp_path / "manifest_acoustic_S.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == ["code", "inputs", "sessions", "stores"]
    assert manifest["sessions"] == {"train": SPEC.n_train, "dev": SPEC.n_dev}
    for split in ("train", "dev"):
        store = (tmp_path / f"features_acoustic_S_{split}.csv").read_bytes()
        assert manifest["stores"][split] == hashlib.sha256(store).hexdigest()
