"""One acoustic pass per corpus: every acoustic store is a column slice of its record.

The first acoustic extract runs the full pass and records it:
``acoustic_pass_<split>.csv`` holds the M columns and ``manifest_acoustic.json``
the code and inputs digests, the session counts and each record store's
sha256. Every later acoustic extract reads the record back, without a pass,
while the corpus, the code and the record stores are the ones the manifest
records, and otherwise runs the pass again. Either way each store must be
the bytes that the same extract into an empty directory gives.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from phqreg import audio, pipeline
from phqreg.corpus import corpus_path
from phqreg.config import load_config
from phqreg.pipeline import run_extract
from phqreg.synth import SynthSpec, gen_synthetic

SPEC = SynthSpec(n_train=6, n_dev=2, modalities=("transcript", "audio"), turn_pairs=4)
GROUPS = ("S", "P", "VQ")
RECORD = ("acoustic_pass_train.csv", "acoustic_pass_dev.csv", "manifest_acoustic.json")


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


def stores(out, group) -> dict:
    return {split: (Path(out) / f"features_acoustic_{group}_{split}.csv").read_bytes() for split in ("train", "dev")}


def corpus_sessions(root) -> list:
    return sorted(sid for split in ("train", "dev") for sid in (Path(root) / f"{split}_ids.txt").read_text().split())


def count_passes(monkeypatch) -> list:
    """Record the session of every session_acoustic_vector call from now on."""
    calls, real = [], audio.session_acoustic_vector

    def counted(session):
        calls.append(session.id)
        return real(session)

    monkeypatch.setattr(audio, "session_acoustic_vector", counted)
    return calls


@pytest.mark.parametrize("modality", ["acoustic:M", "acoustic:M+FS"])
@pytest.mark.parametrize("drop_wav", [False, True], ids=["all-sessions", "one-wav-missing"])
def test_m_is_assembled_from_current_group_stores(corpus, tmp_path, monkeypatch, caplog, modality, drop_wav):
    """After the S, P and VQ extracts, M's stores are cut from the record that S left, without a pass."""
    if drop_wav:  # a skipped session: the record does not list it, and neither does M
        next((corpus / "sessions").glob("*/*_audio.wav")).unlink()
    out = tmp_path / "out"
    written = [[path.name for path in extract(corpus, out, f"acoustic:{group}")] for group in GROUPS]
    assert written[0] == ["features_acoustic_S_train.csv", "features_acoustic_S_dev.csv", *RECORD]
    assert written[1:] == [[f"features_acoustic_{g}_train.csv", f"features_acoustic_{g}_dev.csv"] for g in GROUPS[1:]]
    calls = count_passes(monkeypatch)
    with caplog.at_level("INFO", logger="phqreg.pipeline"):
        extract(corpus, out, modality)
    assert calls == []
    assert any("read back from its current record" in r.getMessage() for r in caplog.records)
    monkeypatch.undo()
    extract(corpus, tmp_path / "fresh", "acoustic:M")
    assert stores(out, "M") == stores(tmp_path / "fresh", "M")


def _edit_store(root, out, monkeypatch):
    path = out / "acoustic_pass_dev.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1.0)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_manifest(root, out, monkeypatch):
    (out / "manifest_acoustic.json").unlink()


def _stores_not_an_object(root, out, monkeypatch):
    path = out / "manifest_acoustic.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text(encoding="utf-8")), stores=["x"])), encoding="utf-8")


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
    "stores-not-an-object": _stores_not_an_object,
    "corpus-resynthesised": _resynthesise,
    "session-added-to-dev": _add_dev_session,
    "code-changed": _change_code,
}


@pytest.mark.parametrize("case", list(MISSES))
def test_m_falls_back_to_the_pass_when_a_group_store_is_not_current(corpus, tmp_path, monkeypatch, caplog, case):
    """A record that no longer matches its store, corpus or code forces a full pass, which records afresh."""
    out = tmp_path / "out"
    for group in GROUPS:
        extract(corpus, out, f"acoustic:{group}")
    MISSES[case](corpus, out, monkeypatch)
    calls = count_passes(monkeypatch)
    with caplog.at_level("INFO", logger="phqreg.pipeline"):
        written = extract(corpus, out, "acoustic:M")
    assert sorted(calls) == corpus_sessions(corpus)
    assert any("full acoustic pass" in r.getMessage() for r in caplog.records)
    assert [path.name for path in written[2:]] == list(RECORD)
    extract(corpus, tmp_path / "fresh", "acoustic:M")
    assert stores(out, "M") == stores(tmp_path / "fresh", "M")
    assert all((out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes() for name in RECORD)


def test_the_recipe_runs_one_pass_per_session(acoustic_corpus, tmp_path, monkeypatch):
    calls = count_passes(monkeypatch)
    for group in (*GROUPS, "M"):
        extract(acoustic_corpus, tmp_path, f"acoustic:{group}")
    assert sorted(calls) == corpus_sessions(acoustic_corpus)


def test_a_group_cut_from_the_record_m_wrote_equals_a_fresh_extract(acoustic_corpus, tmp_path, monkeypatch):
    extract(acoustic_corpus, tmp_path / "out", "acoustic:M")
    calls = count_passes(monkeypatch)
    extract(acoustic_corpus, tmp_path / "out", "acoustic:S")
    assert calls == []
    monkeypatch.undo()
    extract(acoustic_corpus, tmp_path / "fresh", "acoustic:S")
    assert stores(tmp_path / "out", "S") == stores(tmp_path / "fresh", "S")


def test_manifests_are_byte_identical_for_copies_of_a_corpus_at_different_paths(acoustic_corpus, tmp_path):
    records = []
    for copy in (tmp_path / "a" / "corpus", tmp_path / "b" / "deeper" / "other"):
        shutil.copytree(acoustic_corpus, copy)
        out = copy.parent / "out"
        for group in GROUPS:
            extract(copy, out, f"acoustic:{group}")
        records.append({name: (out / name).read_bytes() for name in RECORD})
    assert records[0] == records[1]
    assert all(str(tmp_path).encode() not in text for text in records[0].values())


def test_manifest_records_the_stores_and_session_counts(acoustic_corpus, tmp_path):
    extract(acoustic_corpus, tmp_path, "acoustic:S")
    manifest = json.loads((tmp_path / "manifest_acoustic.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == ["code", "inputs", "sessions", "stores"]
    assert manifest["sessions"] == {"train": SPEC.n_train, "dev": SPEC.n_dev}
    for split in ("train", "dev"):
        store = (tmp_path / f"acoustic_pass_{split}.csv").read_bytes()
        assert manifest["stores"][split] == hashlib.sha256(store).hexdigest()
        assert store.split(b"\n", 1)[0].decode() == ",".join(["session_id", *audio.GROUP_NAMES["M"]])
    # the record is no feature store: S wrote exactly its own two
    assert sorted(p.name for p in tmp_path.glob("features_*")) == ["features_acoustic_S_dev.csv", "features_acoustic_S_train.csv"]


def test_inputs_digest_hashes_what_whole_file_reads_would(corpus, monkeypatch):
    """The inputs digest reads each file in chunks, and its bytes are those of hashing the files whole."""
    next((corpus / "sessions").glob("*/*_audio.wav")).unlink()  # a missing file hashes as "-"
    index = pipeline.scan_corpus(corpus)
    want = hashlib.sha256()
    for split in ("train", "dev"):
        want.update(f"{split} {len(index.ids[split])}\n".encode())
        for sid in index.ids[split]:
            want.update(f"{sid}\n".encode())
            for kind in ("transcript", "audio"):
                path = corpus_path(corpus, kind, sid)
                if path.is_file():
                    data = path.read_bytes()
                    want.update(b"+%d\n" % len(data) + data)
                else:
                    want.update(b"-\n")
    assert pipeline._inputs_digest(index) == want.hexdigest()
    monkeypatch.setattr(pipeline, "DIGEST_CHUNK_BYTES", 1000)  # several chunks per file
    assert pipeline._inputs_digest(index) == want.hexdigest()
