"""The benchmark's span tracer still finds what it reads in the package.

``perfbench/tracer.py`` runs a CLI verb with every public phqreg function
wrapped, and takes its counters from argument names, return values and
fields of the package (a session's id, the kept windows, the PCA rank, the
SMO iterations, the LSTM's best epoch). A simplification of the package that
drops one of them breaks the traced benchmark, not the package's own tests,
so each check here runs the tracer as the benchmark does, in a fresh
interpreter, on the shared test corpus.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phqreg
from phqreg.models.lstm import MAX_EPOCHS

SRC = Path(phqreg.__file__).resolve().parent.parent
TRACER = SRC.parent / "perfbench" / "tracer.py"

# verb, modality -> span name -> the counters each of its spans must carry
# (a loader's span is missing when pipeline calls a copy bound before the tracer rebinds corpus)
EXPECTED = {
    ("extract", "acoustic:S"): {
        "audio:session_acoustic_vector": {"session", "rss_kb_before", "rss_kb_after"},
        "corpus:load_transcript": {"bytes"},
        "corpus:load_wav": {"bytes"},
    },
    ("train", "acoustic:S"): {"models.svr:svr_train": {"smo_iters"}},
    ("extract", "behavioral"): {"turns:behavioral_vector": set(), "corpus:load_transcript": {"bytes"}},
    ("train", "behavioral"): {"models.reptree:reptree_train": set()},
    ("extract", "visual"): {
        "face:window_sequence": {"kept", "candidates"},
        "face:fit_pca": {"q"},
        "corpus:load_landmarks": {"bytes"},
    },
    ("train", "visual"): {"models.lstm:lstm_train": {"best_epoch", "windows"}},
}


@pytest.fixture(scope="module")
def traced(full_corpus, tmp_path_factory):
    """Spans of each verb in EXPECTED, run in order through the tracer on one output directory."""
    work = tmp_path_factory.mktemp("traced")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    spans = {}
    for i, (verb, modality) in enumerate(EXPECTED):
        spans_path = work / f"spans{i}.jsonl"
        cmd = [
            sys.executable, str(TRACER), str(spans_path), f"t{i}",
            verb, "--corpus", str(full_corpus), "--out", str(work / "out"),
            "--modality", modality, "--seed", "1",
        ]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = spans_path.read_text(encoding="utf-8").splitlines()
        spans[verb, modality] = [json.loads(line) for line in lines]
    return spans


@pytest.mark.parametrize("verb, modality", list(EXPECTED), ids=[f"{v}-{m}" for v, m in EXPECTED])
def test_tracer_spans_carry_their_counters(traced, verb, modality):
    for name, counters in EXPECTED[verb, modality].items():
        hits = [span for span in traced[verb, modality] if span["name"] == name]
        assert hits, f"no {name} span"
        for span in hits:
            assert counters <= set(span), (name, span)


def test_tracer_counters_match_the_run(traced, full_corpus):
    sessions = {span["session"] for span in traced["extract", "acoustic:S"] if "session" in span}
    listed = {sid for split in ("train", "dev") for sid in (full_corpus / f"{split}_ids.txt").read_text().split()}
    assert sessions == listed
    (lstm,) = [span for span in traced["train", "visual"] if span["name"] == "models.lstm:lstm_train"]
    assert 0 <= lstm["best_epoch"] <= MAX_EPOCHS and lstm["windows"] > 0
    windows = [span for span in traced["extract", "visual"] if span["name"] == "face:window_sequence"]
    assert sum(span["kept"] for span in windows) > 0
    assert all(span["kept"] <= span["candidates"] for span in windows)
    (svr,) = [span for span in traced["train", "acoustic:S"] if span["name"] == "models.svr:svr_train"]
    assert svr["smo_iters"] > 0
