"""Orchestration: corpus scanning, extraction jobs, training, evaluation, CV.

All artifacts live under the configured output directory and are named by
artifact_path alone:

    features_<ftag>_<split>.csv        feature store (tabular modalities)
    acoustic_pass_<split>.csv          the corpus's one acoustic pass: M's columns
    manifest_acoustic.json             what that pass record was made from
    visual_<split>_windows.npy/.json   window batches + sidecar (W, q, session_ids, sessions)
    visual_pca.json                    PCA model (mean + components, versioned; no verb reads it)
    model_<tag>.json                   trained model envelope
    predictions_<tag>_<split>.csv      session_id,y_true,y_pred
    report_<tag>.csv                   run report, key,value (recomputable from predictions)
    relief_tuning_<tag>.csv            Relief (threshold, k) grid
    cv_predictions_<tag>.csv           per-fold CV predictions
    cv_report_<tag>.txt                CV report

<tag> is the modality with ":" replaced by "_" (acoustic:M+FS ->
acoustic_M+FS), so M+FS never overwrites the plain M model, reports or
predictions; <ftag> drops "+FS", so M+FS reads the M feature store.

An acoustic extract (S, P, VQ, M or M+FS) writes its group's columns of the
corpus's one full acoustic pass. The first one into an output directory
runs the pass and records it: the M columns of every session in
acoustic_pass_<split>.csv, and a manifest holding a digest of what the pass
read (the split id lists and each session's transcript and WAV bytes), a
digest of the phqreg sources and the numpy version, the sha256 of each
record store and the per-split session counts. It holds no paths and no
times, so equal inputs give equal bytes. A later acoustic extract reads the
record back, without a pass, when the manifest's digests are the current
corpus and code and both record stores hash to what it records; otherwise
it runs the pass and records it again. The record stores are not named
features_*, so an acoustic extract leaves exactly its own two feature
stores. One INFO line says which path was taken.

The modality alone picks the learner, as in the paper: REPTree for
behavioral features, an SVR for acoustic (RBF) and text (linear) features,
and an LSTM for visual windows. Every verb reaches the learners through one
pair of functions. fit_predictor(cfg, sessions) runs Relief selection and
the tabular learner, or the LSTM with its seeded validation hold-out, and
predict_sessions(model, extra, sessions) scores each session by the mean
of its feature rows' predictions (a feature store's one row, or a window
batch's windows). train fits and saves, eval predicts each split, and cv
fits and predicts once per fold on index subsets of the training split, so
a fold scores the procedure that train ships. tune-relief hands relief.tune_relief the same
tabular fit step and prints the chosen (threshold, k); train applies a
tuned point only through [relief] threshold and k.

Outputs are deterministic for a fixed config + seed on one numpy/BLAS build
and BLAS thread setting (across thread settings they agree within 1e-9);
wall-clock timing goes to the log only, never into report files. Every
artifact is written through corpus.whole_file, so it appears whole or not
at all.

Each verb is a short process, so this module imports at module level only
what every verb needs (corpus, config, metrics and the model file I/O). A
family's code is imported where the family is dispatched: audio, turns,
textfeats and face in their ``_extract_*`` function, the LSTM in the visual
branch of fit_predictor, the SVR and REPTree in _tabular_fitter, and relief
in the Relief and fold paths.

A model's extra holds what eval reads back (train_mean, then feature_names
and relief for a tabular model, window and q for the LSTM) and what the run
was: its modality, seed and, for the LSTM, the validation sessions.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import corpus
from .corpus import SPLITS
from .config import PipelineConfig
from .metrics import MetricError, evs as evs_fn, mae as mae_fn, rmse as rmse_fn
from .models import ModelFormatError, load_model, save_model

logger = logging.getLogger(__name__)

PCA_FORMAT_VERSION = 1
# share of the window-bearing training sessions held out to early-stop the LSTM
LSTM_VAL_FRACTION = 0.2
# bytes per read while the inputs digest hashes a transcript or WAV file
DIGEST_CHUNK_BYTES = 1 << 20
# what extract fits on the whole training split, held-out CV folds included, by modality
WHOLE_SPLIT_FITS = {
    "visual": "the PCA was",
    "text:BOOL": "the vocabulary was",
    "text:TFIDF": "the vocabulary and IDF were",
}
# training frames per geometry block handed to face.fit_pca: no array is session length x 2482. The peak
# is the PCA matrix and its covariance, whatever the block size; of 128, 512 and 2048 frames, 128 ran fastest
GEOMETRY_BLOCK_FRAMES = 128


class PipelineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# corpus scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusIndex:
    root: Path
    ids: dict  # split -> tuple of session ids (sorted)
    labels: dict | None  # sid -> int; None when the corpus has no labels file, which extract does not read


def scan_corpus(root) -> CorpusIndex:
    root = Path(root)
    if not root.is_dir():
        raise PipelineError(f"corpus root {root} does not exist")
    ids = {}
    for split in SPLITS:
        path = corpus.corpus_path(root, "ids", split)
        if not path.is_file():
            raise PipelineError(f"missing split file {path}")
        ids[split] = tuple(sorted(x.strip() for x in corpus.read_text(path, PipelineError).splitlines() if x.strip()))
    # a session in both splits would be trained on and then scored as dev
    repeated = sorted(sid for sid, n in Counter(sid for split in SPLITS for sid in ids[split]).items() if n > 1)
    if repeated:
        files = " and ".join(str(corpus.corpus_path(root, "ids", split)) for split in SPLITS)
        raise PipelineError(f"session ids listed more than once across the split files {files}: {', '.join(repeated)}")
    labels_path = corpus.corpus_path(root, "labels")
    labels = corpus.load_labels(labels_path) if labels_path.is_file() else None
    return CorpusIndex(root, ids, labels)


# ---------------------------------------------------------------------------
# feature store CSV
# ---------------------------------------------------------------------------


ARTIFACT_NAMES = {
    "features": "features_{ftag}_{split}.csv",
    "acoustic_pass": "acoustic_pass_{split}.csv",
    "manifest": "manifest_{ftag}.json",
    "windows": "visual_{split}_windows.npy",
    "windows_meta": "visual_{split}_windows.json",
    "pca": "visual_pca.json",
    "model": "model_{tag}.json",
    "predictions": "predictions_{tag}_{split}.csv",
    "report": "report_{tag}.csv",
    "relief_tuning": "relief_tuning_{tag}.csv",
    "cv_predictions": "cv_predictions_{tag}.csv",
    "cv_report": "cv_report_{tag}.txt",
}


def run_tag(modality: str) -> str:
    """Tag of a modality's models, predictions and reports; keeps +FS."""
    return modality.replace(":", "_")


def feature_tag(modality: str) -> str:
    """Feature-store tag; M+FS shares extracted features with M."""
    return run_tag(modality).replace("+FS", "")


def artifact_path(out_dir, kind: str, modality: str, split: str = "") -> Path:
    """Path of one artifact of ``modality``; see the module docstring for the names."""
    name = ARTIFACT_NAMES[kind].format(tag=run_tag(modality), ftag=feature_tag(modality), split=split)
    return Path(out_dir) / name


def write_feature_csv(path, names, rows: dict) -> None:
    # a cell is quoted only when it holds a comma or a quote (a transcript
    # token such as "yes," names a text feature), so other stores are plain
    with corpus.whole_file(path) as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["session_id", *names])
        for sid in sorted(rows):
            out.writerow([sid, *(repr(float(v)) for v in rows[sid])])


def read_feature_csv(path) -> tuple[tuple[str, ...], dict]:
    path = Path(path)
    if not path.is_file():
        raise PipelineError(f"missing feature store {path}; run `extract` first")
    records = csv.reader(corpus.read_text(path, PipelineError).splitlines())
    header = next(records, [])
    if header[:1] != ["session_id"]:
        raise PipelineError(f"{path}: not a feature store CSV (no session_id header line)")
    names = tuple(header[1:])
    rows = {}
    for lineno, cells in enumerate(records, start=2):
        if len(cells) <= 1 and not "".join(cells).strip():  # a blank line
            continue
        if len(cells) != len(header):
            raise PipelineError(f"{path}:{lineno}: {len(cells)} cells, but the header names {len(header)}")
        if cells[0] in rows:
            raise PipelineError(f"{path}:{lineno}: session {cells[0]} listed twice")
        try:
            values = np.array([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise PipelineError(f"{path}:{lineno}: {exc}") from None
        if not np.isfinite(values).all():
            col = int(np.argmin(np.isfinite(values)))
            raise PipelineError(f"{path}:{lineno}: non-finite {names[col]} {cells[col + 1]!r}")
        rows[cells[0]] = values
    return names, rows


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _session_paths(index, split: str, kinds: tuple[str, ...]):
    """Yield (sid, paths) for each session of ``split`` that has its corpus files of ``kinds``, in id order.

    ``paths`` are those files, in the order of ``kinds``. A session that
    lacks one of them is logged and left out.
    """
    for sid in index.ids[split]:
        paths = [corpus.corpus_path(index.root, kind, sid) for kind in kinds]
        missing = [kind for kind, path in zip(kinds, paths) if not path.is_file()]
        if missing:
            logger.warning("skipping %s: missing %s", sid, ", ".join(missing))
            continue
        yield sid, paths


def _session_rows(index, kinds: tuple[str, ...], describe) -> dict:
    """{split: {sid: describe(sid, *files)}} in id order, without the skipped sessions.

    ``files`` are the session's corpus files of ``kinds``, in that order,
    each read by its corpus loader. A session that lacks one of them
    (_session_paths), or whose ``describe`` raises
    ``corpus.EmptyInputError``, is logged and left out; a file that does not
    parse, and any other error, fails the run. What a session loaded lives
    only in its own ``describe`` call, so it is freed before the next one is
    loaded; its audio is a reader (corpus.load_wav), so no session's samples
    are held whole.
    """
    # looked up per call, not at import, so a wrapper bound on corpus later (perfbench/tracer.py) is the one called
    load = {"transcript": corpus.load_transcript, "audio": corpus.load_wav, "landmarks": corpus.load_landmarks}
    per_split = {}
    for split in SPLITS:
        per_split[split] = rows = {}
        for sid, paths in _session_paths(index, split, kinds):
            try:
                rows[sid] = describe(sid, *(load[kind](path) for kind, path in zip(kinds, paths)))
            except corpus.EmptyInputError as exc:
                logger.warning("skipping %s: %s", sid, exc)
    return per_split


def _sha256(data: bytes = b""):
    """A sha256 hasher fed ``data``. hashlib loads OpenSSL (about 3.6 MB of RSS), so only the acoustic verbs import it."""
    import hashlib

    return hashlib.sha256(data)


def _inputs_digest(index) -> str:
    """sha256 over what acoustic extraction reads: the split id lists and each session's transcript and WAV bytes."""
    digest = _sha256()
    for split in SPLITS:
        digest.update(f"{split} {len(index.ids[split])}\n".encode())
        for sid in index.ids[split]:
            digest.update(f"{sid}\n".encode())
            for kind in ("transcript", "audio"):
                path = corpus.corpus_path(index.root, kind, sid)
                if path.is_file():
                    with path.open("rb") as f:
                        digest.update(b"+%d\n" % os.fstat(f.fileno()).st_size)
                        for chunk in iter(lambda: f.read(DIGEST_CHUNK_BYTES), b""):
                            digest.update(chunk)  # a WAV file is never held whole
                else:
                    digest.update(b"-\n")  # missing: the session is skipped
    return digest.hexdigest()


def _code_digest() -> str:
    """sha256 over the phqreg package's module sources and the numpy version."""
    package = Path(__file__).resolve().parent
    digest = _sha256(f"numpy {np.__version__}\n".encode())
    for name in sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py")):
        data = (package / name).read_bytes()
        digest.update(f"{name} {len(data)}\n".encode() + data)
    return digest.hexdigest()


def _read_pass_record(out_dir: Path, current: dict):
    """The pass record's M rows per split, or (None, why not) when it is not current."""
    path = artifact_path(out_dir, "manifest", "acoustic")
    if not path.is_file():
        return None, f"no {path.name}"
    try:
        manifest = json.loads(corpus.read_text(path, PipelineError))
    except ValueError:
        manifest = None
    if not isinstance(manifest, dict):
        return None, f"{path.name} is not a manifest"
    stale = [key for key, digest in current.items() if manifest.get(key) != digest]
    if stale:
        return None, f"the {' and '.join(stale)} digest of {path.name} is not current"
    if not isinstance(manifest.get("stores"), dict):
        return None, f"the stores key of {path.name} is not a JSON object"
    per_split = {}
    for split in SPLITS:
        store = artifact_path(out_dir, "acoustic_pass", "acoustic", split)
        if not store.is_file() or _sha256(store.read_bytes()).hexdigest() != manifest["stores"].get(split):
            return None, f"{store.name} is not the store {path.name} records"
        per_split[split] = read_feature_csv(store)[1]
    return per_split, ""


def _acoustic_pass(index, out_dir: Path, group: str):
    """``group``'s (names, rows per split) from the corpus's full acoustic pass, and the record files written.

    The pass is read back from its record when that is current; otherwise it
    runs and writes the record (see the module docstring).
    """
    from . import audio

    current = {"code": _code_digest(), "inputs": _inputs_digest(index)}  # taken before the pass reads the corpus
    per_split, why_not = _read_pass_record(out_dir, current)
    recorded = []
    if per_split is None:
        logger.info("full acoustic pass (%s)", why_not)
        vectors = _session_rows(index, ("audio", "transcript"), audio.session_acoustic_vector)
        if not any(vectors.values()):
            raise PipelineError("acoustic extraction produced no sessions")
        per_split = {split: {sid: vec.values for sid, vec in rows.items()} for split, rows in vectors.items()}
        for split in SPLITS:
            recorded.append(artifact_path(out_dir, "acoustic_pass", "acoustic", split))
            write_feature_csv(recorded[-1], audio.GROUP_NAMES["M"], per_split[split])
        manifest = dict(
            current,
            sessions={split: len(per_split[split]) for split in SPLITS},
            stores={split: _sha256(path.read_bytes()).hexdigest() for split, path in zip(SPLITS, recorded)},
        )
        recorded.append(artifact_path(out_dir, "manifest", "acoustic"))
        corpus.write_whole(recorded[-1], json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    else:
        logger.info("acoustic pass read back from its current record")
    columns = audio.GROUP_COLUMNS[group]
    rows = {split: {sid: values[columns] for sid, values in m_rows.items()} for split, m_rows in per_split.items()}
    return audio.GROUP_NAMES[group], rows, recorded


def _extract_behavioral(index):
    from . import turns

    rows = _session_rows(index, ("transcript",), lambda sid, transcript: turns.behavioral_vector(transcript))
    return turns.BEHAVIORAL_NAMES, rows


def _extract_text(index, cfg: PipelineConfig, variant: str):
    from . import textfeats

    docs = _session_rows(index, ("transcript",), lambda sid, transcript: textfeats.build_document(transcript))
    if not docs["train"]:
        raise PipelineError("text extraction found no training transcripts")

    if variant == "WE":
        if not cfg.text_embeddings:
            raise PipelineError("text:WE requires [text] embeddings = <path>")
        table = textfeats.load_embeddings(cfg.text_embeddings)
        names = tuple(f"we_{i}" for i in range(len(next(iter(table.values())))))

        def vectors(split_docs):
            return {sid: textfeats.embed_average(doc, table) for sid, doc in split_docs.items()}

    else:
        train_docs = list(docs["train"].values())
        vocab = textfeats.build_vocabulary(train_docs)
        idf = textfeats.idf_weights(train_docs, vocab) if variant == "TFIDF" else None
        names = tuple(f"tok_{tok}" for tok in vocab)

        def vectors(split_docs):
            return dict(zip(split_docs, textfeats.vectorize(split_docs.values(), vocab, variant, idf)))

    return names, {split: vectors(docs[split]) for split in SPLITS}


def _windows_paths(out_dir: Path, split: str) -> tuple[Path, Path]:
    return artifact_path(out_dir, "windows", "visual", split), artifact_path(out_dir, "windows_meta", "visual", split)


def _extract_visual(index, out_dir: Path) -> list[Path]:
    """Fit the PCA on the training frames, cut both splits' windows and write them with the PCA record.

    One session's landmarks are held at a time: each training file is read
    once for the PCA and once more when its windows are cut, and each dev
    file once. A session without a landmark file is logged once and left
    out of its split's sidecar. Nothing is written until every session's
    windows are cut.
    """
    from . import face

    # corpus.load_landmarks is looked up per call, as in _session_rows, for perfbench/tracer.py
    paths = {split: {sid: path for sid, (path,) in _session_paths(index, split, ("landmarks",))} for split in SPLITS}
    if not paths["train"]:
        raise PipelineError("visual extraction found no training landmark files")

    def train_geometry():  # keeps no frames: fit_pca copies and owns them
        for path in paths["train"].values():
            coords = face.normalized_coords(corpus.load_landmarks(path).points)
            for lo in range(0, len(coords), GEOMETRY_BLOCK_FRAMES):
                yield face.geometric_frames(coords[lo : lo + GEOMETRY_BLOCK_FRAMES])
            del coords

    pca = face.fit_pca(train_geometry())
    logger.info("visual PCA: %d -> %d dims (%.4f%% variance)", len(pca.mean), pca.q, 100 * pca.explained_ratio)

    windows, sids = {}, {}
    for split in SPLITS:
        batches, sids[split] = [], []
        for sid, path in paths[split].items():
            batch = face.window_sequence(corpus.load_landmarks(path), pca, face.DEFAULT_WINDOW, face.DEFAULT_OVERLAP)
            if len(batch.windows):
                batches.append(batch.windows)
                sids[split].extend([sid] * len(batch.windows))
        windows[split] = np.concatenate(batches) if batches else np.zeros((0, face.DEFAULT_WINDOW, pca.q))

    pca_path = artifact_path(out_dir, "pca", "visual")
    record = {
        "format_version": PCA_FORMAT_VERSION,
        "mean": pca.mean.tolist(),
        "components": pca.components.tolist(),
        "explained_ratio": pca.explained_ratio,
        "variance_keep": face.DEFAULT_VARIANCE_KEEP,
    }
    corpus.write_whole(pca_path, json.dumps(record, sort_keys=True))
    written = [pca_path]
    for split in SPLITS:
        npy_path, json_path = _windows_paths(out_dir, split)
        with corpus.whole_file(npy_path, binary=True) as f:
            np.save(f, windows[split])
        meta = {"W": face.DEFAULT_WINDOW, "q": pca.q, "session_ids": sids[split], "sessions": list(paths[split])}
        corpus.write_whole(json_path, json.dumps(meta, sort_keys=True))
        written += [npy_path, json_path]
    return written


def load_windows(out_dir, split) -> tuple[np.ndarray, dict]:
    npy_path, json_path = _windows_paths(Path(out_dir), split)
    if not npy_path.is_file() or not json_path.is_file():
        raise PipelineError(f"missing visual window batch for split {split}; run `extract` first")
    try:
        windows = np.load(npy_path)
    except (ValueError, EOFError) as exc:
        raise PipelineError(f"{npy_path}: not a window array ({exc}); run `extract` again") from None
    if windows.dtype.kind not in "biuf" or not np.isfinite(windows).all():
        raise PipelineError(f"{npy_path}: window array holds a non-numeric or non-finite value; run `extract` again")
    try:
        meta = json.loads(corpus.read_text(json_path, PipelineError))
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise PipelineError(f"{json_path}: window sidecar is not a JSON object; run `extract` again")
    for key in ("session_ids", "W", "q", "sessions"):
        if key not in meta:
            raise PipelineError(f"{json_path}: window sidecar has no {key!r} key; run `extract` again")
    for key in ("session_ids", "sessions"):
        if not isinstance(meta[key], list) or not all(isinstance(sid, str) for sid in meta[key]):
            raise PipelineError(f"{json_path}: window sidecar {key!r} is not a list of session ids; run `extract` again")
    want = (len(meta["session_ids"]), meta["W"], meta["q"])
    if windows.shape != want:
        raise PipelineError(f"{npy_path}: window array of shape {windows.shape}, but {json_path.name} describes {want}")
    stray = sorted(set(meta["session_ids"]) - set(meta["sessions"]))
    if stray:
        raise PipelineError(f"{json_path}: windows of sessions missing from its session list: {', '.join(stray)}")
    return windows, meta


def run_extract(cfg: PipelineConfig) -> list[Path]:
    """Extract the configured modality for both splits; returns written paths."""
    t0 = time.monotonic()
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    family, variant = cfg.family(), cfg.variant()

    if family == "visual":
        written = _extract_visual(index, out_dir)
    else:
        recorded = []  # the acoustic pass record, when this extract ran the pass
        if family == "acoustic":
            names, per_split, recorded = _acoustic_pass(index, out_dir, variant.replace("+FS", ""))
        elif family == "behavioral":
            names, per_split = _extract_behavioral(index)
        else:
            names, per_split = _extract_text(index, cfg, variant)
        written = []
        for split in SPLITS:
            path = artifact_path(out_dir, "features", cfg.modality, split)
            write_feature_csv(path, names, per_split[split])
            written.append(path)
        written += recorded
    logger.info("extract %s done in %.2fs", cfg.modality, time.monotonic() - t0)
    return written


# ---------------------------------------------------------------------------
# fit, predict, train
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sessions:
    """Labelled sessions of one split and the feature rows they own.

    A feature store gives a session one row, a window batch its clean
    windows (maybe none). A session's prediction is the mean of its rows'
    predictions, or the training mean when it owns none (predict_sessions).
    """

    split: str
    sids: list  # session ids
    y: np.ndarray  # label per session
    rows: np.ndarray  # feature rows (n, d) or windows (m, W, q)
    owner: np.ndarray  # session id of each row
    names: tuple = ()  # a feature store's column names

    def subset(self, idx) -> "Sessions":
        sids = [self.sids[i] for i in idx]
        mine = np.isin(self.owner, sids)
        return replace(self, sids=sids, y=self.y[idx], rows=self.rows[mine], owner=self.owner[mine])


def _load_split(cfg: PipelineConfig, index: CorpusIndex, split: str) -> Sessions:
    """Read one split's feature store or window batch and look up every label.

    A split without sessions names the store or sidecar it was read from,
    and a missing labels file or a session without a label names the labels
    file.
    """
    labels = corpus.corpus_path(index.root, "labels")
    if index.labels is None:
        raise PipelineError(f"missing labels file {labels}")
    if cfg.family() == "visual":
        rows, meta = load_windows(cfg.out_dir, split)
        names, sids, owner = (), sorted(meta["sessions"]), meta["session_ids"]
        source = _windows_paths(Path(cfg.out_dir), split)[1]
    else:
        source = artifact_path(cfg.out_dir, "features", cfg.modality, split)
        names, store = read_feature_csv(source)
        sids = owner = sorted(store)
        rows = np.array([store[sid] for sid in sids])
    if not sids:
        raise PipelineError(f"{source}: empty {split} split")
    unlabeled = [sid for sid in sids if sid not in index.labels]
    if unlabeled:
        raise PipelineError(f"{labels}: unlabeled {split} sessions: {', '.join(unlabeled)}")
    y = np.array([float(index.labels[sid]) for sid in sids])
    return Sessions(split, sids, y, rows, np.array(owner, dtype=str), names)


def _tabular_fitter(cfg: PipelineConfig):
    """``fit(X, y) -> model``: REPTree for behavioral features, else the SVR (linear for text)."""
    if cfg.family() == "behavioral":
        from .models.reptree import reptree_train

        store = artifact_path(cfg.out_dir, "features", cfg.modality, "train")

        def fit(X, y):  # every tabular fit is of the training store's rows, so a refusal names that store
            try:
                return reptree_train(X, y, seed=cfg.seed)
            except ValueError as exc:
                raise PipelineError(f"{store}: {exc}") from None

        return fit
    from .models.svr import svr_train

    return partial(svr_train, kernel="linear" if cfg.family() == "text" else "rbf")


def _relief_select(cfg: PipelineConfig, names, X, y) -> tuple[list[int], dict]:
    from . import relief

    th, k = cfg.relief_threshold, cfg.relief_k
    weights = relief.relief_weights(X, relief.binarize_labels(y), k)
    selected = relief.select_top(weights, th)
    if not selected:
        raise PipelineError(f"relief selected no features at threshold {th}")
    return selected, {"threshold": th, "k": k, "selected_names": [names[i] for i in selected]}


def fit_predictor(cfg: PipelineConfig, data: Sessions) -> tuple[object, dict]:
    """Fit the configured predictor on ``data``; returns the model and its saved metadata.

    Every row is fitted to its owner's label. Tabular: Relief selection at
    ``[relief] threshold`` and ``k`` when the modality uses it, then the
    modality's SVR or REPTree. Visual: an LSTM of up to lstm.MAX_EPOCHS
    epochs, early-stopped on a seeded hold-out of the window-bearing sessions.
    """
    extra = {"modality": cfg.modality, "seed": cfg.seed, "train_mean": float(np.mean(data.y))}
    label = dict(zip(data.sids, data.y))
    X, y = data.rows, np.array([label[sid] for sid in data.owner.tolist()])
    if cfg.family() != "visual":
        fit = _tabular_fitter(cfg)
        extra["feature_names"] = list(data.names)
        if cfg.uses_relief():
            selected, extra["relief"] = _relief_select(cfg, data.names, X, y)
            X = X[:, selected]
        return fit(X, y), extra

    from .models.lstm import MAX_EPOCHS, lstm_train

    if len(X) == 0:
        raise PipelineError("no tracking-clean training windows; cannot train the LSTM")
    # hold out a seeded fraction of the window-bearing sessions for early stopping
    bearing = sorted(set(data.owner.tolist()))
    n_val = int(round(LSTM_VAL_FRACTION * len(bearing)))
    val_sessions = sorted(np.random.default_rng(cfg.seed).permutation(bearing)[:n_val].tolist())
    val = np.isin(data.owner, val_sessions)
    model = lstm_train(
        X[~val], y[~val], MAX_EPOCHS, cfg.seed,
        X_val=X[val] if val.any() else None,
        y_val=y[val] if val.any() else None,
    )
    W, q = X.shape[1:]
    extra.update(window=W, q=q, val_sessions=val_sessions)
    return model, extra


def predict_sessions(model, extra: dict, data: Sessions) -> tuple[np.ndarray, dict]:
    """Per-session predictions for ``data.sids``, plus report counters.

    One rule scores every modality: the mean of a session's row predictions
    (exactly its one row's prediction for a feature-store session), or the
    training mean for a session without rows. Feature rows are cut to the
    model's Relief columns when it has them.
    """
    X, counters = data.rows, {}
    if model.kind == "lstm":
        if X.shape[1:] != (extra.get("window"), extra.get("q")):
            raise PipelineError("window batch geometry does not match the trained model")
        counters[f"n_windows_{data.split}"] = len(X)
    elif "relief" in extra:
        X = X[:, [data.names.index(n) for n in extra["relief"]["selected_names"]]]
    per_row = model.predict(X) if len(X) else np.zeros(0)
    owned = [per_row[data.owner == sid] for sid in data.sids]
    preds = np.array([rows.mean() if len(rows) else extra["train_mean"] for rows in owned])
    fallbacks = [sid for sid, rows in zip(data.sids, owned) if not len(rows)]
    if fallbacks:
        logger.warning("%d %s sessions had no clean windows; used training-mean fallback: %s",
                       len(fallbacks), data.split, ", ".join(fallbacks))
        counters[f"{data.split}_fallback_sessions"] = ";".join(fallbacks)
    return preds, counters


def run_train(cfg: PipelineConfig) -> Path:
    """Train the configured model on the training split; persist the model file."""
    t0 = time.monotonic()
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    model, extra = fit_predictor(cfg, _load_split(cfg, index, "train"))
    path = artifact_path(out_dir, "model", cfg.modality)
    save_model(model, path, extra)
    logger.info("train %s (%s) done in %.2fs -> %s", cfg.modality, model.kind, time.monotonic() - t0, path)
    return path


# ---------------------------------------------------------------------------
# reports and evaluation
# ---------------------------------------------------------------------------


def write_predictions(path, sids, y_true, y_pred) -> None:
    lines = ["session_id,y_true,y_pred"]
    for sid, yt, yp in zip(sids, y_true, y_pred):
        lines.append(f"{sid},{repr(float(yt))},{repr(float(yp))}")
    corpus.write_whole(path, "\n".join(lines) + "\n")


def _metric_rows(prefix: str, y, yhat, with_evs: bool) -> dict:
    rows = {f"{prefix}_rmse": rmse_fn(y, yhat), f"{prefix}_mae": mae_fn(y, yhat)}
    if with_evs:
        try:
            rows[f"{prefix}_evs"] = evs_fn(y, yhat)
        except MetricError:
            rows[f"{prefix}_evs"] = ""
    return rows


def _check_extra(path, kind: str, extra: dict) -> None:
    """Refuse a model extra that lacks or mistypes a key that predict_sessions or run_eval reads."""
    number, relief = (int, float), extra.get("relief", {})
    want = {"train_mean": (extra.get("train_mean"), number)}
    if kind == "lstm":
        want.update(window=(extra.get("window"), int), q=(extra.get("q"), int))
    else:
        want.update(feature_names=(extra.get("feature_names"), list), relief=(relief, dict))
        if isinstance(relief, dict) and "relief" in extra:
            want.update({f"relief.{key}": (relief.get(key), types)
                         for key, types in (("threshold", number), ("k", int), ("selected_names", list))})
    for key, (value, types) in want.items():
        if isinstance(value, bool) or not isinstance(value, types):
            raise ModelFormatError(f"{path}: extra key {key!r} is missing or of the wrong type")
    if kind != "lstm" and any(name not in extra["feature_names"] for name in relief.get("selected_names", [])):
        raise ModelFormatError(f"{path}: extra key 'relief.selected_names' names a feature the model lacks")


def run_eval(cfg: PipelineConfig) -> dict:
    """Evaluate the persisted model on the dev split; write predictions + report."""
    t0 = time.monotonic()
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    model_path = artifact_path(out_dir, "model", cfg.modality)
    if not model_path.is_file():
        raise PipelineError(f"missing model file {model_path}; run `train` first")
    model, extra = load_model(model_path)
    _check_extra(model_path, model.kind, extra)

    with_evs = cfg.family() == "visual"  # EVS belongs to the visual report
    rows: dict = {"modality": cfg.modality, "model": model.kind, "seed": cfg.seed}

    all_y = {}
    for split in SPLITS:
        data = _load_split(cfg, index, split)
        if model.kind != "lstm" and list(data.names) != extra["feature_names"]:
            store = artifact_path(out_dir, "features", cfg.modality, split)
            raise PipelineError(f"{store}: feature store for split {split} does not match the features of {model_path}")
        preds, counters = predict_sessions(model, extra, data)
        write_predictions(artifact_path(out_dir, "predictions", cfg.modality, split), data.sids, data.y, preds)
        rows[f"n_{split}"] = len(data.sids)
        rows.update(_metric_rows(split, data.y, preds, with_evs))
        rows.update(counters)
        all_y[split] = data.y

    # mean-predictor baseline on dev, for reference in every report
    baseline = float(np.mean(all_y["train"]))
    rows["dev_rmse_baseline"] = rmse_fn(all_y["dev"], np.full(len(all_y["dev"]), baseline))
    rows["dev_mae_baseline"] = mae_fn(all_y["dev"], np.full(len(all_y["dev"]), baseline))

    if "relief" in extra:
        rows["relief_threshold"] = extra["relief"]["threshold"]
        rows["relief_k"] = extra["relief"]["k"]
        rows["n_features_used"] = len(extra["relief"]["selected_names"])
        rows["selected_features"] = ";".join(extra["relief"]["selected_names"])
    elif "feature_names" in extra:
        rows["n_features_used"] = len(extra["feature_names"])
    elif "q" in extra:
        rows["n_features_used"] = extra["q"]
    if model.kind == "lstm":
        rows["lstm_best_epoch"] = model.best_epoch
        rows["lstm_epochs"] = len(model.curve) - 1  # best_epoch == epochs: the budget ended the fit
        rows["lstm_last_loss"] = model.curve[-1]
    elif model.kind == "svr":
        rows["smo_iters"] = model.n_iter
        rows["smo_kkt_gap"] = model.kkt_gap
        z = np.concatenate([model.alpha, model.alpha_star])
        rows["smo_free_sv"] = int(np.count_nonzero((z > 0.0) & (z < model.C)))

    # one key,value line per row; no row holds a path, so the bytes do not depend on where corpus and outputs live
    report = ["key,value"] + [f"{k},{v}" for k, v in rows.items()]
    corpus.write_whole(artifact_path(out_dir, "report", cfg.modality), "\n".join(report) + "\n")
    logger.info("eval %s done in %.2fs", cfg.modality, time.monotonic() - t0)
    return rows


# ---------------------------------------------------------------------------
# cross-validation and relief tuning
# ---------------------------------------------------------------------------


def run_cv(cfg: PipelineConfig) -> dict:
    """3-fold CV on the training split, stratified by the PHQ-8 cutoff.

    Each fold fits on its training sessions and predicts its held-out ones
    through fit_predictor and predict_sessions, as train and eval do. The
    pooled baseline predicts each fold with the mean label of its training folds.
    """
    from . import relief

    t0 = time.monotonic()
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    data = _load_split(cfg, index, "train")
    n = len(data.sids)
    if n < relief.CV_FOLDS:
        raise PipelineError(f"{n} sessions is fewer than {relief.CV_FOLDS} folds")
    fold_indices = relief.stratified_folds(relief.binarize_labels(data.y), cfg.seed)

    rows: dict = {"modality": cfg.modality, "seed": cfg.seed, "n_folds": relief.CV_FOLDS}
    lines = ["fold,session_id,y_true,y_pred"]
    pooled_y, pooled_p, pooled_base = [], [], []
    for fold_no, test_idx in enumerate(fold_indices):
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        model, extra = fit_predictor(cfg, data.subset(train_idx))
        test = data.subset(test_idx)
        preds, _ = predict_sessions(model, extra, test)
        lines += [
            f"{fold_no},{sid},{repr(float(a))},{repr(float(b))}" for sid, a, b in zip(test.sids, test.y, preds)
        ]
        pooled_y.extend(test.y)
        pooled_p.extend(preds)
        pooled_base.extend([float(np.mean(data.y[train_idx]))] * len(test_idx))
        rows[f"fold{fold_no}_n"] = len(test_idx)
        rows.update(_metric_rows(f"fold{fold_no}", test.y, preds, with_evs=False))
    rows.update(_metric_rows("pooled", pooled_y, pooled_p, with_evs=True))
    rows["pooled_rmse_baseline"] = rmse_fn(pooled_y, pooled_base)
    rows["pooled_mae_baseline"] = mae_fn(pooled_y, pooled_base)

    corpus.write_whole(artifact_path(out_dir, "cv_predictions", cfg.modality), "\n".join(lines) + "\n")
    report = [f"phqreg cv report: {run_tag(cfg.modality)}", ""] + [f"{k} = {v}" for k, v in rows.items()]
    if cfg.modality in WHOLE_SPLIT_FITS:
        report += ["", f"note: {WHOLE_SPLIT_FITS[cfg.modality]} fitted on the whole training split, held-out folds included"]
    corpus.write_whole(artifact_path(out_dir, "cv_report", cfg.modality), "\n".join(report) + "\n")
    logger.info("cv %s done in %.2fs", cfg.modality, time.monotonic() - t0)
    return rows


def run_tune_relief(cfg: PipelineConfig) -> tuple[float, int]:
    """Grid-tune (threshold, k) by 3-fold CV on the training split."""
    if cfg.family() == "visual":
        raise PipelineError("relief tuning needs a tabular modality (acoustic, behavioral or text), not visual")
    from . import relief

    index = scan_corpus(cfg.root)
    data = _load_split(cfg, index, "train")
    th, k, scores = relief.tune_relief(data.rows, data.y, _tabular_fitter(cfg), seed=cfg.seed)
    lines = ["threshold,k,mean_mae"] + [f"{t},{kk},{v}" for (t, kk), v in sorted(scores.items())]
    lines.append(f"# chosen: threshold={th} k={k}")
    corpus.write_whole(artifact_path(cfg.out_dir, "relief_tuning", cfg.modality), "\n".join(lines) + "\n")
    logger.info("relief tuning chose threshold=%g k=%d", th, k)
    return th, k
