"""Orchestration: corpus scanning, extraction jobs, training, evaluation, CV.

All artifacts live under the configured output directory and are named by
artifact_path alone:

    features_<ftag>_<split>.csv        feature store (tabular modalities)
    visual_<split>_windows.npy/.json   window batches + sidecar (visual)
    visual_pca.json                    PCA model (mean + components, versioned)
    model_<tag>.json                   trained model envelope
    predictions_<tag>_<split>.csv      session_id,y_true,y_pred
    report_<tag>.txt / .csv            run report (recomputable from predictions)
    selected_features_<tag>.txt        Relief selection, when active
    relief_tuning_<tag>.csv            Relief (threshold, k) grid
    cv_predictions_<tag>.csv           per-fold CV predictions
    cv_report_<tag>.txt                CV report

<tag> is the modality with ":" replaced by "_" (acoustic:M+FS ->
acoustic_M+FS), so M+FS never overwrites the plain M model, reports or
predictions; <ftag> drops "+FS", so M+FS reads the M feature store.

Every verb reaches the learners through one pair of functions.
fit_predictor(cfg, sessions) runs Relief selection, the mean/SVR/REPTree
choice, or the LSTM with its seeded validation hold-out, and
predict_sessions(model, extra, sessions) gives per-session predictions.
train fits and saves, eval predicts each split, and cv fits and predicts
once per fold on index subsets of the training split, so a fold scores the
procedure that train ships. tune-relief and [relief] tune hand
relief.tune_relief the same mean/SVR/REPTree fit step.

Outputs are deterministic for a fixed config + seed; wall-clock timing goes
to the log only, never into report files.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import corpus, face, relief, textfeats, turns
from .audio import EmptyInputError, session_acoustic_vector
from .config import PipelineConfig
from .metrics import MetricError, evs as evs_fn, mae as mae_fn, rmse as rmse_fn
from .models import (
    LstmConfig,
    load_model,
    lstm_train,
    mean_train,
    reptree_train,
    save_model,
    svr_train,
)

logger = logging.getLogger(__name__)

SPLITS = ("train", "dev")
PCA_FORMAT_VERSION = 1
# share of the window-bearing training sessions held out to early-stop the LSTM
LSTM_VAL_FRACTION = 0.2


class PipelineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# corpus scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusIndex:
    root: Path
    ids: dict  # split -> tuple of session ids (sorted)
    labels: dict  # sid -> int


def scan_corpus(root) -> CorpusIndex:
    root = Path(root)
    if not root.is_dir():
        raise PipelineError(f"corpus root {root} does not exist")
    ids = {}
    for split in SPLITS:
        path = root / f"{split}_ids.txt"
        if not path.is_file():
            raise PipelineError(f"missing split file {path}")
        ids[split] = tuple(sorted(x.strip() for x in path.read_text(encoding="utf-8").splitlines() if x.strip()))
    # a session in both splits would be trained on and then scored as dev
    repeated = sorted(sid for sid, n in Counter(sid for split in SPLITS for sid in ids[split]).items() if n > 1)
    if repeated:
        raise PipelineError(f"session ids listed more than once across the split files: {', '.join(repeated)}")
    labels_path = root / "labels.csv"
    labels = corpus.load_labels(labels_path) if labels_path.is_file() else {}
    return CorpusIndex(root, ids, labels)


def session_paths(index: CorpusIndex, sid: str) -> dict:
    base = index.root / "sessions" / sid
    return {
        "transcript": base / f"{sid}_transcript.tsv",
        "audio": base / f"{sid}_audio.wav",
        "landmarks": base / f"{sid}_landmarks.csv",
    }


def load_session(index: CorpusIndex, sid: str, need: tuple[str, ...]) -> corpus.Session:
    """Load one session with the required modalities; missing file -> KeyError."""
    paths = session_paths(index, sid)
    missing = [m for m in need if not paths[m].is_file()]
    if missing:
        raise KeyError(f"session {sid}: missing {', '.join(missing)}")
    kw = {}
    if "transcript" in need:
        kw["turns"] = tuple(corpus.load_transcript(paths["transcript"]))
    if "audio" in need:
        kw["audio"] = corpus.load_wav(paths["audio"])
    if "landmarks" in need:
        kw["landmarks"] = corpus.load_landmarks(paths["landmarks"])
    return corpus.Session(id=sid, label=index.labels.get(sid), **kw)


# ---------------------------------------------------------------------------
# feature store CSV
# ---------------------------------------------------------------------------


ARTIFACT_NAMES = {
    "features": "features_{ftag}_{split}.csv",
    "windows": "visual_{split}_windows.npy",
    "windows_meta": "visual_{split}_windows.json",
    "pca": "visual_pca.json",
    "model": "model_{tag}.json",
    "predictions": "predictions_{tag}_{split}.csv",
    "report": "report_{tag}.txt",
    "report_csv": "report_{tag}.csv",
    "selection": "selected_features_{tag}.txt",
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
    with Path(path).open("w", encoding="utf-8", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["session_id", *names])
        for sid in sorted(rows):
            out.writerow([sid, *(repr(float(v)) for v in rows[sid])])


def read_feature_csv(path) -> tuple[tuple[str, ...], dict]:
    path = Path(path)
    if not path.is_file():
        raise PipelineError(f"missing feature store {path}; run `extract` first")
    records = csv.reader(path.read_text(encoding="utf-8").splitlines())
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
            rows[cells[0]] = np.array([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise PipelineError(f"{path}:{lineno}: {exc}") from None
    return names, rows


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _session_rows(index, need: tuple[str, ...], describe, skip: tuple = ()) -> dict:
    """{split: {sid: describe(session)}} in id order, without the skipped sessions.

    A session that lacks a needed file, or whose ``describe`` raises one of
    ``skip``, is logged and left out. A session lives only in its own
    ``describe`` call, so its samples are freed before the next one is loaded.
    """
    per_split = {}
    for split in SPLITS:
        per_split[split] = rows = {}
        for sid in index.ids[split]:
            try:
                rows[sid] = describe(load_session(index, sid, need))
            except (KeyError, *skip) as exc:
                logger.warning("skipping %s: %s", sid, exc)
    return per_split


def _extract_acoustic(index, cfg: PipelineConfig, variant: str):
    vectors = _session_rows(
        index, ("transcript", "audio"), lambda session: session_acoustic_vector(session, variant), (EmptyInputError,),
    )
    found = [vec for rows in vectors.values() for vec in rows.values()]
    if not found:
        raise PipelineError("acoustic extraction produced no sessions")
    return found[0].names, {split: {sid: vec.values for sid, vec in rows.items()} for split, rows in vectors.items()}


def _extract_behavioral(index, cfg: PipelineConfig):
    rows = _session_rows(index, ("transcript",), lambda session: turns.behavioral_vector(session.turns)[1], (ValueError,))
    return turns.BEHAVIORAL_NAMES, rows


def _extract_text(index, cfg: PipelineConfig, variant: str):
    docs = _session_rows(index, ("transcript",), textfeats.build_document)
    if not docs["train"]:
        raise PipelineError("text extraction found no training transcripts")

    if variant == "WE":
        if not cfg.text_embeddings:
            raise PipelineError("text:WE requires [text] embeddings = <path>")
        table = textfeats.load_embeddings(cfg.text_embeddings)
        names = tuple(f"we_{i}" for i in range(table.dim))

        def vectors(split_docs):
            return {sid: textfeats.embed_average(doc, table) for sid, doc in split_docs.items()}

    else:
        vectorizer = textfeats.TextVectorizer(variant).fit(list(docs["train"].values()))
        names = vectorizer.feature_names()

        def vectors(split_docs):
            return dict(zip(split_docs, vectorizer.transform(list(split_docs.values()))))

    return names, {split: vectors(docs[split]) for split in SPLITS}


def _windows_paths(out_dir: Path, split: str) -> tuple[Path, Path]:
    return artifact_path(out_dir, "windows", "visual", split), artifact_path(out_dir, "windows_meta", "visual", split)


def _extract_visual(index, cfg: PipelineConfig, out_dir: Path) -> list[Path]:
    landmarks = _session_rows(index, ("landmarks",), lambda session: session.landmarks)
    if not landmarks["train"]:
        raise PipelineError("visual extraction found no training landmark files")
    train_frames = np.concatenate([face.geometric_frames(lm) for lm in landmarks["train"].values()])
    pca = face.fit_pca(train_frames, face.DEFAULT_VARIANCE_KEEP)
    logger.info("visual PCA: %d -> %d dims (%.4f%% variance)", train_frames.shape[1], pca.q, 100 * pca.explained_ratio)

    pca_path = artifact_path(out_dir, "pca", "visual")
    pca_path.write_text(
        json.dumps(
            {
                "format_version": PCA_FORMAT_VERSION,
                "mean": pca.mean.tolist(),
                "components": pca.components.tolist(),
                "explained_ratio": pca.explained_ratio,
                "variance_keep": face.DEFAULT_VARIANCE_KEEP,
            },
            sort_keys=True,
        ),
        encoding="utf-8",
    )

    written = [pca_path]
    for split in SPLITS:
        batches, sids = [], []
        for sid, lm in landmarks[split].items():
            batch = face.window_sequence(lm, pca, face.DEFAULT_WINDOW, face.DEFAULT_OVERLAP, session_id=sid)
            if len(batch.windows):
                batches.append(batch.windows)
                sids.extend([sid] * len(batch.windows))
        windows = np.concatenate(batches) if batches else np.zeros((0, face.DEFAULT_WINDOW, pca.q))
        npy_path, json_path = _windows_paths(out_dir, split)
        np.save(npy_path, windows)
        json_path.write_text(
            json.dumps(
                {
                    "W": face.DEFAULT_WINDOW,
                    "O": face.DEFAULT_OVERLAP,
                    "q": pca.q,
                    "pca_file": pca_path.name,
                    "session_ids": sids,
                    "sessions": list(landmarks[split]),
                },
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        written += [npy_path, json_path]
    return written


def load_pca(path) -> face.PcaProjection:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != PCA_FORMAT_VERSION:
        raise PipelineError(f"{path}: PCA format version {payload.get('format_version')!r}, expected {PCA_FORMAT_VERSION}")
    mean, components = np.array(payload["mean"]), np.array(payload["components"])
    return face.PcaProjection(mean, components, payload["explained_ratio"])


def load_windows(out_dir, split) -> tuple[np.ndarray, dict]:
    npy_path, json_path = _windows_paths(Path(out_dir), split)
    if not npy_path.is_file() or not json_path.is_file():
        raise PipelineError(f"missing visual window batch for split {split}; run `extract` first")
    windows = np.load(npy_path)
    meta = json.loads(json_path.read_text(encoding="utf-8"))
    for key in ("session_ids", "W", "q", "sessions"):
        if key not in meta:
            raise PipelineError(f"{json_path}: window sidecar has no {key!r} key; run `extract` again")
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
    out_dir.mkdir(parents=True, exist_ok=True)
    family, variant = cfg.family(), cfg.variant()

    if family == "visual":
        written = _extract_visual(index, cfg, out_dir)
    else:
        if family == "acoustic":
            names, per_split = _extract_acoustic(index, cfg, variant.replace("+FS", ""))
        elif family == "behavioral":
            names, per_split = _extract_behavioral(index, cfg)
        else:
            names, per_split = _extract_text(index, cfg, variant)
        written = []
        for split in SPLITS:
            path = artifact_path(out_dir, "features", cfg.modality, split)
            write_feature_csv(path, names, per_split[split])
            written.append(path)
    logger.info("extract %s done in %.2fs", cfg.modality, time.monotonic() - t0)
    return written


# ---------------------------------------------------------------------------
# fit, predict, train
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sessions:
    """Labelled sessions of one split: a feature row each, or their windows (visual)."""

    split: str
    sids: list  # sorted session ids
    y: np.ndarray  # label per session
    names: tuple = ()  # tabular: feature names
    X: np.ndarray | None = None  # tabular: one row per session
    windows: np.ndarray | None = None  # visual: every window of these sessions
    win_sids: np.ndarray | None = None  # visual: session id per window

    def subset(self, idx) -> "Sessions":
        sids = [self.sids[i] for i in idx]
        if self.windows is None:
            return replace(self, sids=sids, y=self.y[idx], X=self.X[idx])
        mine = np.isin(self.win_sids, sids)
        return replace(self, sids=sids, y=self.y[idx], windows=self.windows[mine], win_sids=self.win_sids[mine])


def _load_split(cfg: PipelineConfig, index: CorpusIndex, split: str) -> Sessions:
    """Read one split's feature store or window batch and look up every label."""
    if cfg.family() == "visual":
        windows, meta = load_windows(cfg.out_dir, split)
        sids = sorted(meta["sessions"])
        stored = dict(windows=windows, win_sids=np.array(meta["session_ids"], dtype=str))
    else:
        names, rows = read_feature_csv(artifact_path(cfg.out_dir, "features", cfg.modality, split))
        sids = sorted(rows)
        stored = dict(names=names, X=np.array([rows[sid] for sid in sids]))
    if not sids:
        raise PipelineError(f"empty {split} split")
    unlabeled = [sid for sid in sids if sid not in index.labels]
    if unlabeled:
        raise PipelineError(f"unlabeled {split} sessions: {', '.join(unlabeled)}")
    return Sessions(split, sids, np.array([float(index.labels[sid]) for sid in sids]), **stored)


def _model_kind(cfg: PipelineConfig) -> str:
    kind = cfg.effective_model()
    if cfg.family() == "visual" and kind != "lstm":
        raise PipelineError(f"the visual modality trains an lstm, not {kind!r}")
    return kind


def _tabular_fitter(cfg: PipelineConfig, kind: str):
    """``fit(X, y) -> model`` for the mean baseline, SVR or REPTree."""
    if kind == "mean":
        return lambda X, y: mean_train(y)
    if kind == "svr":
        return partial(svr_train, kernel=cfg.effective_svr_kernel())
    if kind == "reptree":
        return partial(reptree_train, seed=cfg.seed)
    raise PipelineError(f"model {kind!r} cannot be trained on tabular features")


def _relief_select(cfg: PipelineConfig, fit, names, X, y) -> tuple[list[int], dict]:
    th, k = cfg.relief_threshold, cfg.relief_k
    info: dict = {}
    if cfg.relief_tune:
        th, k, scores = relief.tune_relief(X, y, fit, seed=cfg.seed)
        info["grid_scores"] = {f"th={t},k={kk}": v for (t, kk), v in sorted(scores.items())}
    weights = relief.relief_weights(X, relief.binarize_labels(y), k)
    selected = relief.select_top(weights, th)
    if not selected:
        raise PipelineError(f"relief selected no features at threshold {th}")
    info.update(threshold=th, k=k, selected_names=[names[i] for i in selected])
    return selected, info


def fit_predictor(cfg: PipelineConfig, data: Sessions) -> tuple[object, dict]:
    """Fit the configured predictor on ``data``; returns the model and its saved metadata.

    Tabular: Relief selection when the modality uses it (grid-tuned under
    ``[relief] tune``), then the mean baseline, SVR or REPTree. Visual: an
    LSTM, early-stopped on a seeded hold-out of the window-bearing sessions.
    """
    kind = _model_kind(cfg)
    extra = {"modality": cfg.modality, "seed": cfg.seed, "tag": run_tag(cfg.modality)}
    extra["train_mean"] = float(np.mean(data.y))
    if data.windows is None:
        fit = _tabular_fitter(cfg, kind)
        extra["feature_names"] = list(data.names)
        X = data.X
        if cfg.uses_relief():
            selected, extra["relief"] = _relief_select(cfg, fit, data.names, X, data.y)
            X = X[:, selected]
        return fit(X, data.y), extra

    if len(data.windows) == 0:
        raise PipelineError("no tracking-clean training windows; cannot train the LSTM")
    # hold out a seeded fraction of the window-bearing sessions for early stopping
    bearing = sorted(set(data.win_sids.tolist()))
    n_val = int(round(LSTM_VAL_FRACTION * len(bearing)))
    val_sessions = sorted(np.random.default_rng(cfg.seed).permutation(bearing)[:n_val].tolist())
    val = np.isin(data.win_sids, val_sessions)
    label = dict(zip(data.sids, data.y))
    y = np.array([label[sid] for sid in data.win_sids.tolist()])
    lstm_cfg = LstmConfig(input_dim=data.windows.shape[2], max_epochs=cfg.lstm_max_epochs, seed=cfg.seed)
    model = lstm_train(
        data.windows[~val], y[~val], lstm_cfg,
        X_val=data.windows[val] if val.any() else None,
        y_val=y[val] if val.any() else None,
    )
    W, q = data.windows.shape[1:]
    extra.update(window=W, overlap=face.DEFAULT_OVERLAP, q=q, pca_file=ARTIFACT_NAMES["pca"], val_sessions=val_sessions)
    return model, extra


def predict_sessions(model, extra: dict, data: Sessions) -> tuple[np.ndarray, dict]:
    """Per-session predictions for ``data.sids``, plus report counters.

    Tabular rows are cut to the model's Relief columns when it has them.
    A visual session aggregates its window predictions; one without a clean
    window falls back to the training mean.
    """
    if data.windows is None:
        if list(data.names) != extra.get("feature_names"):
            raise PipelineError(f"feature store for split {data.split} does not match the trained model's features")
        X = data.X
        if "relief" in extra:
            X = X[:, [data.names.index(n) for n in extra["relief"]["selected_names"]]]
        return model.predict(X), {}

    if data.windows.shape[1:] != (extra.get("window"), extra.get("q")):
        raise PipelineError("window batch geometry does not match the trained model")
    per_window = model.predict(data.windows) if len(data.windows) else np.zeros(0)
    fallbacks = [sid for sid in data.sids if sid not in data.win_sids]
    preds = np.array([
        extra["train_mean"] if sid in fallbacks else face.aggregate_predictions(per_window[data.win_sids == sid])
        for sid in data.sids
    ])
    counters = {f"n_windows_{data.split}": len(data.windows)}
    if fallbacks:
        logger.warning("%d %s sessions had no clean windows; used training-mean fallback: %s",
                       len(fallbacks), data.split, ", ".join(fallbacks))
        counters[f"{data.split}_fallback_sessions"] = ";".join(fallbacks)
    return preds, counters


def run_train(cfg: PipelineConfig) -> Path:
    """Train the configured model on the training split; persist the model file."""
    t0 = time.monotonic()
    _model_kind(cfg)  # a mismatched learner fails before any store is read
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, extra = fit_predictor(cfg, _load_split(cfg, index, "train"))
    if "relief" in extra:
        sel_path = artifact_path(out_dir, "selection", cfg.modality)
        sel_path.write_text("\n".join(extra["relief"]["selected_names"]) + "\n", encoding="utf-8")
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_predictions(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    sids, yt, yp = [], [], []
    for raw in lines[1:]:
        if not raw.strip():
            continue
        sid, a, b = raw.split(",")
        sids.append(sid)
        yt.append(float(a))
        yp.append(float(b))
    return sids, np.array(yt), np.array(yp)


def _metric_rows(prefix: str, y, yhat, with_evs: bool) -> dict:
    rows = {f"{prefix}_rmse": rmse_fn(y, yhat), f"{prefix}_mae": mae_fn(y, yhat)}
    if with_evs:
        try:
            rows[f"{prefix}_evs"] = evs_fn(y, yhat)
        except MetricError:
            rows[f"{prefix}_evs"] = ""
    return rows


def write_report(out_dir, cfg: PipelineConfig, rows: dict, selected=None) -> tuple[Path, Path]:
    """Write the run report; its bytes do not depend on where corpus and outputs live."""
    from .config import MACHINE_PATHS, config_text

    tag = run_tag(cfg.modality)
    txt_path = artifact_path(out_dir, "report", cfg.modality)
    csv_path = artifact_path(out_dir, "report_csv", cfg.modality)
    lines = [f"phqreg run report: {tag}", "=" * (19 + len(tag)), ""]
    lines += [f"{k} = {v}" for k, v in rows.items()]
    if selected:
        lines += ["", "[selected features]"] + list(selected)
    lines += ["", "[config]", config_text(cfg, omit=MACHINE_PATHS)]
    txt_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    csv_lines = ["key,value"] + [f"{k},{v}" for k, v in rows.items()]
    csv_path.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    return txt_path, csv_path


def run_eval(cfg: PipelineConfig) -> dict:
    """Evaluate the persisted model on the dev split; write predictions + report."""
    t0 = time.monotonic()
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    model_path = artifact_path(out_dir, "model", cfg.modality)
    if not model_path.is_file():
        raise PipelineError(f"missing model file {model_path}; run `train` first")
    model, extra = load_model(model_path)

    # EVS belongs to the visual report; the mean baseline also gets it so its
    # boundary case (EVS = 0 for a constant predictor) is visible
    with_evs = cfg.family() == "visual" or model.kind == "mean"
    rows: dict = {"modality": cfg.modality, "model": model.kind, "seed": cfg.seed}

    all_y = {}
    for split in SPLITS:
        data = _load_split(cfg, index, split)
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
    elif "feature_names" in extra:
        rows["n_features_used"] = len(extra["feature_names"])
    elif "q" in extra:
        rows["n_features_used"] = extra["q"]
    if model.kind == "lstm":
        rows["lstm_best_epoch"] = model.best_epoch

    write_report(out_dir, cfg, rows, selected=extra.get("relief", {}).get("selected_names"))
    logger.info("eval %s done in %.2fs", cfg.modality, time.monotonic() - t0)
    return rows


# ---------------------------------------------------------------------------
# cross-validation and relief tuning
# ---------------------------------------------------------------------------


def run_cv(cfg: PipelineConfig, scheme: str = "kfold") -> dict:
    """3-fold stratified CV or leave-one-sequence-out on the training split.

    Each fold fits on its training sessions and predicts its held-out ones
    through fit_predictor and predict_sessions, as train and eval do.
    """
    t0 = time.monotonic()
    _model_kind(cfg)
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = _load_split(cfg, index, "train")
    n = len(data.sids)

    if scheme == "kfold":
        n_folds = 3
        if n < n_folds:
            raise PipelineError(f"{n} sessions is fewer than {n_folds} folds")
        fold_indices = relief.stratified_folds(relief.binarize_labels(data.y), n_folds, cfg.seed)
    elif scheme == "loso":
        fold_indices = [np.array([i]) for i in range(n)]
    else:
        raise PipelineError(f"unknown CV scheme {scheme!r}; expected kfold or loso")

    rows: dict = {"modality": cfg.modality, "scheme": scheme, "seed": cfg.seed, "n_folds": len(fold_indices)}
    lines = ["fold,session_id,y_true,y_pred"]
    pooled_y, pooled_p = [], []
    for fold_no, test_idx in enumerate(fold_indices):
        model, extra = fit_predictor(cfg, data.subset(np.setdiff1d(np.arange(n), test_idx)))
        test = data.subset(test_idx)
        preds, _ = predict_sessions(model, extra, test)
        lines += [
            f"{fold_no},{sid},{repr(float(a))},{repr(float(b))}" for sid, a, b in zip(test.sids, test.y, preds)
        ]
        pooled_y.extend(test.y)
        pooled_p.extend(preds)
        rows[f"fold{fold_no}_n"] = len(test_idx)
        rows.update(_metric_rows(f"fold{fold_no}", test.y, preds, with_evs=False))
    rows.update(_metric_rows("pooled", pooled_y, pooled_p, with_evs=True))

    artifact_path(out_dir, "cv_predictions", cfg.modality).write_text("\n".join(lines) + "\n", encoding="utf-8")
    txt = artifact_path(out_dir, "cv_report", cfg.modality)
    txt.write_text("\n".join([f"phqreg cv report: {run_tag(cfg.modality)} ({scheme})", ""] + [f"{k} = {v}" for k, v in rows.items()]) + "\n", encoding="utf-8")
    logger.info("cv %s (%s) done in %.2fs", cfg.modality, scheme, time.monotonic() - t0)
    return rows


def run_tune_relief(cfg: PipelineConfig) -> tuple[float, int]:
    """Grid-tune (threshold, k) by 3-fold CV on the training split."""
    if cfg.family() == "visual":
        raise PipelineError("relief tuning needs a tabular modality (acoustic, behavioral or text), not visual")
    index = scan_corpus(cfg.root)
    data = _load_split(cfg, index, "train")
    th, k, scores = relief.tune_relief(data.X, data.y, _tabular_fitter(cfg, cfg.effective_model()), seed=cfg.seed)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["threshold,k,mean_mae"] + [f"{t},{kk},{v}" for (t, kk), v in sorted(scores.items())]
    lines.append(f"# chosen: threshold={th} k={k}")
    artifact_path(out_dir, "relief_tuning", cfg.modality).write_text("\n".join(lines) + "\n", encoding="utf-8")
    logger.info("relief tuning chose threshold=%g k=%d", th, k)
    return th, k
