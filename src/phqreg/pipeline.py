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

Outputs are deterministic for a fixed config + seed; wall-clock timing goes
to the log only, never into report files.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corpus, face, relief, textfeats, turns
from .audio import EmptyInputError, session_acoustic_vector
from .config import PipelineConfig
from .metrics import MetricError, evs as evs_fn, mae as mae_fn, rmse as rmse_fn
from .models import (
    LstmConfig,
    RepTreeRegressor,
    SvrRegressor,
    lstm_train,
    load_model,
    mean_train,
    save_model,
)

logger = logging.getLogger(__name__)

SPLITS = ("train", "dev")
PCA_FORMAT_VERSION = 1


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
    path = Path(path)
    lines = ["session_id," + ",".join(names)]
    for sid in sorted(rows):
        lines.append(sid + "," + ",".join(repr(float(v)) for v in rows[sid]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_feature_csv(path) -> tuple[tuple[str, ...], dict]:
    path = Path(path)
    if not path.is_file():
        raise PipelineError(f"missing feature store {path}; run `extract` first")
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header[0] != "session_id":
        raise PipelineError(f"{path}: not a feature store CSV")
    names = tuple(header[1:])
    rows = {}
    for raw in lines[1:]:
        if not raw.strip():
            continue
        cells = raw.split(",")
        rows[cells[0]] = np.array([float(c) for c in cells[1:]])
    return names, rows


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _acoustic_vector(index, sid: str, variant: str):
    """One session's acoustic vector, or None when it is skipped.

    The session lives only in this call, so its samples are freed before
    the next session is loaded.
    """
    try:
        session = load_session(index, sid, ("transcript", "audio"))
    except KeyError as exc:
        logger.warning("skipping %s: %s", sid, exc)
        return None
    try:
        return session_acoustic_vector(session, variant)
    except EmptyInputError as exc:
        logger.warning("skipping %s: %s", sid, exc)
        return None


def _extract_acoustic(index, cfg: PipelineConfig, variant: str):
    names = None
    per_split = {}
    for split in SPLITS:
        rows = {}
        for sid in index.ids[split]:
            vec = _acoustic_vector(index, sid, variant)
            if vec is not None:
                rows[sid] = vec.values
                names = vec.names
        per_split[split] = rows
    if names is None:
        raise PipelineError("acoustic extraction produced no sessions")
    return names, per_split


def _extract_behavioral(index, cfg: PipelineConfig):
    names = turns.BEHAVIORAL_NAMES
    per_split = {}
    for split in SPLITS:
        rows = {}
        for sid in index.ids[split]:
            try:
                session = load_session(index, sid, ("transcript",))
                _, vec = turns.behavioral_vector(session.turns)
            except (KeyError, ValueError) as exc:
                logger.warning("skipping %s: %s", sid, exc)
                continue
            rows[sid] = vec
        per_split[split] = rows
    return names, per_split


def _extract_text(index, cfg: PipelineConfig, variant: str):
    docs = {}
    for split in SPLITS:
        for sid in index.ids[split]:
            try:
                session = load_session(index, sid, ("transcript",))
            except KeyError as exc:
                logger.warning("skipping %s: %s", sid, exc)
                continue
            docs[sid] = textfeats.build_document(session)

    train_ids = [sid for sid in index.ids["train"] if sid in docs]
    if not train_ids:
        raise PipelineError("text extraction found no training transcripts")

    if variant == "WE":
        if not cfg.text_embeddings:
            raise PipelineError("text:WE requires [text] embeddings = <path>")
        table = textfeats.load_embeddings(cfg.text_embeddings)
        names = tuple(f"we_{i}" for i in range(table.dim))

        def vectors(sids):
            return {sid: textfeats.embed_average(docs[sid], table) for sid in sids}

    else:
        vectorizer = textfeats.TextVectorizer(variant).fit([docs[sid] for sid in train_ids])
        names = vectorizer.feature_names()

        def vectors(sids):
            sids = list(sids)
            mat = vectorizer.transform([docs[sid] for sid in sids])
            return dict(zip(sids, mat))

    per_split = {}
    for split in SPLITS:
        present = [sid for sid in index.ids[split] if sid in docs]
        per_split[split] = vectors(present)
    return names, per_split


def _windows_paths(out_dir: Path, split: str) -> tuple[Path, Path]:
    return artifact_path(out_dir, "windows", "visual", split), artifact_path(out_dir, "windows_meta", "visual", split)


def _extract_visual(index, cfg: PipelineConfig, out_dir: Path) -> list[Path]:
    sessions = {}
    for split in SPLITS:
        for sid in index.ids[split]:
            try:
                sessions[sid] = load_session(index, sid, ("landmarks",)).landmarks
            except KeyError as exc:
                logger.warning("skipping %s: %s", sid, exc)

    train_ids = [sid for sid in index.ids["train"] if sid in sessions]
    if not train_ids:
        raise PipelineError("visual extraction found no training landmark files")
    train_frames = np.concatenate([face.geometric_frames(sessions[sid]) for sid in train_ids])
    pca = face.fit_pca(train_frames, cfg.visual_variance_keep)
    logger.info("visual PCA: %d -> %d dims (%.4f%% variance)", train_frames.shape[1], pca.q, 100 * pca.explained_ratio)

    pca_path = artifact_path(out_dir, "pca", "visual")
    pca_path.write_text(
        json.dumps(
            {
                "format_version": PCA_FORMAT_VERSION,
                "mean": pca.mean.tolist(),
                "components": pca.components.tolist(),
                "explained_ratio": pca.explained_ratio,
                "variance_keep": cfg.visual_variance_keep,
            },
            sort_keys=True,
        ),
        encoding="utf-8",
    )

    written = [pca_path]
    for split in SPLITS:
        batches, sids, all_sessions = [], [], []
        for sid in index.ids[split]:
            if sid not in sessions:
                continue
            all_sessions.append(sid)
            batch = face.window_sequence(
                sessions[sid], pca, cfg.visual_window, cfg.visual_overlap, session_id=sid
            )
            if len(batch.windows):
                batches.append(batch.windows)
                sids.extend([sid] * len(batch.windows))
        windows = np.concatenate(batches) if batches else np.zeros((0, cfg.visual_window, pca.q))
        npy_path, json_path = _windows_paths(out_dir, split)
        np.save(npy_path, windows)
        json_path.write_text(
            json.dumps(
                {
                    "W": cfg.visual_window,
                    "O": cfg.visual_overlap,
                    "q": pca.q,
                    "pca_file": pca_path.name,
                    "session_ids": sids,
                    "sessions": all_sessions,
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
    components = np.array(payload["components"])
    evals = np.zeros(len(components))
    return face.PcaProjection(np.array(payload["mean"]), components, payload["explained_ratio"], evals)


def load_windows(out_dir, split) -> tuple[np.ndarray, dict]:
    npy_path, json_path = _windows_paths(Path(out_dir), split)
    if not npy_path.is_file() or not json_path.is_file():
        raise PipelineError(f"missing visual window batch for split {split}; run `extract` first")
    windows = np.load(npy_path)
    meta = json.loads(json_path.read_text(encoding="utf-8"))
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
# tabular assembly
# ---------------------------------------------------------------------------


def _load_matrix(cfg: PipelineConfig, index: CorpusIndex, split: str, require_labels: bool):
    names, rows = read_feature_csv(artifact_path(cfg.out_dir, "features", cfg.modality, split))
    sids = sorted(rows)
    if not sids:
        raise PipelineError(f"feature store for split {split} is empty")
    if require_labels:
        unlabeled = [sid for sid in sids if sid not in index.labels]
        if unlabeled:
            raise PipelineError(f"unlabeled {split} sessions: {', '.join(unlabeled)}")
    X = np.array([rows[sid] for sid in sids])
    y = np.array([float(index.labels[sid]) for sid in sids if sid in index.labels])
    return names, sids, X, y


def _make_regressor(cfg: PipelineConfig):
    model = cfg.effective_model()
    if model == "svr":
        return SvrRegressor(
            kernel=cfg.effective_svr_kernel(), C=cfg.svr_c, gamma=cfg.svr_gamma,
            epsilon=cfg.svr_epsilon, tol=cfg.svr_tol,
        )
    if model == "reptree":
        return RepTreeRegressor(
            min_leaf=cfg.reptree_min_leaf, prune_fraction=cfg.reptree_prune_fraction, seed=cfg.seed,
        )
    raise PipelineError(f"model {model!r} cannot be trained on tabular features")


def _relief_select(cfg: PipelineConfig, names, X, y) -> tuple[list[int], dict]:
    th, k = cfg.relief_threshold, cfg.relief_k
    info: dict = {}
    if cfg.relief_tune:
        th, k, scores = relief.tune_relief(
            X, y, lambda: _make_regressor(cfg),
            n_max=cfg.relief_n_max, seed=cfg.seed,
        )
        info["grid_scores"] = {f"th={t},k={kk}": v for (t, kk), v in sorted(scores.items())}
    weights = relief.relief_weights(X, relief.binarize_labels(y), k)
    selected = relief.select_top(weights, th, cfg.relief_n_max)
    if not selected:
        raise PipelineError(f"relief selected no features at threshold {th}")
    info.update(threshold=th, k=k, selected_names=[names[i] for i in selected])
    return selected, info


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def run_train(cfg: PipelineConfig) -> Path:
    """Train the configured model on the training split; persist the model file."""
    t0 = time.monotonic()
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_kind = cfg.effective_model()

    extra = {"modality": cfg.modality, "seed": cfg.seed, "tag": run_tag(cfg.modality)}

    if cfg.family() == "visual" and model_kind != "lstm":
        raise PipelineError(f"the visual modality trains an lstm, not {model_kind!r}")

    if cfg.family() == "visual":
        windows, meta = load_windows(out_dir, "train")
        sids = meta["session_ids"]
        unlabeled = sorted({s for s in meta["sessions"] if s not in index.labels})
        if unlabeled:
            raise PipelineError(f"unlabeled train sessions: {', '.join(unlabeled)}")
        if len(windows) == 0:
            raise PipelineError("no tracking-clean training windows; cannot train the LSTM")
        y = np.array([float(index.labels[s]) for s in sids])

        # hold out a seeded fraction of training *sessions* for early stopping
        unique = sorted(set(sids))
        rng = np.random.default_rng(cfg.seed)
        n_val = int(round(cfg.lstm_val_fraction * len(unique)))
        val_sessions = set(rng.permutation(unique)[:n_val]) if n_val else set()
        val_mask = np.array([s in val_sessions for s in sids])
        if val_mask.all() or len(windows) - val_mask.sum() == 0:
            val_mask[:] = False

        lstm_cfg = LstmConfig(
            input_dim=windows.shape[2], hidden=cfg.lstm_hidden, dropout=cfg.lstm_dropout,
            lr=cfg.lstm_lr, batch_size=cfg.lstm_batch_size, max_epochs=cfg.lstm_max_epochs,
            clip_norm=cfg.lstm_clip_norm, seed=cfg.seed,
        )
        model = lstm_train(
            windows[~val_mask], y[~val_mask], lstm_cfg,
            X_val=windows[val_mask] if val_mask.any() else None,
            y_val=y[val_mask] if val_mask.any() else None,
        )
        train_labels = [float(index.labels[s]) for s in meta["sessions"]]
        extra.update(
            window=meta["W"], overlap=meta["O"], q=meta["q"], pca_file=meta["pca_file"],
            train_mean=float(np.mean(train_labels)),
            val_sessions=sorted(val_sessions),
        )
    else:
        names, sids, X, y = _load_matrix(cfg, index, "train", require_labels=True)
        extra["feature_names"] = list(names)
        extra["train_mean"] = float(np.mean(y))
        if cfg.uses_relief():
            selected, info = _relief_select(cfg, names, X, y)
            X = X[:, selected]
            extra["relief"] = info
            sel_path = artifact_path(out_dir, "selection", cfg.modality)
            sel_path.write_text("\n".join(info["selected_names"]) + "\n", encoding="utf-8")
        if model_kind == "mean":
            model = mean_train(y)
        else:
            model = _make_regressor(cfg).fit(X, y).model

    path = artifact_path(out_dir, "model", cfg.modality)
    save_model(model, path, extra)
    logger.info("train %s (%s) done in %.2fs -> %s", cfg.modality, model_kind, time.monotonic() - t0, path)
    return path


# ---------------------------------------------------------------------------
# prediction + evaluation
# ---------------------------------------------------------------------------


def _predict_tabular(cfg: PipelineConfig, index, model, extra, split: str):
    names, sids, X, _ = _load_matrix(cfg, index, split, require_labels=False)
    if list(names) != extra.get("feature_names"):
        raise PipelineError(f"feature store for split {split} does not match the trained model's features")
    if "relief" in extra:
        keep = [names.index(n) for n in extra["relief"]["selected_names"]]
        X = X[:, keep]
    return sids, model.predict(X), {}


def _predict_visual(cfg: PipelineConfig, index, model, extra, split: str):
    windows, meta = load_windows(Path(cfg.out_dir), split)
    if meta["q"] != extra.get("q") or meta["W"] != extra.get("window"):
        raise PipelineError("window batch geometry does not match the trained model")
    per_window = model.predict(windows) if len(windows) else np.zeros(0)
    sids = sorted(meta["sessions"])
    preds, fallbacks = [], []
    win_sids = np.array(meta["session_ids"])
    for sid in sids:
        mine = per_window[win_sids == sid] if len(per_window) else np.zeros(0)
        if len(mine):
            preds.append(face.aggregate_predictions(mine))
        else:
            preds.append(extra["train_mean"])
            fallbacks.append(sid)
    counters = {f"n_windows_{split}": len(windows)}
    if fallbacks:
        logger.warning("%d %s sessions had no clean windows; used training-mean fallback: %s",
                       len(fallbacks), split, ", ".join(fallbacks))
        counters[f"{split}_fallback_sessions"] = ";".join(fallbacks)
    return sids, np.array(preds), counters


def _split_predictions(cfg: PipelineConfig, index, model, extra, split: str):
    if cfg.family() == "visual" and extra.get("q") is not None:
        return _predict_visual(cfg, index, model, extra, split)
    return _predict_tabular(cfg, index, model, extra, split)


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
        sids, preds, counters = _split_predictions(cfg, index, model, extra, split)
        if split == "dev" and not sids:
            raise PipelineError("empty dev split")
        missing = [sid for sid in sids if sid not in index.labels]
        if missing:
            raise PipelineError(f"unlabeled {split} sessions: {', '.join(missing)}")
        y = np.array([float(index.labels[sid]) for sid in sids])
        write_predictions(artifact_path(out_dir, "predictions", cfg.modality, split), sids, y, preds)
        rows[f"n_{split}"] = len(sids)
        rows.update(_metric_rows(split, y, preds, with_evs))
        rows.update(counters)
        all_y[split] = y

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
# cross-validation
# ---------------------------------------------------------------------------


def run_cv(cfg: PipelineConfig, scheme: str = "kfold") -> dict:
    """3-fold stratified CV or leave-one-sequence-out on the training split."""
    t0 = time.monotonic()
    index = scan_corpus(cfg.root)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.family() == "visual":
        if cfg.effective_model() != "lstm":
            raise PipelineError(f"the visual modality trains an lstm, not {cfg.effective_model()!r}")
        windows, meta = load_windows(out_dir, "train")
        sids_all = sorted(meta["sessions"])
        win_sids = np.array(meta["session_ids"])
    else:
        names, sids_all, X, _ = _load_matrix(cfg, index, "train", require_labels=True)

    unlabeled = [s for s in sids_all if s not in index.labels]
    if unlabeled:
        raise PipelineError(f"unlabeled train sessions: {', '.join(unlabeled)}")
    y_all = np.array([float(index.labels[s]) for s in sids_all])

    if scheme == "kfold":
        n_folds = 3
        if len(sids_all) < n_folds:
            raise PipelineError(f"{len(sids_all)} sessions is fewer than {n_folds} folds")
        fold_indices = relief.stratified_folds(relief.binarize_labels(y_all), n_folds, cfg.seed)
    elif scheme == "loso":
        fold_indices = [np.array([i]) for i in range(len(sids_all))]
    else:
        raise PipelineError(f"unknown CV scheme {scheme!r}; expected kfold or loso")

    all_rows = []
    rows: dict = {"modality": cfg.modality, "scheme": scheme, "seed": cfg.seed, "n_folds": len(fold_indices)}
    pooled_y, pooled_p = [], []
    for fold_no, test_idx in enumerate(fold_indices):
        test_ids = {sids_all[i] for i in test_idx}
        if cfg.family() == "visual":
            test_mask = np.array([s in test_ids for s in win_sids])
            y_win = np.array([float(index.labels[s]) for s in win_sids])
            if (~test_mask).sum() == 0 or len(windows[~test_mask]) == 0:
                raise PipelineError(f"fold {fold_no}: no training windows")
            lstm_cfg = LstmConfig(
                input_dim=windows.shape[2], hidden=cfg.lstm_hidden, dropout=cfg.lstm_dropout,
                lr=cfg.lstm_lr, batch_size=cfg.lstm_batch_size, max_epochs=cfg.lstm_max_epochs,
                clip_norm=cfg.lstm_clip_norm, seed=cfg.seed + fold_no,
            )
            model = lstm_train(windows[~test_mask], y_win[~test_mask], lstm_cfg)
            train_mean = float(np.mean(y_all[np.setdiff1d(np.arange(len(sids_all)), test_idx)]))
            preds = []
            for i in test_idx:
                mine = windows[win_sids == sids_all[i]]
                preds.append(face.aggregate_predictions(model.predict(mine)) if len(mine) else train_mean)
            preds = np.array(preds)
        else:
            train_idx = np.setdiff1d(np.arange(len(sids_all)), test_idx)
            Xtr, ytr = X[train_idx], y_all[train_idx]
            Xte = X[test_idx]
            if cfg.uses_relief():
                selected, _ = _relief_select(cfg, names, Xtr, ytr)
                Xtr, Xte = Xtr[:, selected], Xte[:, selected]
            if cfg.effective_model() == "mean":
                model = mean_train(ytr)
            else:
                model = _make_regressor(cfg).fit(Xtr, ytr).model
            preds = model.predict(Xte)

        y_fold = y_all[test_idx]
        for i, p in zip(test_idx, preds):
            all_rows.append((fold_no, sids_all[i], y_all[i], float(p)))
        pooled_y.extend(y_fold)
        pooled_p.extend(preds)
        rows[f"fold{fold_no}_n"] = len(test_idx)
        rows[f"fold{fold_no}_rmse"] = rmse_fn(y_fold, preds)
        rows[f"fold{fold_no}_mae"] = mae_fn(y_fold, preds)

    rows["pooled_rmse"] = rmse_fn(pooled_y, pooled_p)
    rows["pooled_mae"] = mae_fn(pooled_y, pooled_p)
    try:
        rows["pooled_evs"] = evs_fn(pooled_y, pooled_p)
    except MetricError:
        rows["pooled_evs"] = ""

    pred_path = artifact_path(out_dir, "cv_predictions", cfg.modality)
    lines = ["fold,session_id,y_true,y_pred"]
    lines += [f"{f},{sid},{repr(float(a))},{repr(float(b))}" for f, sid, a, b in all_rows]
    pred_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    txt = artifact_path(out_dir, "cv_report", cfg.modality)
    txt.write_text("\n".join([f"phqreg cv report: {run_tag(cfg.modality)} ({scheme})", ""] + [f"{k} = {v}" for k, v in rows.items()]) + "\n", encoding="utf-8")
    logger.info("cv %s (%s) done in %.2fs", cfg.modality, scheme, time.monotonic() - t0)
    return rows


# ---------------------------------------------------------------------------
# relief tuning entry point
# ---------------------------------------------------------------------------


def run_tune_relief(cfg: PipelineConfig) -> tuple[float, int]:
    """Grid-tune (threshold, k) by 3-fold CV on the training split."""
    index = scan_corpus(cfg.root)
    _, _, X, y = _load_matrix(cfg, index, "train", require_labels=True)
    th, k, scores = relief.tune_relief(
        X, y, lambda: _make_regressor(cfg), n_max=cfg.relief_n_max, seed=cfg.seed,
    )
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["threshold,k,mean_mae"]
    for (t, kk), v in sorted(scores.items()):
        lines.append(f"{t},{kk},{v}")
    lines.append(f"# chosen: threshold={th} k={k}")
    artifact_path(out_dir, "relief_tuning", cfg.modality).write_text("\n".join(lines) + "\n", encoding="utf-8")
    logger.info("relief tuning chose threshold=%g k=%d", th, k)
    return th, k
