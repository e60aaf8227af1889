"""Per-layer metrics from the spans of one traced recipe pass.

A layer is a module below ``phqreg``; a span name is ``<layer>:<qualname>``.
Self time is a span's duration minus the time its child spans cover (children
run one after another, so that is the sum of their durations).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

LAYERS = (
    "cli", "pipeline", "corpus", "audio", "face", "turns", "textfeats", "relief",
    "models.svr", "models.reptree", "models.lstm", "models", "synth",
)

# metric name -> span name whose summed self time it reports
SELF_TIME_SPANS = {
    "audio.frame_signal.self_s": "audio:frame_signal",
    "audio.spectral_llds.self_s": "audio:spectral_llds",
    "audio.prosodic_llds.self_s": "audio:prosodic_llds",
    "audio.voice_quality_llds.self_s": "audio:voice_quality_llds",
    "audio.add_derivatives.self_s": "audio:add_derivatives",
    "audio.apply_functionals.self_s": "audio:apply_functionals",
    "corpus.load_wav.self_s": "corpus:load_wav",
    "corpus.load_landmarks.self_s": "corpus:load_landmarks",
    "corpus.load_transcript.self_s": "corpus:load_transcript",
    "face.geometric_frames.self_s": "face:geometric_frames",
    "face.fit_pca.self_s": "face:fit_pca",
    "face.window_sequence.self_s": "face:window_sequence",
    "lstm.lstm_train.self_s": "models.lstm:lstm_train",
    "lstm.forward.self_s": "models.lstm:forward",
    "lstm.backward.self_s": "models.lstm:backward",
    "lstm.predict.self_s": "models.lstm:LstmModel.predict",
    "svr.svr_train.self_s": "models.svr:svr_train",
    "svr.kernel_matrix.self_s": "models.svr:kernel_matrix",
    "svr.predict.self_s": "models.svr:SvrModel.predict",
    "reptree.reptree_train.self_s": "models.reptree:reptree_train",
    "relief.relief_weights.self_s": "relief:relief_weights",
    "relief.tune_relief.self_s": "relief:tune_relief",
    "textfeats.fit.self_s": "textfeats:TextVectorizer.fit",
    "textfeats.transform.self_s": "textfeats:TextVectorizer.transform",
    "turns.behavioral_vector.self_s": "turns:behavioral_vector",
    "pipeline.read_feature_csv.self_s": "pipeline:read_feature_csv",
    "pipeline.write_feature_csv.self_s": "pipeline:write_feature_csv",
    "models.save_model.self_s": "models:save_model",
    "models.load_model.self_s": "models:load_model",
    "synth.gen_synthetic.self_s": "synth:gen_synthetic",
}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIB = 1024.0 * 1024.0


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it (50 when none has)."""
    return next((q for q in TAIL_PERCENTILES if n * (1.0 - q / 100.0) >= 10), 50.0)


def distribution(prefix: str, values, scale: float = 1.0) -> dict:
    """Median, tail percentile, which percentile the tail is, and the sample count."""
    n = len(values)
    q = tail_percentile(n)
    return {
        f"{prefix}.p50": percentile(values, 50.0) * scale if n else 0.0,
        f"{prefix}.ptail": percentile(values, q) * scale if n else 0.0,
        f"{prefix}.ptail_q": q,
        f"{prefix}.n": n,
    }


def self_times(spans) -> dict:
    covered = defaultdict(int)
    for span in spans:
        covered[span["parent"]] += span["end_ns"] - span["start_ns"]
    return {span["id"]: span["end_ns"] - span["start_ns"] - covered[span["id"]] for span in spans}


def layer_metrics(spans, verb_of_trace: dict) -> dict:
    """Per-layer metrics of one pass; ``verb_of_trace`` maps a trace id to its CLI verb."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_s(name: str) -> float:
        return sum(own[s["id"]] for s in by_name[name]) / 1e9

    def total(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in by_name[name])

    def trace_of(span) -> str:
        return span["id"].rsplit(".", 1)[0]

    m = {metric: self_s(name) for metric, name in SELF_TIME_SPANS.items()}

    # audio: per-session cost, frames, and how often a session is recomputed
    sessions = by_name["audio:session_acoustic_vector"]
    session_pairs = {(trace_of(s), s["session"]) for s in sessions}
    m.update(distribution("audio.session_s", [(s["end_ns"] - s["start_ns"]) / 1e9 for s in sessions]))
    m["audio.frames"] = total("audio:frame_signal", "frames")
    m["audio.session_calls_per_session"] = len(sessions) / len(session_pairs) if session_pairs else 0.0
    prosodic = by_name["audio:prosodic_llds"]
    m["audio.prosodic_llds.calls_per_session"] = len(prosodic) / len(session_pairs) if session_pairs else 0.0
    growth = defaultdict(int)
    for s in sessions:
        growth[trace_of(s)] += s["rss_kb_after"] - s["rss_kb_before"]
    m["audio.rss_growth_mb"] = max(growth.values(), default=0) / 1024.0

    for loader in ("load_wav", "load_landmarks"):
        name = f"corpus:{loader}"
        seconds = self_s(name)
        m[f"corpus.{loader}.mb_per_s"] = total(name, "bytes") / MIB / seconds if seconds else 0.0

    # face: frames, PCA size and window yield
    windows = by_name["face:window_sequence"]
    candidates = total("face:window_sequence", "candidates")
    m["face.frames"] = total("face:geometric_frames", "frames")
    m["face.pca_q"] = max((s["q"] for s in by_name["face:fit_pca"]), default=0)
    m["face.windows_kept"] = total("face:window_sequence", "kept")
    m["face.window_yield"] = m["face.windows_kept"] / candidates if candidates else 0.0
    m["face.sessions_without_windows"] = sum(1 for s in windows if s["kept"] == 0)

    # lstm: one step is a training forward plus the backward that follows it
    shipped = [s for s in by_name["models.lstm:lstm_train"] if verb_of_trace.get(trace_of(s)) == "train"]
    m["lstm.best_epoch"] = shipped[-1]["best_epoch"] if shipped else 0
    step_ms, last_forward = [], {}
    for span in spans:
        if span["name"] == "models.lstm:forward" and span["training"]:
            last_forward[span["parent"]] = span
        elif span["name"] == "models.lstm:backward" and span["parent"] in last_forward:
            step_ms.append((span["end_ns"] - last_forward.pop(span["parent"])["start_ns"]) / 1e6)
    m["lstm.steps"] = len(by_name["models.lstm:backward"])
    m.update(distribution("lstm.step_ms", step_ms))

    iters = total("models.svr:svr_train", "smo_iters")
    m["svr.smo_iters"] = iters
    m["svr.us_per_smo_iter"] = m["svr.svr_train.self_s"] * 1e6 / iters if iters else 0.0
    m["relief.relief_weights.calls"] = len(by_name["relief:relief_weights"])

    m["pipeline.feature_csv_mb"] = total("pipeline:write_feature_csv", "bytes") / MIB
    m["models.model_json_mb"] = total("models:save_model", "bytes") / MIB
    m["pipeline.self_s"] = sum(self_s(name) for name in by_name if name.startswith("pipeline:run_"))
    imports = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in by_name["cli:import"]]
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    m["cli.import_s.n"] = len(imports)

    per_layer = defaultdict(int)
    for span in spans:
        per_layer[layer_of(span["name"])] += own[span["id"]]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = per_layer[layer] / 1e9
    m["trace.spans"] = len(spans)
    return m


def missing_layers(spans, required) -> list[str]:
    seen = {layer_of(span["name"]) for span in spans}
    return [layer for layer in required if layer not in seen]
