#!/usr/bin/env python3
"""End-to-end benchmark of the phqreg CLI recipe.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tabular --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs a closed loop: each CLI verb starts only after the previous
verb exits, the way a researcher's script runs the recipe. A run synthesizes
the workload's corpus from ``--seed`` (several times, to time set-up), reads
it once and imports the package once to fill the page and bytecode caches,
then repeats the workload's recipe while another pass still fits in
``--seconds`` (at least one pass). Every pass starts from an empty output
directory, and every verb's outputs are checked and hashed right after it
exits. With ``--trace 1`` a plain reference pass is followed by passes whose
children record spans (see tracer.py); the result then holds the per-layer
metrics (see layers.py) instead of the end-to-end ones. NOTES.md describes
the workloads, the checks and every metric.

Workload definitions live in workloads.json. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5

PHASE_OF_VERB = {"extract": "extract_s", "train": "train_s", "tune-relief": "train_s", "eval": "eval_s", "cv": "cv_s"}
FEATURE_DIMS = {"acoustic:S": 864, "acoustic:P": 288, "acoustic:VQ": 288, "acoustic:M": 1440, "behavioral": 12}
RELIEF_MAX_FEATURES = 20


class BenchError(RuntimeError):
    """The benchmark cannot run: the corpus cannot be made or phqreg does not import."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(spec: dict) -> dict:
    env = dict(os.environ)
    env.update(spec["child_env"])
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, env, log_stem: Path) -> dict:
    """Run one child to completion; wall time, and CPU and peak RSS of that child alone (wait4)."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4; keeps Popen from waiting again
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "start_ns": int(start * 1e9),
        "end_ns": int((start + wall) * 1e9),
    }


def cli_command(cli_args, spans_path: Path | None, trace_id: str) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "phqreg.cli", *cli_args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), trace_id, *cli_args]


def last_line(path: str) -> str:
    lines = Path(path).read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(root: Path, pattern: str = "*") -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + sha256_file(path).encode())
    return digest.hexdigest()


def snapshot(out_dir: Path) -> dict:
    """(mtime, size, inode) per file, to tell which files a verb wrote."""
    stats = {p.name: p.stat() for p in out_dir.iterdir()}
    return {name: (st.st_mtime_ns, st.st_size, st.st_ino) for name, st in stats.items()}


# ---------------------------------------------------------------------------
# output checks, run right after each verb on the files that verb wrote
# ---------------------------------------------------------------------------


def only(names, prefix: str, suffix: str):
    hits = [n for n in names if n.startswith(prefix) and n.endswith(suffix)]
    return hits[0] if len(hits) == 1 else None


def read_key_values(path: Path, sep: str) -> dict:
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if sep in line:
            key, value = line.split(sep, 1)
            rows[key.strip()] = value.strip()
    return rows


def read_predictions(path: Path):
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line.strip()]
    y = np.array([float(r[-2]) for r in rows])
    yhat = np.array([float(r[-1]) for r in rows])
    return y, yhat


def rmse_mae(y, yhat) -> tuple[float, float]:
    return float(np.sqrt(np.mean((y - yhat) ** 2))), float(np.mean(np.abs(y - yhat)))


def expected_features(modality: str, out: Path):
    """Predicate on n_features_used, and its description."""
    if modality in FEATURE_DIMS:
        want = FEATURE_DIMS[modality]
        return (lambda n: n == want), str(want)
    if modality == "acoustic:M+FS":
        return (lambda n: 1 <= n <= RELIEF_MAX_FEATURES), f"1..{RELIEF_MAX_FEATURES}"
    if modality == "visual":
        want = json.loads((out / "visual_train_windows.json").read_text(encoding="utf-8"))["q"]
        return (lambda n: n == want), f"q={want}"
    store = out / f"features_{modality.replace(':', '_')}_train.csv"
    want = len(store.read_text(encoding="utf-8").split("\n", 1)[0].split(",")) - 1
    return (lambda n: n == want), f"{want} (vocabulary)"


def check_extract(modality: str, out: Path, written) -> list[str]:
    if modality == "visual":
        problems = []
        if "visual_pca.json" not in written:
            problems.append("visual_pca.json not written")
        for split in ("train", "dev"):
            npy, meta = f"visual_{split}_windows.npy", f"visual_{split}_windows.json"
            if npy not in written or meta not in written:
                problems.append(f"{split} window batch not written")
                continue
            shape = np.load(out / npy).shape
            info = json.loads((out / meta).read_text(encoding="utf-8"))
            if shape != (len(info["session_ids"]), info["W"], info["q"]):
                problems.append(f"{npy} shape {shape} disagrees with {meta}")
        return problems
    problems = []
    for split in ("train", "dev"):
        name = only(written, "features_", f"_{split}.csv")
        if name is None:
            problems.append(f"no {split} feature store written")
            continue
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        width = len(lines[0].split(",")) - 1
        if modality in FEATURE_DIMS and width != FEATURE_DIMS[modality]:
            problems.append(f"{name}: {width} features, expected {FEATURE_DIMS[modality]}")
        values = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
        if len(values) == 0 or not np.isfinite(values).all():
            problems.append(f"{name}: empty or non-finite")
    return problems


def check_eval(modality: str, out: Path, written, stats: dict) -> list[str]:
    report, preds = only(written, "report_", ".csv"), only(written, "predictions_", "_dev.csv")
    if report is None or preds is None:
        return [f"eval did not write exactly one report CSV and one dev predictions file: {sorted(written)}"]
    rows = read_key_values(out / report, ",")
    dev_rmse, dev_mae = float(rows["dev_rmse"]), float(rows["dev_mae"])
    problems = []
    if not math.isfinite(dev_rmse):
        problems.append(f"{report}: dev_rmse {dev_rmse} is not finite")
    rmse, mae = rmse_mae(*read_predictions(out / preds))
    if (rmse, mae) != (dev_rmse, dev_mae):
        problems.append(f"{report}: dev_rmse/dev_mae {dev_rmse}/{dev_mae} != {rmse}/{mae} recomputed from {preds}")
    accept, want = expected_features(modality, out)
    n_features = int(rows["n_features_used"])
    if not accept(n_features):
        problems.append(f"{report}: n_features_used {n_features}, expected {want}")
    stats["dev_rmse_ratio"] = dev_rmse / float(rows["dev_rmse_baseline"])
    return problems


def check_cv(out: Path, written) -> list[str]:
    report, preds = only(written, "cv_report_", ".txt"), only(written, "cv_predictions_", ".csv")
    if report is None or preds is None:
        return [f"cv did not write exactly one report and one predictions file: {sorted(written)}"]
    pooled = float(read_key_values(out / report, " = ")["pooled_rmse"])
    rmse, _ = rmse_mae(*read_predictions(out / preds))
    if not math.isfinite(pooled) or pooled != rmse:
        return [f"{report}: pooled_rmse {pooled} != {rmse} recomputed from {preds}"]
    return []


def check_outputs(verb: str, modality: str, out: Path, written, stats: dict) -> list[str]:
    if verb == "extract":
        return check_extract(modality, out, written)
    if verb == "eval":
        return check_eval(modality, out, written, stats)
    if verb == "cv":
        return check_cv(out, written)
    if verb == "train":
        return [] if only(written, "model_", ".json") else ["train wrote no model file"]
    if verb == "tune-relief":
        grid = only(written, "relief_tuning_", ".csv")
        if grid is None or "# chosen:" not in (out / grid).read_text(encoding="utf-8"):
            return ["tune-relief wrote no chosen grid point"]
        return []
    return [f"unknown verb {verb!r}"]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, spec: dict, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.defn = spec["workloads"][name]
        self.env = child_env(spec)
        self.corpus, self.out, self.logs = work / "corpus", work / "out", work / "logs"
        self.spans_dir = work / "spans"

    def child(self, cli_args, traced: bool, trace_id: str) -> dict:
        spans_path = self.spans_dir / f"{trace_id}.jsonl" if traced else None
        return run_child(cli_command(cli_args, spans_path, trace_id), self.env, self.logs / trace_id)

    def setup(self, repeats: int, traced: bool) -> tuple[list[dict], list[str]]:
        """Synthesize the corpus ``repeats`` times; every copy must be byte-identical."""
        ini = self.work / "synth.ini"
        lines = ["[run]", f"seed = {self.seed}", "[synth]"] + [f"{k} = {v}" for k, v in self.defn["synth"].items()]
        ini.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records, digests = [], []
        for i in range(repeats):
            shutil.rmtree(self.corpus, ignore_errors=True)
            rec = self.child(["synth", "--config", str(ini), "--corpus", str(self.corpus)], traced, f"setup{i}")
            if rec["rc"] != 0:
                raise BenchError(f"synth failed (exit {rec['rc']}): {last_line(str(self.logs / f'setup{i}') + '.err')}")
            records.append(rec)
            digests.append(tree_digest(self.corpus))  # reading every file also warms the page cache
        problems = [] if len(set(digests)) == 1 else ["synth is not deterministic: corpus digests differ"]
        return records, problems

    def warm_up(self) -> None:
        """Fill the bytecode cache: a child that imports every phqreg module."""
        rec = self.child(["show-config"], False, "warmup")
        if rec["rc"] != 0:
            raise BenchError(f"phqreg does not import: {last_line(str(self.logs / 'warmup') + '.err')}")

    def run_pass(self, index: int, traced: bool) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        verbs = []
        for v, step in enumerate(self.defn["recipe"]):
            verb, modality, *extra = step.split()
            cli_args = [verb, "--corpus", str(self.corpus), "--out", str(self.out),
                        "--modality", modality, "--seed", str(self.seed), *extra]
            before = snapshot(self.out)
            trace_id = f"p{index}.v{v}"
            rec = self.child(cli_args, traced, trace_id)
            after = snapshot(self.out)
            written = sorted(n for n in after if before.get(n) != after[n])
            rec.update(step=step, verb=verb, trace_id=trace_id,
                       artifacts={n: sha256_file(self.out / n) for n in written})
            if rec["rc"] != 0:
                rec["problems"] = [f"exit code {rec['rc']}: {last_line(str(self.logs / trace_id) + '.err')}"]
            else:
                try:
                    rec["problems"] = check_outputs(verb, modality, self.out, written, rec)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    rec["problems"] = [f"output check raised {type(exc).__name__}: {exc}"]
            verbs.append(rec)
        return {"index": index, "verbs": verbs, "metrics": pass_metrics(verbs)}

    def read_spans(self, pass_record: dict) -> list[dict]:
        spans = []
        for rec in pass_record["verbs"]:
            path = self.spans_dir / f"{rec['trace_id']}.jsonl"
            if path.is_file():
                spans += [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        return spans


def pass_metrics(verbs) -> dict:
    m = {"recipe_s": sum(r["wall_s"] for r in verbs), "recipe_cpu_s": sum(r["cpu_s"] for r in verbs)}
    for phase in sorted(set(PHASE_OF_VERB.values())):
        m[phase] = sum(r["wall_s"] for r in verbs if PHASE_OF_VERB.get(r["verb"]) == phase)
    m["peak_rss_mb"] = max(r["rss_mb"] for r in verbs)
    ratios = [r["dev_rmse_ratio"] for r in verbs if "dev_rmse_ratio" in r]
    m["dev_rmse_ratio"] = statistics.fmean(ratios) if ratios else 0.0  # 0: the recipe evaluates no model
    return m


def median_metrics(dicts) -> dict:
    keys = set().union(*dicts)
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in sorted(keys)}


def artifact_table(passes) -> dict:
    return {f"{r['trace_id'].split('.')[1]} {r['step']} {name}": digest
            for r in passes[0]["verbs"] for name, digest in r["artifacts"].items()}


def compare_artifacts(passes, key_path: Path) -> list[str]:
    """Every pass must write the same bytes, and so must an earlier run of the same code and seed."""
    first = artifact_table(passes)
    problems = [f"pass {p['index']} wrote different artifacts than pass {passes[0]['index']}"
                for p in passes[1:] if artifact_table([p]) != first]
    if key_path.is_file():
        earlier = json.loads(key_path.read_text(encoding="utf-8"))
        differ = sorted(k for k in set(earlier) | set(first) if earlier.get(k) != first.get(k))
        if differ:
            problems.append(f"artifacts differ from an earlier run of the same code and seed: {differ[:5]}")
    else:
        key_path.parent.mkdir(parents=True, exist_ok=True)
        key_path.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return problems


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    for d in ("logs", "spans"):
        (work / d).mkdir(parents=True)
    wl = Workload(spec, name, seed, work)

    setups, problems = wl.setup(1 if trace else SETUP_REPEATS, trace)
    wl.warm_up()

    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and bool(passes)  # in a traced run the first pass is the untraced reference
        passes.append(wl.run_pass(len(passes), traced))
        last = passes[-1]["metrics"]["recipe_s"]
        if (not trace or len(passes) > 1) and time.perf_counter() - start + last > seconds:
            break

    verbs = [r for p in passes for r in p["verbs"]]
    for r in verbs:
        problems += [f"pass {r['trace_id']} `{r['step']}`: {msg}" for msg in r["problems"]]
    failed = sum(1 for r in verbs if r["problems"])
    attempted = len(verbs) + len(setups)  # a failed set-up stops the run (BenchError)

    key = hashlib.sha256(f"{tree_digest(SRC, '*.py')} {name} {seed}".encode()
                         + (BENCH_DIR / "workloads.json").read_bytes()).hexdigest()[:24]
    problems += compare_artifacts(passes, WORK / "artifacts" / f"{name}-seed{seed}-{key}.json")

    if trace:
        values, spans = traced_metrics(wl, passes, name, problems)
        (work / "spans.jsonl").write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
    else:
        values = median_metrics([p["metrics"] for p in passes])
        values["setup_s"] = statistics.median(r["wall_s"] for r in setups)
        values["op_ok_ratio"] = (attempted - failed) / attempted
    metrics = {}
    for m in spec["metrics"]["per_layer" if trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {m['name']} could not be measured")
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    result = {
        "workload": name, "seed": seed, "trace": int(trace), "passes": len(passes),
        "artifacts_sha256": hashlib.sha256(json.dumps(artifact_table(passes), sort_keys=True).encode()).hexdigest(),
        "problems": problems, "metrics": metrics, "phases": median_metrics([p["metrics"] for p in passes]),
        "verbs": [{k: r[k] for k in ("trace_id", "step", "rc", "wall_s", "cpu_s", "rss_mb", "problems")} for r in verbs],
        "setup": [{k: r[k] for k in ("wall_s", "cpu_s", "rss_mb")} for r in setups],
        "child_env": spec["child_env"],
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics, "detail": result}


def traced_metrics(wl: Workload, passes, name: str, problems: list) -> tuple[dict, list]:
    """Per-layer metrics: median over traced passes, plus the tracing overhead."""
    setup_spans = [json.loads(line) for path in sorted(wl.spans_dir.glob("setup*.jsonl"))
                   for line in path.read_text(encoding="utf-8").splitlines()]
    per_pass, all_spans = [], list(setup_spans)
    for p in passes[1:]:
        spans = wl.read_spans(p)
        all_spans += spans
        verb_of_trace = {r["trace_id"]: r["verb"] for r in p["verbs"]}
        missing = layers.missing_layers(spans + setup_spans, wl.defn["layers"])
        if missing:
            problems.append(f"traced pass {p['index']}: no span from layer(s) {', '.join(missing)} on {name}")
        per_pass.append(layers.layer_metrics(spans + setup_spans, verb_of_trace))
        all_spans += [{"id": r["trace_id"], "parent": f"p{p['index']}", "name": f"bench:{r['step']}",
                       "start_ns": r["start_ns"], "end_ns": r["end_ns"]} for r in p["verbs"]]
    metrics = median_metrics(per_pass)
    for phase in ("extract_s", "train_s", "eval_s", "cv_s"):
        metrics[f"phase.{phase}"] = passes[0]["metrics"][phase]
    metrics["quality.dev_rmse_ratio"] = passes[0]["metrics"]["dev_rmse_ratio"]
    traced = statistics.median(p["metrics"]["recipe_s"] for p in passes[1:])
    metrics["trace.recipe_s"] = traced
    metrics["trace.untraced_recipe_s"] = passes[0]["metrics"]["recipe_s"]
    metrics["trace.overhead_s"] = traced - passes[0]["metrics"]["recipe_s"]
    return metrics, all_spans


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def print_metrics(name: str, metrics: dict) -> None:
    for key, m in metrics.items():
        print(f"{name:<11} {key:<42} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the running child is killed

    if not (SRC / "phqreg" / "cli.py").is_file():
        print(f"perfbench: no phqreg sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    spec["metrics"] = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in spec["workloads"] for n in names):
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(spec['workloads'])} or 'all'")

    results = {}
    for name in names:
        try:
            res = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        detail = res.pop("detail")
        for msg in detail["problems"]:
            print(f"FAIL {name}: {msg}", file=sys.stderr)
        for r in detail["verbs"]:
            print(f"{name:<11} {r['trace_id']:<7} {r['wall_s']:8.3f} s {r['cpu_s']:8.3f} cpu-s "
                  f"{r['rss_mb']:8.1f} MB  {'ok' if not r['problems'] else 'FAIL'}  {r['step']}")
        print(f"{name:<11} artifacts_sha256 {detail['artifacts_sha256']} ({detail['passes']} passes)")
        print(f"{name:<11} phase seconds (median over passes): "
              + ", ".join(f"{k} {detail['phases'][k]:.3f}" for k in ("extract_s", "train_s", "eval_s", "cv_s")))
        print_metrics(name, res["metrics"])
        results[name] = res

    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
