import ast
import configparser
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import phqreg
import phqreg.models
from phqreg.cli import main
from phqreg.config import _LAYOUT, ConfigError, PipelineConfig, config_text, load_config
from phqreg.metrics import mae, rmse
from phqreg.pipeline import (
    PipelineError,
    Sessions,
    fit_predictor,
    predict_sessions,
    read_feature_csv,
    run_cv,
    run_eval,
    run_extract,
    run_train,
    run_tune_relief,
    scan_corpus,
    write_feature_csv,
)
from phqreg.synth import SynthSpec, gen_synthetic


@pytest.mark.parametrize("module", [phqreg, phqreg.models], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _public_definitions(scope, prefix=""):
    """(qualified name, node) of the public functions, classes and methods defined in ``scope``."""
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _public_definitions(node, f"{prefix}{node.name}.")


def _src_trees() -> dict:
    """Module path below src/phqreg -> its parsed source."""
    src = Path(phqreg.__file__).parent
    return {p.relative_to(src).as_posix(): ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.rglob("*.py"))}


def test_every_public_definition_is_used_in_src():
    """A public name that no code under src/phqreg reads serves only the tests; it belongs in them."""
    trees = _src_trees()
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(node)
    unused = []
    for path, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if node.name not in phqreg.__all__ and all(id(n) in own for n in uses.get(node.name, [])):
                unused.append(f"{path} {qualname}")
    assert unused == []


def _callee(func) -> str | None:
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_every_defaulted_parameter_is_passed_in_src():
    """A default that no call under src/phqreg overrides is a fixed value; it belongs in a module constant.

    A call passes a parameter by position or by keyword; ``partial(fn, ...)``
    counts as a call to ``fn``, and a ``*args`` or ``**kwargs`` call passes
    everything. ``cli.main(argv)`` is the entry point: its None means sys.argv.
    """
    trees = _src_trees()
    passed = {}  # callee name -> argument positions and keywords some call passes
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name, args = _callee(call.func), call.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            seen = passed.setdefault(name, set())
            seen.update(range(len(args)), (kw.arg for kw in call.keywords))
            if any(isinstance(a, ast.Starred) for a in args) or None in seen:
                seen.add("*")
    unpassed = []
    for path, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            seen = passed.get(fn.name, set())
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = list(enumerate(positional))[len(positional) - len(fn.args.defaults):]
            defaulted += [(None, a) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            unpassed += [
                f"{path} {fn.name}({a.arg})" for i, a in defaulted if "*" not in seen and not {i, a.arg} & seen
            ]
    assert unpassed == ["cli.py main(argv)"]


def _writes_a_path(call, handles) -> bool:
    """Whether ``call`` writes a file by its path rather than into a file object of corpus.whole_file.

    ``handles`` are the names that ``with whole_file(...) as name`` binds in
    the calling scope. An ``open`` writes when its mode holds w, a, x or +,
    or when its mode is not a constant.
    """
    name, args = _callee(call.func), call.args
    if args and isinstance(args[0], ast.Name) and args[0].id in handles:
        return False
    if name in ("write_text", "write_bytes", "save", "savez", "savez_compressed", "savetxt", "tofile"):
        return True
    if name != "open":
        return False
    modes = [a for a in args if isinstance(a, ast.Constant) and re.fullmatch(r"[rwaxbt+]+", str(a.value))]
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def test_only_corpus_whole_file_writes_a_path():
    """Every file phqreg writes goes through corpus.whole_file, so it appears whole or not at all."""
    writes = set()
    for path, tree in _src_trees().items():
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        writer = {id(n) for f in functions if (path, f.name) == ("corpus.py", "whole_file") for n in ast.walk(f)}
        for scope in [tree, *functions]:
            handles = {
                item.optional_vars.id
                for node in ast.walk(scope) if isinstance(node, ast.With)
                for item in node.items
                if _callee(getattr(item.context_expr, "func", None)) == "whole_file"
                and isinstance(item.optional_vars, ast.Name)
            }
            writes.update(
                f"{path}:{call.lineno} {ast.unparse(call.func)}"
                for call in ast.walk(scope)
                if isinstance(call, ast.Call) and id(call) not in writer and _writes_a_path(call, handles)
            )
    assert sorted(writes) == []


def read_predictions(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Session ids, labels and predictions of a ``predictions_*.csv`` file."""
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


def cfg_for(root, out, **kw):
    over = {"root": str(root), "out_dir": str(out), "seed": 7}
    over.update(kw)
    return load_config(None, over)


def synth_config(path, **synth) -> str:
    """Write ``synth`` as the ``[synth]`` keys of an INI file; returns its path for ``--config``."""
    Path(path).write_text("[synth]\n" + "".join(f"{k} = {v}\n" for k, v in synth.items()), encoding="utf-8")
    return str(path)


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def report_selection(path) -> list[str]:
    """The feature names under ``[selected features]`` of a ``report_*.txt``; [] without the section."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if "[selected features]" not in lines:
        return []
    section = lines[lines.index("[selected features]") + 1 :]
    return section[: section.index("")]


class TestConfig:
    def test_show_config_prints_all_sections(self, capsys):
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        sections = [line for line in out.splitlines() if line.startswith("[")]
        assert sections == ["[corpus]", "[run]", "[lstm]", "[relief]", "[text]", "[synth]"]

    def test_ini_roundtrip_and_overrides(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[run]\nmodality = text:BOOL\nseed = 3\n[relief]\nk = 7\n", encoding="utf-8")
        cfg = load_config(ini, {"out_dir": "zzz"})
        assert cfg.modality == "text:BOOL"
        assert cfg.seed == 3
        assert cfg.relief_k == 7
        assert cfg.out_dir == "zzz"
        # render -> reparse is stable
        ini2 = tmp_path / "c2.ini"
        ini2.write_text(config_text(cfg), encoding="utf-8")
        cfg2 = load_config(ini2)
        assert cfg2.modality == cfg.modality and cfg2.relief_k == cfg.relief_k

    def test_every_field_roundtrips(self, tmp_path):
        changed = {}
        for f in fields(PipelineConfig):
            value = getattr(PipelineConfig(), f.name)
            if isinstance(value, (int, float)) or value is None:
                changed[f.name] = (value or 0) + 3
            else:
                changed[f.name] = value + "x"
        cfg = PipelineConfig(**changed)
        assert all(getattr(cfg, name) != getattr(PipelineConfig(), name) for name in changed)
        ini = tmp_path / "all.ini"
        ini.write_text(config_text(cfg), encoding="utf-8")
        assert load_config(ini) == cfg

    @pytest.mark.parametrize("section,key", [
        ("svr", "kernel"), ("svr", "c"), ("svr", "gamma"), ("svr", "epsilon"), ("svr", "tol"),
        ("reptree", "min_leaf"), ("reptree", "prune_fraction"),
        ("lstm", "hidden"), ("lstm", "dropout"), ("lstm", "lr"), ("lstm", "batch_size"),
        ("lstm", "clip_norm"), ("lstm", "val_fraction"),
        ("visual", "window"), ("visual", "overlap"), ("visual", "variance_keep"),
        ("relief", "n_max"), ("relief", "tune"), ("run", "model"),
    ])
    def test_fixed_hyperparameter_keys_rejected(self, tmp_path, section, key):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[{section}]\n{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"unknown option \[{section}\] {key}$"):
            load_config(ini)

    def test_removed_key_fails_on_the_command_line(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[run]\nseed = 3\n[svr]\nc = 2.5\n", encoding="utf-8")
        assert main(["train", "--config", str(ini), "--corpus", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"ERROR {ini}: unknown option [svr] c\n"
        # the modality picks the learner: there is no flag to name another one
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "svr", "--corpus", str(tmp_path), "--seed", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("section,key,raw", [("relief", "k", "ten"), ("run", "seed", "1.5"),
                                                 ("relief", "threshold", "high")])
    def test_bad_value_names_its_option(self, tmp_path, section, key, raw):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{ini}: \[{section}\] {key}: .*{raw}"):
            load_config(ini)

    def test_percent_in_value_is_literal(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[text]\nembeddings = /data/100%/vectors.txt\n", encoding="utf-8")
        assert load_config(ini).text_embeddings == "/data/100%/vectors.txt"
        assert main(["show-config", "--config", str(ini)]) == 0
        assert "embeddings = /data/100%/vectors.txt\n" in capsys.readouterr().out

    def test_show_config_output_reads_back_byte_for_byte(self, tmp_path, capsys):
        assert main(["show-config"]) == 0
        ini = tmp_path / "run.ini"
        ini.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["show-config", "--config", str(ini)]) == 0
        assert capsys.readouterr().out == ini.read_text(encoding="utf-8")

    def test_readme_key_list_matches_the_config_layout(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("The keys are:\n\n", 1)[1].split("\n\n", 1)[0]
        listed = []
        for item in block.split("\n- "):
            section, keys = re.match(r"-? ?`\[(\w+)\]`(.*)", item, re.S).groups()
            listed += [(section, key) for key in re.findall(r"`(\w+)`", keys)]
        assert listed == list(_LAYOUT.values())

    def test_synth_keys_mirror_synth_spec(self):
        ini = configparser.ConfigParser(interpolation=None)
        ini.read_string(config_text(PipelineConfig()))
        assert set(ini["synth"]) == {f.name for f in fields(SynthSpec)}
        for f in fields(SynthSpec):
            want = " ".join(f.default) if f.name == "modalities" else f.default
            assert ini["synth"][f.name] == str(want), f.name

    def test_section_names_are_case_sensitive(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[RUN]\nseed = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"unknown option \[RUN\] seed"):
            load_config(ini)

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[run]\nmodalityy = behavioral\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown option"):
            load_config(ini)

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            PipelineConfig().validate()

    def test_bad_modality(self):
        with pytest.raises(ConfigError, match="modality"):
            load_config(None, {"modality": "video", "seed": 1}).validate()

    def test_pairing_defaults(self):
        """Each family trains the paper's learner; the acoustic:S, text:BOOL and visual runs check theirs too."""
        rng = np.random.default_rng(0)
        sids = [f"s{i}" for i in range(12)]
        data = Sessions("train", sids, rng.uniform(0, 24, size=12), rng.normal(size=(12, 3)), np.array(sids),
                        ("a", "b", "c"))
        want = {"behavioral": ("reptree", None), "acoustic:M": ("svr", "rbf"), "text:WE": ("svr", "linear")}
        for modality, (kind, kernel) in want.items():
            model, _ = fit_predictor(load_config(None, {"modality": modality, "seed": 1}), data)
            assert (model.kind, getattr(model, "kernel", None)) == (kind, kernel), modality


class StubModel:
    """A model whose prediction of a row is its first value."""

    def __init__(self, kind):
        self.kind = kind

    def predict(self, X):
        return X.reshape(len(X), -1)[:, 0]


def store_sessions(split, sids, rows, names=("a", "b")) -> Sessions:
    """A feature store's form: one row per session, each owning its row."""
    return Sessions(split, list(sids), np.arange(len(sids), dtype=float), np.asarray(rows, dtype=float),
                    np.array(sids), names)


def window_sessions(split, sids, counts, W=2, q=1) -> Sessions:
    """A window batch's form: ``counts[i]`` windows of session i, each filled with i, that session's label."""
    owner = np.array([sid for sid, n in zip(sids, counts) for _ in range(n)], dtype=str)
    rows = np.concatenate([np.full((n, W, q), float(i)) for i, n in enumerate(counts)])
    return Sessions(split, list(sids), np.arange(len(sids), dtype=float), rows, owner)


class TestSessions:
    @staticmethod
    def _score_windows(preds: dict):
        """Score sessions whose windows' predictions are ``preds[sid]``, one window a row."""
        owner = np.array([sid for sid, p in preds.items() for _ in p])
        rows = np.concatenate(list(preds.values())).reshape(-1, 1, 1)
        data = Sessions("dev", list(preds), np.zeros(len(preds)), rows, owner)
        return predict_sessions(StubModel("lstm"), {"window": 1, "q": 1, "train_mean": 9.0}, data)

    def test_a_session_scores_the_mean_of_its_rows(self):
        got, counters = self._score_windows({"a": np.array([4.0, 6.0]), "b": np.array([1.0, 2.0, 6.0])})
        assert got.tolist() == [5.0, 3.0]
        assert counters == {"n_windows_dev": 5}

    def test_a_session_mean_matches_brute_force(self):
        rng = np.random.default_rng(16)
        preds = {"a": rng.normal(0, 5, 100), "b": np.array([4.0, 6.0]), "c": rng.normal(0, 5, 7)}
        got, counters = self._score_windows(preds)
        assert got[1] == 5.0
        for value, p in zip(got, preds.values()):
            assert value == pytest.approx(sum(float(x) for x in p) / len(p), abs=1e-12)
        assert counters == {"n_windows_dev": 109}

    def test_a_one_row_session_scores_its_row_exactly(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(0, 5, size=(9, 2)) / 3.0
        data = store_sessions("dev", [f"s{i}" for i in range(9)], rows)
        got, counters = predict_sessions(StubModel("svr"), {"feature_names": ["a", "b"], "train_mean": 9.0}, data)
        assert got.tobytes() == rows[:, 0].tobytes()
        assert counters == {}

    def test_a_session_without_rows_scores_the_training_mean(self, caplog):
        data = window_sessions("dev", ["a", "b", "c", "d"], [2, 0, 1, 0])
        got, counters = predict_sessions(StubModel("lstm"), {"window": 2, "q": 1, "train_mean": 7.25}, data)
        assert got.tolist() == [0.0, 7.25, 2.0, 7.25]
        assert counters == {"n_windows_dev": 3, "dev_fallback_sessions": "b;d"}
        assert "b, d" in caplog.text

    @pytest.mark.parametrize("form", ["store", "windows"])
    def test_subset_keeps_rows_and_labels_aligned(self, form):
        sids = [f"s{i}" for i in range(6)]
        if form == "store":
            data = store_sessions("train", sids, [[float(i), -1.0] for i in range(6)])
        else:
            data = window_sessions("train", sids, [1, 3, 0, 2, 1, 2])
        for idx in ([4, 1, 3], [0, 2, 5], [2]):
            sub = data.subset(np.array(idx))
            assert sub.sids == [sids[i] for i in idx] and sub.y.tolist() == [float(i) for i in idx]
            label = dict(zip(sub.sids, sub.y))
            # each kept row still holds its session's value, and every row of a kept session is kept
            assert [row.flat[0] for row in sub.rows] == [label[sid] for sid in sub.owner.tolist()]
            assert len(sub.rows) == len(sub.owner) == np.isin(data.owner, sub.sids).sum()
            assert sub.names == data.names


class TestSynth:
    def test_default_split_counts(self):
        spec = SynthSpec()
        assert spec.n_train == 107 and spec.n_dev == 35
        assert round(107 * spec.depressed_fraction_train) == 30

    def test_same_seed_byte_identical(self, tmp_path):
        spec = SynthSpec(n_train=4, n_dev=2, modalities=("transcript", "audio", "landmarks"), turn_pairs=6)
        gen_synthetic(spec, tmp_path / "a", seed=5)
        gen_synthetic(spec, tmp_path / "b", seed=5)
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert sha(tmp_path / "a" / rel) == sha(tmp_path / "b" / rel), rel

    def test_depressed_fractions_planted(self, small_corpus):
        index = scan_corpus(small_corpus)
        train_dep = sum(index.labels[s] >= 10 for s in index.ids["train"])
        assert train_dep == round(30 * 0.28)

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            SynthSpec(modalities=("video",))
        with pytest.raises(ValueError):
            SynthSpec(turn_pairs=1)
        bad_specs = [
            {"audio_rate": 0}, {"audio_rate": -8000}, {"landmark_fps": -2}, {"landmark_fps": 0},
            {"fail_prob": 1.5}, {"fail_prob": -0.1},
        ]
        for i, bad in enumerate(bad_specs):
            with pytest.raises(ValueError):
                SynthSpec(**bad)
            # refused before synth writes anything
            ini = synth_config(tmp_path / f"bad{i}.ini", n_train=2, n_dev=1, **bad)
            root = tmp_path / f"corpus{i}"
            assert main(["synth", "--config", ini, "--corpus", str(root), "--seed", "1"]) == 2, bad
            assert capsys.readouterr().err.startswith("ERROR ")
            assert not root.exists()


class TestExtract:
    def test_behavioral_dims_and_rerun_identical(self, small_corpus, tmp_path):
        cfg = cfg_for(small_corpus, tmp_path / "out", modality="behavioral")
        paths = run_extract(cfg)
        names, rows = read_feature_csv(paths[0])
        assert len(names) == 12
        assert len(rows) == 30
        before = [sha(p) for p in paths]
        paths2 = run_extract(cfg)
        assert [sha(p) for p in paths2] == before

    def test_a_store_that_fails_part_way_is_not_written(self, tmp_path):
        """A row that float() refuses, after the header and an earlier row: the old store or none, and no temporary file."""
        kept, fresh = tmp_path / "features_kept.csv", tmp_path / "features_fresh.csv"
        write_feature_csv(kept, ("a", "b"), {"1001": [1.0, 2.0]})
        before = kept.read_bytes()
        for path in (kept, fresh):
            with pytest.raises(ValueError):
                write_feature_csv(path, ("a", "b"), {"1001": [3.0, 4.0], "1002": [5.0, "not a number"]})
        assert kept.read_bytes() == before
        assert not fresh.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["features_kept.csv"]

    def test_text_bool_and_tfidf(self, small_corpus, tmp_path):
        for variant in ("text:BOOL", "text:TFIDF"):
            cfg = cfg_for(small_corpus, tmp_path / "out", modality=variant)
            paths = run_extract(cfg)
            names, rows = read_feature_csv(paths[0])
            mat = np.array(list(rows.values()))
            if variant == "text:BOOL":
                assert set(np.unique(mat)) <= {0.0, 1.0}
            else:
                assert np.all(mat >= 0.0)

    def test_text_we_with_bundled_table(self, small_corpus, tmp_path):
        emb = tmp_path / "emb.txt"
        words = ["i", "think", "tired", "sad", "good", "fine", "well", "today"]
        rng = np.random.default_rng(0)
        emb.write_text(
            "\n".join(w + " " + " ".join(repr(float(v)) for v in rng.normal(size=4)) for w in words) + "\n",
            encoding="utf-8",
        )
        cfg = cfg_for(small_corpus, tmp_path / "out_we", modality="text:WE")
        cfg.text_embeddings = str(emb)
        paths = run_extract(cfg)
        names, rows = read_feature_csv(paths[0])
        assert len(names) == 4

    def test_missing_modality_sessions_skipped(self, small_corpus, tmp_path, caplog):
        cfg = cfg_for(small_corpus, tmp_path / "out_skip", modality="acoustic:S")
        with caplog.at_level("WARNING"):
            with pytest.raises(PipelineError):  # no session has audio at all
                run_extract(cfg)
        first = scan_corpus(small_corpus).ids["train"][0]
        assert f"skipping {first}: missing audio" in [r.getMessage() for r in caplog.records]

    def test_key_error_in_a_describer_fails_the_run(self, small_corpus, tmp_path, monkeypatch):
        """Only a missing file or an EmptyInputError skips a session; a KeyError from feature code stops extract."""
        from phqreg import turns

        def broken(session_turns):
            raise KeyError("bug in feature code")

        monkeypatch.setattr(turns, "behavioral_vector", broken)
        out = tmp_path / "out"
        with pytest.raises(KeyError, match="bug in feature code"):
            run_extract(cfg_for(small_corpus, out, modality="behavioral"))
        assert not out.exists()

    def test_acoustic_dims(self, full_corpus, tmp_path):
        cfg = cfg_for(full_corpus, tmp_path / "out_ac", modality="acoustic:M")
        paths = run_extract(cfg)
        names, rows = read_feature_csv(paths[0])
        assert len(names) == 1440
        assert len(rows) == 6

    def test_lld_value_error_is_not_a_skipped_session(self, full_corpus, tmp_path, monkeypatch):
        from phqreg import audio

        def broken(frames, previous=None):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(audio, "spectral_llds", broken)
        cfg = cfg_for(full_corpus, tmp_path / "out_broken", modality="acoustic:S")
        with pytest.raises(ValueError, match="broadcast"):
            run_extract(cfg)

    def test_acoustic_group_train_eval(self, full_corpus, tmp_path):
        out = tmp_path / "out_s"
        cfg = cfg_for(full_corpus, out, modality="acoustic:S")
        run_extract(cfg)
        run_train(cfg)
        model = json.loads((out / "model_acoustic_S.json").read_text())
        assert model["kind"] == "svr"
        assert model["model"]["kernel"] == "rbf"
        assert model["model"]["gamma"] == 0.01 and model["model"]["C"] == 1.0
        rows = run_eval(cfg)
        assert rows["n_features_used"] == 864
        assert np.isfinite(rows["dev_mae"])
        report = dict(line.split(",") for line in (out / "report_acoustic_S.csv").read_text().splitlines()[1:])
        assert int(report["smo_iters"]) == model["model"]["n_iter"] > 0
        assert float(report["smo_kkt_gap"]) == model["model"]["kkt_gap"] <= 1e-3
        # dual variables strictly inside the box (0, C), counted from the model file
        z = np.array(model["model"]["alpha"] + model["model"]["alpha_star"])
        assert int(report["smo_free_sv"]) == rows["smo_free_sv"] == np.sum((z > 0) & (z < model["model"]["C"]))
        assert "smo_free_sv = " in (out / "report_acoustic_S.txt").read_text()

    def test_visual_extraction_artifacts(self, full_corpus, tmp_path):
        out = tmp_path / "out_vis"
        cfg = cfg_for(full_corpus, out, modality="visual")
        run_extract(cfg)
        pca = json.loads((out / "visual_pca.json").read_text())
        assert pca["explained_ratio"] >= 0.995
        meta = json.loads((out / "visual_train_windows.json").read_text())
        windows = np.load(out / "visual_train_windows.npy")
        assert windows.shape[1] == 60
        assert windows.shape[2] == meta["q"]
        assert len(meta["session_ids"]) == len(windows)
        # the keys load_windows reads, and no others
        for split in ("train", "dev"):
            assert set(json.loads((out / f"visual_{split}_windows.json").read_text())) == {"W", "q", "session_ids", "sessions"}


@pytest.fixture(scope="module")
def behavioral_run(small_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("behavioral_out")
    cfg = cfg_for(small_corpus, out, modality="behavioral")
    run_extract(cfg)
    run_train(cfg)
    rows = run_eval(cfg)
    return cfg, out, rows


class TestTrainEval:
    def test_report_metrics_recomputable_from_predictions(self, behavioral_run):
        cfg, out, rows = behavioral_run
        _, y, yhat = read_predictions(out / "predictions_behavioral_dev.csv")
        assert rows["dev_rmse"] == pytest.approx(rmse(y, yhat), abs=1e-12)
        assert rows["dev_mae"] == pytest.approx(mae(y, yhat), abs=1e-12)

    def test_beats_mean_baseline(self, behavioral_run):
        _, _, rows = behavioral_run
        assert rows["dev_mae"] <= 0.8 * rows["dev_mae_baseline"]

    def test_report_files_written(self, behavioral_run):
        _, out, _ = behavioral_run
        assert (out / "report_behavioral.txt").is_file()
        report = (out / "report_behavioral.txt").read_text()
        assert "[config]" in report
        assert "dev_mae" in report
        # no pipeline verb reads the [synth] settings, so the report does not list them
        config_block = report.split("\n[config]\n", 1)[1]
        assert re.findall(r"^\[\w+\]$", config_block, flags=re.M) == ["[run]", "[lstm]", "[relief]"]
        assert "[synth]" not in report and "depressed_fraction_train" not in report

    def test_tabular_model_extra_holds_only_what_a_verb_reads(self, behavioral_run):
        _, out, _ = behavioral_run
        extra = json.loads((out / "model_behavioral.json").read_text())["extra"]
        assert set(extra) == {"modality", "seed", "train_mean", "feature_names"}

    def test_report_bytes_independent_of_corpus_and_output_paths(self, tmp_path):
        spec = SynthSpec(n_train=12, n_dev=5, modalities=("transcript",), turn_pairs=6)
        reports = []
        for name in ("first", "second_checkout"):
            root, out = tmp_path / name / "corpus", tmp_path / f"{name}_out"
            gen_synthetic(spec, root, seed=5)
            cfg = cfg_for(root, out, modality="behavioral")
            run_extract(cfg)
            run_train(cfg)
            run_eval(cfg)
            reports.append({n: (out / n).read_bytes() for n in ("report_behavioral.txt", "report_behavioral.csv")})
            # the rendered config itself still names both locations
            assert f"root = {root}" in config_text(cfg)
            assert f"out_dir = {out}" in config_text(cfg)
        assert reports[0] == reports[1]
        text = reports[0]["report_behavioral.txt"].decode()
        assert str(tmp_path) not in text
        assert "\n[run]\nmodality = behavioral\n" in text and "seed = 7" in text
        assert "[corpus]" not in text

    def test_text_we_report_bytes_independent_of_embeddings_path(self, small_corpus, tmp_path):
        words = ["i", "think", "tired", "sad", "good", "fine", "well", "today"]
        rng = np.random.default_rng(0)
        table = "\n".join(w + " " + " ".join(repr(float(v)) for v in rng.normal(size=4)) for w in words) + "\n"
        reports = []
        for name in ("first", "second_checkout"):
            emb = tmp_path / name / "vectors.txt"
            emb.parent.mkdir()
            emb.write_text(table, encoding="utf-8")
            out = tmp_path / f"{name}_out"
            cfg = cfg_for(small_corpus, out, modality="text:WE", text_embeddings=str(emb))
            run_extract(cfg)
            run_train(cfg)
            run_eval(cfg)
            reports.append({n: (out / n).read_bytes() for n in ("report_text_WE.txt", "report_text_WE.csv")})
            assert f"embeddings = {emb}" in config_text(cfg)
        assert reports[0] == reports[1]
        assert str(tmp_path) not in reports[0]["report_text_WE.txt"].decode()

    def test_unlabeled_training_session_errors(self, small_corpus, tmp_path):
        import shutil

        root = tmp_path / "broken"
        shutil.copytree(small_corpus, root)
        index = scan_corpus(small_corpus)
        victim = index.ids["train"][0]
        lines = (root / "labels.csv").read_text().splitlines()
        kept = [l for l in lines if not l.startswith(victim + ",")]
        (root / "labels.csv").write_text("\n".join(kept) + "\n", encoding="utf-8")
        cfg = cfg_for(root, tmp_path / "out_broken", modality="behavioral")
        run_extract(cfg)
        with pytest.raises(PipelineError, match="unlabeled"):
            run_train(cfg)

    def test_eval_without_model_errors(self, small_corpus, tmp_path):
        cfg = cfg_for(small_corpus, tmp_path / "nowhere", modality="behavioral")
        with pytest.raises(PipelineError, match="model"):
            run_eval(cfg)


# after synth: the acoustic, behavioral and text extracts, then train, eval and cv for behavioral and text:BOOL
HASH_SEED_RECIPE = [
    *(["extract", "--modality", m] for m in ("acoustic:S", "acoustic:P", "acoustic:VQ", "acoustic:M",
                                           "behavioral", "text:BOOL", "text:TFIDF")),
    *([verb, "--modality", m] for m in ("behavioral", "text:BOOL") for verb in ("train", "eval", "cv")),
]


class TestDeterminismAndLeakage:
    def artifacts(self, out):
        return sorted(p for p in Path(out).rglob("*") if p.is_file())

    def test_recipe_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        """One interpreter per PYTHONHASHSEED runs the recipe through cli.main into its own directory."""
        src = str(Path(phqreg.__file__).resolve().parent.parent)
        trees = []
        for hash_seed in ("0", "12345"):
            run = tmp_path / f"hashseed_{hash_seed}"
            run.mkdir()
            ini = synth_config(run / "synth.ini", n_train=9, n_dev=3, modalities="transcript audio")
            common = ["--corpus", str(run / "corpus"), "--out", str(run / "out"), "--seed", "5"]
            synth = ["synth", "--config", ini, "--corpus", str(run / "corpus"), "--seed", "5"]
            code = "\n".join([
                "from phqreg.cli import main",
                f"assert main({synth!r}) == 0",
                f"for args in {HASH_SEED_RECIPE!r}:",
                f"    assert main(args + {common!r}) == 0, args",
            ])
            path = os.environ.get("PYTHONPATH")
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src + (os.pathsep + path if path else "")}
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, done.stderr[-2000:]
            trees.append({p.relative_to(run).as_posix(): p.read_bytes() for p in self.artifacts(run)})
        assert sorted(trees[0]) == sorted(trees[1])
        assert {"out/cv_report_text_BOOL.txt", "out/report_behavioral.txt", "out/acoustic_pass_dev.csv"} <= set(trees[0])
        assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []

    def test_visual_and_acoustic_m_agree_across_blas_thread_counts(self, full_corpus, tmp_path):
        """The recipe at one and at two BLAS threads: windows and predictions within 1e-9, the golden tolerance.

        Bytes are promised for one BLAS thread setting only; across settings
        the last bits may differ (see the README's "Determinism").
        """
        src = str(Path(phqreg.__file__).resolve().parent.parent)
        ini = tmp_path / "run.ini"
        ini.write_text("[lstm]\nmax_epochs = 3\n", encoding="utf-8")
        recipe = [[verb, "--modality", m] for m in ("visual", "acoustic:M") for verb in ("extract", "train", "eval")]
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            common = ["--config", str(ini), "--corpus", str(full_corpus), "--out", str(out), "--seed", "3"]
            code = "\n".join([
                "from phqreg.cli import main",
                f"for args in {recipe!r}:",
                f"    assert main(args + {common!r}) == 0, args",
            ])
            path = os.environ.get("PYTHONPATH")
            env = {
                **os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                "PYTHONPATH": src + (os.pathsep + path if path else ""),
            }
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, done.stderr[-2000:]
            outs.append(out)
        for split in ("train", "dev"):
            one, two = (np.load(out / f"visual_{split}_windows.npy") for out in outs)
            assert one.shape == two.shape and len(one) > 0
            np.testing.assert_allclose(one, two, rtol=0, atol=1e-9)
            for tag in ("visual", "acoustic_M"):
                one, two = (read_predictions(out / f"predictions_{tag}_{split}.csv") for out in outs)
                assert one[0] == two[0]
                np.testing.assert_array_equal(one[1], two[1])
                np.testing.assert_allclose(one[2], two[2], rtol=0, atol=1e-9)

    def test_identical_seed_reproduces_artifacts(self, small_corpus, tmp_path):
        out = tmp_path / "out"
        cfg = cfg_for(small_corpus, out, modality="behavioral")
        hashes = []
        for _ in range(2):  # second run overwrites in place
            run_extract(cfg)
            run_train(cfg)
            run_eval(cfg)
            hashes.append({p.name: sha(p) for p in self.artifacts(out)})
        assert hashes[0] == hashes[1]

    def test_deleting_dev_labels_leaves_model_identical(self, small_corpus, tmp_path):
        import shutil

        index = scan_corpus(small_corpus)
        root2 = tmp_path / "nodev"
        shutil.copytree(small_corpus, root2)
        keep = set(index.ids["train"])
        lines = (root2 / "labels.csv").read_text().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if l.split(",")[0] in keep]
        (root2 / "labels.csv").write_text("\n".join(kept) + "\n", encoding="utf-8")

        out_a, out_b = tmp_path / "full", tmp_path / "nodev_out"
        cfg_a = cfg_for(small_corpus, out_a, modality="behavioral")
        cfg_b = cfg_for(root2, out_b, modality="behavioral")
        for cfg in (cfg_a, cfg_b):
            run_extract(cfg)
            run_train(cfg)
        assert sha(out_a / "model_behavioral.json") == sha(out_b / "model_behavioral.json")

    def test_acoustic_m_artifacts_byte_identical_across_roots(self, full_corpus, tmp_path):
        import shutil

        second = tmp_path / "second_root"
        shutil.copytree(full_corpus, second)
        digests = []
        for root, name in ((full_corpus, "first"), (second, "second")):
            out = tmp_path / name
            cfg = cfg_for(root, out, modality="acoustic:M")
            run_extract(cfg)
            run_train(cfg)
            run_eval(cfg)
            digests.append({p.name: sha(p) for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]
        assert {
            "features_acoustic_M_train.csv", "features_acoustic_M_dev.csv",
            "report_acoustic_M.txt", "report_acoustic_M.csv",
        } <= set(digests[0])

    def test_text_tfidf_artifacts_byte_identical_across_roots(self, small_corpus, tmp_path):
        import shutil

        second = tmp_path / "second_root"
        shutil.copytree(small_corpus, second)
        digests = []
        for root, name in ((small_corpus, "first"), (second, "second")):
            out = tmp_path / name
            cfg = cfg_for(root, out, modality="text:TFIDF")
            run_extract(cfg)
            run_train(cfg)
            run_eval(cfg)
            digests.append({p.name: sha(p) for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]
        assert {
            "features_text_TFIDF_train.csv", "features_text_TFIDF_dev.csv", "model_text_TFIDF.json",
            "predictions_text_TFIDF_dev.csv", "report_text_TFIDF.txt", "report_text_TFIDF.csv",
        } <= set(digests[0])


class TestCrossValidation:
    def test_kfold_sizes_and_pooled_oracle(self, behavioral_run, small_corpus):
        cfg, out, _ = behavioral_run
        rows = run_cv(cfg)
        sizes = [rows[f"fold{i}_n"] for i in range(3)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 30
        # pooled MAE recomputable from the persisted per-fold predictions
        lines = (out / "cv_predictions_behavioral.csv").read_text().splitlines()[1:]
        y = np.array([float(l.split(",")[2]) for l in lines])
        p = np.array([float(l.split(",")[3]) for l in lines])
        assert rows["pooled_mae"] == pytest.approx(np.mean(np.abs(y - p)), abs=1e-12)

    def test_pooled_baseline_predicts_each_fold_by_its_training_folds_mean(self, behavioral_run):
        cfg, out, _ = behavioral_run
        rows = run_cv(cfg)
        lines = [l.split(",") for l in (out / "cv_predictions_behavioral.csv").read_text().splitlines()[1:]]
        fold = np.array([int(l[0]) for l in lines])
        y = np.array([float(l[2]) for l in lines])
        base = np.array([y[fold != f].mean() for f in fold])  # mean y_true of the other folds
        assert rows["pooled_rmse_baseline"] == pytest.approx(np.sqrt(np.mean((y - base) ** 2)), abs=1e-12)
        assert rows["pooled_mae_baseline"] == pytest.approx(np.mean(np.abs(y - base)), abs=1e-12)
        report = (out / "cv_report_behavioral.txt").read_text().splitlines()
        assert f"pooled_rmse_baseline = {rows['pooled_rmse_baseline']}" in report
        assert f"pooled_mae_baseline = {rows['pooled_mae_baseline']}" in report

    def test_too_few_sessions(self, tmp_path):
        root = tmp_path / "mini"
        gen_synthetic(SynthSpec(n_train=2, n_dev=1, modalities=("transcript",), turn_pairs=4), root, seed=1)
        cfg = cfg_for(root, tmp_path / "out", modality="behavioral")
        run_extract(cfg)
        with pytest.raises(PipelineError, match="fewer"):
            run_cv(cfg)


class TestReliefIntegration:
    def fabricate_acoustic_store(self, root, out, n=36, d=30, seed=3):
        """Small stand-in feature store tagged as the merged acoustic vector."""
        rng = np.random.default_rng(seed)
        index = scan_corpus(root)
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        names = tuple(f"M.f{i}" for i in range(d))
        for split in ("train", "dev"):
            rows = {}
            for sid in index.ids[split]:
                x = rng.normal(0, 1, d)
                x[0] = index.labels[sid] + rng.normal(0, 1.0)
                x[1] = index.labels[sid] * 0.5 + rng.normal(0, 2.0)
                rows[sid] = x
            write_feature_csv(out / f"features_acoustic_M_{split}.csv", names, rows)
        return names

    def test_train_eval_with_selection(self, small_corpus, tmp_path):
        out = tmp_path / "fs"
        self.fabricate_acoustic_store(small_corpus, out)
        cfg = cfg_for(small_corpus, out, modality="acoustic:M+FS")
        cfg.relief_k = 3
        run_train(cfg)
        assert not list(out.glob("selected_features_*"))  # the model extra is the one record of the selection
        rows = run_eval(cfg)
        selected = report_selection(out / "report_acoustic_M+FS.txt")
        assert 0 < len(selected) <= 20
        assert "M.f0" in selected
        assert rows["n_features_used"] == len(selected)
        assert rows["relief_k"] == 3
        extra = json.loads((out / "model_acoustic_M+FS.json").read_text())["extra"]
        assert set(extra) == {"modality", "seed", "train_mean", "feature_names", "relief"}
        assert extra["relief"]["selected_names"] == selected

    def test_selection_artifacts_do_not_overwrite_plain_m(self, small_corpus, tmp_path):
        out = tmp_path / "fs_vs_m"
        self.fabricate_acoustic_store(small_corpus, out)
        plain = cfg_for(small_corpus, out, modality="acoustic:M")
        run_train(plain)
        m_rows = run_eval(plain)
        m_bytes = {name: (out / name).read_bytes() for name in (
            "model_acoustic_M.json", "report_acoustic_M.txt", "report_acoustic_M.csv",
            "predictions_acoustic_M_train.csv", "predictions_acoustic_M_dev.csv",
        )}
        fs = cfg_for(small_corpus, out, modality="acoustic:M+FS")
        fs.relief_k = 3
        run_train(fs)
        fs_rows = run_eval(fs)
        for name, before in m_bytes.items():
            assert (out / name).read_bytes() == before, name
        for name in ("model_acoustic_M+FS.json", "report_acoustic_M+FS.csv", "predictions_acoustic_M+FS_dev.csv"):
            assert (out / name).is_file(), name
        assert report_selection(out / "report_acoustic_M+FS.txt")
        assert report_selection(out / "report_acoustic_M.txt") == []
        assert m_rows["n_features_used"] == 30
        assert fs_rows["n_features_used"] <= 20
        # the plain M model still evaluates as the plain M model afterwards
        assert run_eval(plain) == m_rows

    def test_cv_refits_selection_per_fold(self, small_corpus, tmp_path):
        out = tmp_path / "fs_cv"
        self.fabricate_acoustic_store(small_corpus, out)
        cfg = cfg_for(small_corpus, out, modality="acoustic:M+FS")
        cfg.relief_k = 3
        rows = run_cv(cfg)
        assert rows["n_folds"] == 3
        assert np.isfinite(rows["pooled_mae"])

    def test_tune_relief_entry_point(self, tmp_path):
        # a corpus big and balanced enough that part of the k grid is feasible
        root = tmp_path / "tune_corpus"
        gen_synthetic(
            SynthSpec(n_train=48, n_dev=6, depressed_fraction_train=0.5,
                      modalities=("transcript",), turn_pairs=4),
            root, seed=17,
        )
        out = tmp_path / "tune"
        self.fabricate_acoustic_store(root, out)
        cfg = cfg_for(root, out, modality="acoustic:M+FS")
        th, k = run_tune_relief(cfg)
        assert th in (0.02, 0.0, -0.02)
        assert k in (5, 10, 15, 20)
        assert (out / "relief_tuning_acoustic_M+FS.csv").is_file()

    def tuned_ini(self, capsys, ini, root, out, run_lines=()):
        """Run ``tune-relief`` from the CLI and write its printed point into ``ini`` as [relief] threshold and k."""
        run = "\n".join(["[run]", "modality = acoustic:M+FS", "seed = 7", *run_lines]) + "\n"
        ini.write_text(run, encoding="utf-8")
        capsys.readouterr()
        assert main(["tune-relief", "--config", str(ini), "--corpus", str(root), "--out", str(out)]) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        th, k = printed["relief_threshold"], printed["relief_k"]
        ini.write_text(f"{run}[relief]\nthreshold = {th}\nk = {k}\n", encoding="utf-8")
        return load_config(ini, {"root": str(root), "out_dir": str(out)}), th, k

    def test_tuned_point_reaches_the_model_and_report(self, tmp_path, capsys):
        root = tmp_path / "tune_corpus"
        gen_synthetic(
            SynthSpec(n_train=48, n_dev=6, depressed_fraction_train=0.5,
                      modalities=("transcript",), turn_pairs=4),
            root, seed=17,
        )
        out = tmp_path / "tune"
        self.fabricate_acoustic_store(root, out)
        cfg, th, k = self.tuned_ini(capsys, tmp_path / "tuned.ini", root, out)
        grid = (out / "relief_tuning_acoustic_M+FS.csv").read_text()
        assert f"# chosen: threshold={th} k={k}" in grid
        assert (cfg.relief_threshold, cfg.relief_k) == (float(th), int(k))
        run_train(cfg)
        model = json.loads((out / "model_acoustic_M+FS.json").read_text())
        assert model["kind"] == "svr"
        assert (model["extra"]["relief"]["threshold"], model["extra"]["relief"]["k"]) == (float(th), int(k))
        rows = run_eval(cfg)
        assert (rows["relief_threshold"], rows["relief_k"]) == (float(th), int(k))

    def test_tuned_selection_artifacts_byte_identical_across_roots(self, tmp_path, capsys):
        first, second = tmp_path / "first_root", tmp_path / "second_root"
        gen_synthetic(
            SynthSpec(n_train=48, n_dev=6, depressed_fraction_train=0.5,
                      modalities=("transcript",), turn_pairs=4),
            first, seed=17,
        )
        shutil.copytree(first, second)
        digests = []
        for root, name in ((first, "first"), (second, "second")):
            out = tmp_path / name
            self.fabricate_acoustic_store(root, out)
            cfg, _, _ = self.tuned_ini(capsys, tmp_path / f"{name}.ini", root, out)
            run_train(cfg)
            run_eval(cfg)
            digests.append({p.name: sha(p) for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]
        assert {
            "relief_tuning_acoustic_M+FS.csv", "model_acoustic_M+FS.json",
            "predictions_acoustic_M+FS_dev.csv", "report_acoustic_M+FS.txt", "report_acoustic_M+FS.csv",
        } <= set(digests[0])
        assert report_selection(tmp_path / "first" / "report_acoustic_M+FS.txt")

    def test_single_class_training_split_names_the_missing_class(self, tmp_path, capsys):
        root, out = tmp_path / "no_depressed", tmp_path / "out"
        ini = synth_config(tmp_path / "synth.ini", depressed_fraction_train=0.0, n_train=24, n_dev=4,
                           modalities="transcript")
        assert main(["synth", "--config", ini, "--corpus", str(root), "--seed", "3"]) == 0
        index = scan_corpus(root)
        assert all(index.labels[sid] < 10 for sid in index.ids["train"])
        self.fabricate_acoustic_store(root, out)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(root), "--out", str(out), "--modality", "acoustic:M+FS", "--seed", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ERROR class 1 has no instances" in err
        assert "selected no features" not in err
        assert not (out / "model_acoustic_M+FS.json").exists()


class TestTextPipeline:
    def test_bool_train_eval_uses_linear_svr(self, small_corpus, tmp_path):
        out = tmp_path / "text"
        cfg = cfg_for(small_corpus, out, modality="text:BOOL")
        run_extract(cfg)
        run_train(cfg)
        model = json.loads((out / "model_text_BOOL.json").read_text())
        assert model["kind"] == "svr"
        assert model["model"]["kernel"] == "linear"
        rows = run_eval(cfg)
        assert "dev_mae" in rows and "dev_evs" not in rows


class TestVisualPipeline:
    def test_train_eval_with_evs_and_fallback(self, full_corpus, tmp_path):
        out = tmp_path / "vis"
        cfg = cfg_for(full_corpus, out, modality="visual")
        cfg.lstm_max_epochs = 5
        run_extract(cfg)
        run_train(cfg)
        rows = run_eval(cfg)
        assert "dev_evs" in rows
        assert (out / "predictions_visual_dev.csv").is_file()
        _, y, yhat = read_predictions(out / "predictions_visual_dev.csv")
        assert len(y) == 3
        assert np.all(np.isfinite(yhat))
        # LSTM counters: best epoch from the model, windows per split
        model = json.loads((out / "model_visual.json").read_text())
        assert model["kind"] == "lstm"
        assert set(model["extra"]) == {"modality", "seed", "train_mean", "window", "q", "val_sessions"}
        assert rows["lstm_best_epoch"] == model["model"]["best_epoch"]
        assert rows["n_windows_train"] == len(np.load(out / "visual_train_windows.npy"))
        assert rows["n_windows_dev"] == len(np.load(out / "visual_dev_windows.npy"))
        assert rows["n_windows_train"] > 0
        csv_rows = dict(line.split(",", 1) for line in (out / "report_visual.csv").read_text().splitlines()[1:])
        for key in ("lstm_best_epoch", "n_windows_train", "n_windows_dev"):
            assert csv_rows[key] == str(rows[key])

    def test_visual_artifacts_byte_identical_across_runs(self, full_corpus, tmp_path):
        ini = tmp_path / "visual.ini"
        ini.write_text("[run]\nmodality = visual\nseed = 13\n[lstm]\nmax_epochs = 4\n", encoding="utf-8")
        digests = []
        for name in ("first", "second"):
            out = tmp_path / name
            cfg = load_config(ini, {"root": str(full_corpus), "out_dir": str(out)})
            assert cfg.lstm_max_epochs == 4
            run_extract(cfg)
            run_train(cfg)
            run_eval(cfg)
            digests.append({p.name: sha(p) for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]
        assert {
            "visual_pca.json", "visual_train_windows.npy", "visual_dev_windows.json", "model_visual.json",
            "predictions_visual_train.csv", "predictions_visual_dev.csv", "report_visual.txt", "report_visual.csv",
        } <= set(digests[0])

    def test_visual_kfold_cv(self, full_corpus, tmp_path):
        out = tmp_path / "vis_cv"
        cfg = cfg_for(full_corpus, out, modality="visual")
        cfg.lstm_max_epochs = 2
        run_extract(cfg)
        rows = run_cv(cfg)
        assert rows["n_folds"] == 3
        assert np.isfinite(rows["pooled_mae"])

    def test_visual_cv_folds_hold_out_validation_sessions_like_train(self, full_corpus, tmp_path, monkeypatch):
        import phqreg.models.lstm as lstm_mod
        import phqreg.pipeline as pipeline

        out = tmp_path / "vis_val"
        cfg = cfg_for(full_corpus, out, modality="visual")
        cfg.lstm_max_epochs = 2
        run_extract(cfg)
        meta = json.loads((out / "visual_train_windows.json").read_text())
        owner = {w.tobytes(): sid for w, sid in zip(np.load(out / "visual_train_windows.npy"), meta["session_ids"])}
        assert len(owner) == len(meta["session_ids"])
        calls = []
        real_train = lstm_mod.lstm_train

        def recorder(X, y, max_epochs, seed, X_val=None, y_val=None):
            fit_sids = {owner[w.tobytes()] for w in X}
            val_sids = set() if X_val is None else {owner[w.tobytes()] for w in X_val}
            calls.append((fit_sids, val_sids, seed))
            return real_train(X, y, max_epochs, seed, X_val=X_val, y_val=y_val)

        # fit_predictor imports lstm_train from its module on each visual fit
        monkeypatch.setattr(lstm_mod, "lstm_train", recorder)
        run_train(cfg)
        run_cv(cfg)
        lines = (out / "cv_predictions_visual.csv").read_text().splitlines()[1:]
        held_out = [{l.split(",")[1] for l in lines if l.split(",")[0] == str(f)} for f in range(3)]
        assert len(calls) == 4  # train, then one fit per fold
        for fold, (fit_sids, val_sids, seed) in enumerate(calls, start=-1):
            assert seed == cfg.seed
            assert val_sids and not fit_sids & val_sids
            bearing = sorted(fit_sids | val_sids)
            if fold >= 0:
                assert not set(bearing) & held_out[fold]
                assert set(bearing) == set(meta["session_ids"]) - held_out[fold]
            # the same share of window-bearing sessions as train, drawn with the run seed
            n_val = int(round(pipeline.LSTM_VAL_FRACTION * len(bearing)))
            assert val_sids == set(np.random.default_rng(cfg.seed).permutation(bearing)[:n_val].tolist())
        model = json.loads((out / "model_visual.json").read_text())
        assert set(model["extra"]["val_sessions"]) == calls[0][1]


class TestCli:
    def test_full_cli_flow(self, tmp_path, capsys):
        root, out = str(tmp_path / "c"), str(tmp_path / "o")
        ini = synth_config(tmp_path / "synth.ini", n_train=8, n_dev=4, modalities="transcript")
        assert main(["synth", "--config", ini, "--corpus", root, "--seed", "3"]) == 0
        assert main(["extract", "--corpus", root, "--out", out, "--modality", "behavioral", "--seed", "3"]) == 0
        assert main(["train", "--corpus", root, "--out", out, "--modality", "behavioral", "--seed", "3"]) == 0
        assert main(["eval", "--corpus", root, "--out", out, "--modality", "behavioral", "--seed", "3"]) == 0
        out_text = capsys.readouterr().out
        assert "dev_mae" in out_text

    def test_missing_seed_is_error(self, tmp_path, capsys):
        rc = main(["extract", "--corpus", str(tmp_path), "--out", str(tmp_path), "--modality", "behavioral"])
        assert rc == 2
        assert "ERROR" in capsys.readouterr().err

    def test_bad_modality_is_error(self, tmp_path, capsys):
        rc = main(["extract", "--corpus", str(tmp_path), "--out", str(tmp_path),
                   "--modality", "telepathy", "--seed", "1"])
        assert rc == 2
        assert "ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["train", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["train", "--model", "svr", "--seed", "1"], "unrecognized arguments: --model svr"),
        (["synth", "--n-train", "9", "--seed", "1"], "unrecognized arguments: --n-train 9"),
        (["synth", "--out", "o", "--modality", "behavioral", "--seed", "1"],
         "unrecognized arguments: --out o --modality behavioral"),
    ])
    def test_argument_errors_end_with_error_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"ERROR {message}"

    def test_tune_relief_rejects_visual_up_front(self, small_corpus, tmp_path, capsys):
        rc = main(["tune-relief", "--corpus", str(small_corpus), "--out", str(tmp_path / "o"),
                   "--modality", "visual", "--seed", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ERROR relief tuning needs a tabular modality" in err
        assert "feature store" not in err

    def test_eval_without_model_exit_code(self, small_corpus, tmp_path, capsys):
        rc = main(["eval", "--corpus", str(small_corpus), "--out", str(tmp_path / "empty"),
                   "--modality", "behavioral", "--seed", "1"])
        assert rc == 2
        assert "ERROR" in capsys.readouterr().err

    def tiny_corpus(self, tmp_path):
        root = tmp_path / "c"
        ini = synth_config(tmp_path / "synth.ini", n_train=8, n_dev=4, modalities="transcript")
        assert main(["synth", "--config", ini, "--corpus", str(root), "--seed", "3"]) == 0
        return root, ["--corpus", str(root), "--out", str(tmp_path / "o"), "--modality", "behavioral", "--seed", "3"]

    def test_session_listed_twice_is_error(self, tmp_path, capsys):
        root, args = self.tiny_corpus(tmp_path)
        train = (root / "train_ids.txt").read_text().split()
        dev = (root / "dev_ids.txt").read_text().split()
        # one dev session also in train, one train session listed twice
        (root / "train_ids.txt").write_text("\n".join(train + [dev[0], train[1]]) + "\n")
        capsys.readouterr()
        assert main(["extract", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR session ids listed more than once")
        assert ", ".join(sorted([dev[0], train[1]])) in err

    def test_empty_feature_store_is_error(self, tmp_path, capsys):
        _, args = self.tiny_corpus(tmp_path)
        assert main(["extract", *args]) == 0
        (tmp_path / "o" / "features_behavioral_train.csv").write_text("")
        capsys.readouterr()
        assert main(["train", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR ")
        assert "features_behavioral_train.csv: not a feature store CSV" in err

    def test_feature_row_listed_twice_is_error(self, tmp_path, capsys):
        _, args = self.tiny_corpus(tmp_path)
        assert main(["extract", *args]) == 0
        store = tmp_path / "o" / "features_behavioral_train.csv"
        lines = store.read_text().splitlines()
        cells = lines[1].split(",")
        lines.insert(2, ",".join(cells[:-1] + ["123.0"]))
        store.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", *args]) == 2
        assert capsys.readouterr().err == f"ERROR {store}:3: session {cells[0]} listed twice\n"

    def test_label_listed_twice_is_error(self, tmp_path, capsys):
        root, args = self.tiny_corpus(tmp_path)
        labels = root / "labels.csv"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(lines + [lines[1]]) + "\n")
        capsys.readouterr()
        assert main(["extract", *args]) == 2
        sid = lines[1].split(",")[0]
        assert capsys.readouterr().err == f"ERROR {labels}:{len(lines) + 1}: Participant_ID {sid} listed twice\n"

    def test_short_feature_row_is_error(self, tmp_path, capsys):
        _, args = self.tiny_corpus(tmp_path)
        assert main(["extract", *args]) == 0
        store = tmp_path / "o" / "features_behavioral_train.csv"
        lines = store.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        store.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", *args]) == 2
        assert capsys.readouterr().err == f"ERROR {store}:3: 12 cells, but the header names 13\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("split, verb", [("train", "train"), ("dev", "eval")])
    def test_non_finite_feature_cell_is_error(self, tmp_path, capsys, cell, split, verb):
        _, args = self.tiny_corpus(tmp_path)
        for step in ("extract", "train"):
            assert main([step, *args]) == 0
        store = tmp_path / "o" / f"features_behavioral_{split}.csv"
        lines = store.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
        store.write_text("\n".join(lines) + "\n")
        name = lines[0].rsplit(",", 1)[1]
        capsys.readouterr()
        assert main([verb, *args]) == 2
        assert capsys.readouterr().err == f"ERROR {store}:3: non-finite {name} {cell!r}\n"

    def test_window_batch_not_matching_its_sidecar_is_error(self, full_corpus, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--corpus", str(full_corpus), "--out", str(out), "--modality", "visual", "--seed", "1"]
        assert main(["extract", *args]) == 0
        npy, sidecar = out / "visual_train_windows.npy", out / "visual_train_windows.json"
        shutil.copy(npy, tmp_path / "kept.npy")
        shutil.copy(out / "visual_dev_windows.npy", npy)
        capsys.readouterr()
        assert main(["train", *args]) == 2
        assert capsys.readouterr().err.startswith(f"ERROR {npy}: window array of shape")

        shutil.copy(tmp_path / "kept.npy", npy)
        meta = json.loads(sidecar.read_text())
        meta["sessions"].remove(meta["session_ids"][0])
        sidecar.write_text(json.dumps(meta))
        assert main(["train", *args]) == 2
        err = capsys.readouterr().err
        assert err == f"ERROR {sidecar}: windows of sessions missing from its session list: {meta['session_ids'][0]}\n"

    def test_malformed_transcript_fails_behavioral_extraction(self, tmp_path, capsys):
        root, args = self.tiny_corpus(tmp_path)
        sid = (root / "train_ids.txt").read_text().split()[0]
        transcript = root / "sessions" / sid / f"{sid}_transcript.tsv"
        lines = transcript.read_text().splitlines() + ["garbage line without tabs"]
        transcript.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["extract", *args]) == 2
        assert capsys.readouterr().err == f"ERROR {transcript}:{len(lines)}: expected 4 tab-separated fields, got 1\n"

    @pytest.fixture(scope="class")
    def audio_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("audio_corpus")
        gen_synthetic(SynthSpec(n_train=4, n_dev=2, modalities=("transcript", "audio"), turn_pairs=4), root, seed=1)
        return root

    @pytest.mark.parametrize("damage, reason", [
        ("junk", "not a readable WAV file: file does not start with RIFF id"),
        ("empty", "not a readable WAV file: unexpected end of file"),
        ("truncated", "truncated WAV data: 28 of "),
    ], ids=["junk", "empty", "truncated"])
    def test_unreadable_wav_fails_extraction_with_its_path(self, audio_corpus, tmp_path, capsys, damage, reason):
        root = tmp_path / "c"
        shutil.copytree(audio_corpus, root)
        sid = (root / "train_ids.txt").read_text().split()[0]
        wav = root / "sessions" / sid / f"{sid}_audio.wav"
        wav.write_bytes({"junk": b"notawav!", "empty": b"", "truncated": wav.read_bytes()[:100]}[damage])
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["extract", "--corpus", str(root), "--out", str(out), "--modality", "acoustic:S", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR {wav}: {reason}") and err.count("\n") == 1, err
        assert not list(out.glob("features_*"))

    def test_degenerate_landmark_frame_names_session_and_frame(self, tmp_path, capsys):
        root = tmp_path / "c"
        ini = synth_config(tmp_path / "synth.ini", n_train=4, n_dev=2, modalities="landmarks")
        assert main(["synth", "--config", ini, "--corpus", str(root), "--seed", "3"]) == 0
        sid = (root / "train_ids.txt").read_text().split()[0]
        path = root / "sessions" / sid / f"{sid}_landmarks.csv"
        lines = path.read_text().splitlines()
        cells = lines[1 + 4].split(",")  # frame 4, after the header
        lines[1 + 4] = ",".join(cells[:3] + ["0"] + ["0.0"] * (len(cells) - 4))
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["extract", "--corpus", str(root), "--out", str(tmp_path / "o"), "--modality", "visual",
                     "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err == f"ERROR session {sid}: frame 4 (timestamp {float(cells[1]):g} s) has all landmarks identical; cannot normalize\n"

    def test_sidecar_without_a_key_is_error(self, full_corpus, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--corpus", str(full_corpus), "--out", str(out), "--modality", "visual", "--seed", "1"]
        assert main(["extract", *args]) == 0
        sidecar = out / "visual_train_windows.json"
        kept = sidecar.read_text()
        for key in ("W", "q", "session_ids", "sessions"):
            meta = json.loads(kept)
            del meta[key]
            sidecar.write_text(json.dumps(meta))
            capsys.readouterr()
            assert main(["train", *args]) == 2
            assert capsys.readouterr().err == f"ERROR {sidecar}: window sidecar has no {key!r} key; run `extract` again\n"

    @pytest.fixture(scope="class")
    def visual_store(self, full_corpus, tmp_path_factory):
        out = tmp_path_factory.mktemp("visual_store")
        assert main(["extract", "--corpus", str(full_corpus), "--out", str(out), "--modality", "visual", "--seed", "1"]) == 0
        return out

    @pytest.mark.parametrize("name, text, reason", [
        ("visual_train_windows.json", "5", "window sidecar is not a JSON object"),
        ("visual_train_windows.json", "{not json", "window sidecar is not a JSON object"),
        ("visual_train_windows.json", '{"W": 4, "q": 3, "session_ids": 5, "sessions": []}',
         "window sidecar 'session_ids' is not a list of session ids"),
        ("visual_train_windows.json", '{"W": 4, "q": 3, "session_ids": [], "sessions": ["1001", 1002]}',
         "window sidecar 'sessions' is not a list of session ids"),
        ("visual_train_windows.npy", "not an array", "not a window array"),
    ], ids=["sidecar_number", "sidecar_not_json", "session_ids_not_a_list", "sessions_not_a_list", "npy_not_an_array"])
    def test_damaged_window_store_names_its_file(self, full_corpus, visual_store, tmp_path, capsys, name, text, reason):
        out = tmp_path / "o"
        shutil.copytree(visual_store, out)
        (out / name).write_text(text)
        capsys.readouterr()
        args = ["--corpus", str(full_corpus), "--out", str(out), "--modality", "visual", "--seed", "1"]
        assert main(["train", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR {out / name}: {reason}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("modality", ["text:BOOL", "text:TFIDF"])
    def test_token_with_comma_or_quote_keeps_the_store_readable(self, tmp_path, capsys, modality):
        root, args = self.tiny_corpus(tmp_path)
        args[args.index("--modality") + 1] = modality
        sid = (root / "train_ids.txt").read_text().split()[0]
        transcript = root / "sessions" / sid / f"{sid}_transcript.tsv"
        lines = transcript.read_text().splitlines()
        turn = next(i for i, line in enumerate(lines) if "\tParticipant\t" in line)
        lines[turn] = lines[turn].rsplit("\t", 1)[0] + '\tyes, i do "really"'
        transcript.write_text("\n".join(lines) + "\n")
        for verb in ("extract", "train", "eval"):
            assert main([verb, *args]) == 0, capsys.readouterr().err
        names, rows = read_feature_csv(tmp_path / "o" / f"features_{modality.replace(':', '_')}_train.csv")
        assert {"tok_yes,", 'tok_"really"'} <= set(names)
        assert all(len(row) == len(names) for row in rows.values())
