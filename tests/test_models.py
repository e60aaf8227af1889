"""Model files: what each kind's body holds, and how a damaged file fails.

A model body holds only what ``predict`` and ``eval`` read (plus the SMO and
LSTM training record); the learners' fixed hyperparameters are module
constants and are not stored. A file that is not a current, well-formed
envelope fails with ModelFormatError, which the CLI prints as one ``ERROR``
line with exit code 2.
"""

import json
import re

import numpy as np
import pytest

from phqreg.cli import main
from phqreg.models import MODEL_FORMAT_VERSION, ModelFormatError, load_model, save_model
from phqreg.models.lstm import CLIP_ORDER, lstm_train
from phqreg.models.reptree import reptree_train
from phqreg.models.svr import svr_train

BODY_KEYS = {
    "svr": {"kernel", "gamma", "C", "alpha", "alpha_star", "bias", "train_X", "mins", "maxs", "n_iter", "kkt_gap"},
    "reptree": {"tree", "n_features"},
    "lstm": {"params", "running_mean", "running_var", "best_epoch", "curve"},
}


def trained(kind):
    rng = np.random.default_rng(3)
    if kind == "lstm":
        return lstm_train(rng.normal(size=(12, 4, 2)), rng.normal(size=12), 2, 0)
    X = rng.normal(size=(30, 3))
    y = np.where(X[:, 0] > 0, 5.0, 1.0) + rng.normal(0, 0.1, 30)
    return svr_train(X, y, "rbf") if kind == "svr" else reptree_train(X, y, seed=0)


def tree_nodes(node):
    yield node
    if "left" in node:
        yield from tree_nodes(node["left"])
        yield from tree_nodes(node["right"])


@pytest.mark.parametrize("kind", sorted(BODY_KEYS))
def test_model_body_holds_only_what_predict_and_eval_read(tmp_path, kind):
    path = tmp_path / "m.json"
    save_model(trained(kind), path, {"seed": 0})
    payload = json.loads(path.read_text())
    assert set(payload) == {"format_version", "kind", "model", "extra"}
    assert (payload["format_version"], payload["kind"]) == (MODEL_FORMAT_VERSION, kind) == (4, kind)
    assert set(payload["model"]) == BODY_KEYS[kind]
    if kind == "reptree":
        nodes = list(tree_nodes(payload["model"]["tree"]))
        assert len(nodes) > 1
        for node in nodes:
            assert set(node) in ({"value"}, {"value", "feature", "threshold", "left", "right"}), node
    if kind == "lstm":
        assert set(payload["model"]["params"]) == set(CLIP_ORDER)


def damage(payload: dict, how: str):
    if how == "not_an_object":
        return [1, 2]
    if how == "tree_missing":
        del payload["model"]["tree"]
    elif how == "tree_mistyped":
        payload["model"]["tree"] = 5
    elif how == "value_mistyped":
        payload["model"]["tree"]["left"]["value"] = "x"
    elif how == "model_not_an_object":
        payload["model"] = [payload["model"]]
    elif how == "extra_not_an_object":
        payload["extra"] = "seed"
    elif how == "format_3":
        payload["format_version"] = 3
        payload["model"].update(min_leaf=2, prune_fraction=1.0 / 3.0, seed=0)
    return payload


HOW = ["not_an_object", "tree_missing", "tree_mistyped", "model_not_an_object", "extra_not_an_object", "format_3"]


@pytest.mark.parametrize("how", HOW)
def test_damaged_file_raises_model_format_error_naming_the_path(tmp_path, how):
    path = tmp_path / "model_behavioral.json"
    save_model(trained("reptree"), path, {"seed": 0})
    path.write_text(json.dumps(damage(json.loads(path.read_text()), how)))
    with pytest.raises(ModelFormatError, match=str(path)):
        load_model(path)


@pytest.mark.parametrize("how", ["tree_missing", "value_mistyped", "not_an_object", "format_3"])
def test_eval_of_a_damaged_model_prints_one_error_line(small_corpus, tmp_path, capsys, how):
    out = tmp_path / "out"
    args = ["--corpus", str(small_corpus), "--out", str(out), "--modality", "behavioral", "--seed", "1"]
    assert main(["extract", *args]) == 0
    assert main(["train", *args]) == 0
    path = out / "model_behavioral.json"
    path.write_text(json.dumps(damage(json.loads(path.read_text()), how)))
    capsys.readouterr()
    assert main(["eval", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {path}: ") and err.count("\n") == 1, err


# a bad value at a place in each kind's body: (kind, key path, value)
BAD_BODY_VALUES = {
    "svr_alpha_text": ("svr", ["alpha", 0], "x"),
    "svr_mins_short": ("svr", ["mins"], [0.0]),
    "svr_kernel_unknown": ("svr", ["kernel"], "poly"),
    "reptree_value_text": ("reptree", ["tree", "left", "value"], "x"),
    "reptree_feature_out_of_range": ("reptree", ["tree", "feature"], 3),  # the trained model has 3 features
    "lstm_weight_text": ("lstm", ["params", "W1", 0, 0], "x"),
}


@pytest.mark.parametrize("how", sorted(BAD_BODY_VALUES))
def test_bad_value_in_a_model_body_fails_at_load_naming_the_path(tmp_path, how):
    kind, where, value = BAD_BODY_VALUES[how]
    path = tmp_path / "m.json"
    save_model(trained(kind), path)
    payload = json.loads(path.read_text())
    node = payload["model"]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: damaged {kind} model"):
        load_model(path)


# a key of the model extra that eval reads, and a bad value for it (None: the key is removed)
BAD_EXTRA = {
    "relief_not_an_object": ("relief", 5),
    "relief_k_text": ("relief", {"threshold": 0.0, "k": "3", "selected_names": []}),
    "relief_name_not_a_feature": ("relief", {"threshold": 0.0, "k": 3, "selected_names": ["nope"]}),
    "feature_names_number": ("feature_names", 3),
    "train_mean_missing": ("train_mean", None),
    "lstm_window_text": ("window", "60"),
    "lstm_q_missing": ("q", None),
}


@pytest.mark.parametrize("how", sorted(BAD_EXTRA))
def test_eval_of_a_bad_model_extra_prints_one_error_line(small_corpus, tmp_path, capsys, how):
    key, value = BAD_EXTRA[how]
    out = tmp_path / "out"
    modality = "visual" if how.startswith("lstm") else "behavioral"
    args = ["--corpus", str(small_corpus), "--out", str(out), "--modality", modality, "--seed", "1"]
    if modality == "visual":  # the extra is checked before any window store is read
        out.mkdir()
        save_model(trained("lstm"), out / "model_visual.json", {"train_mean": 5.0, "window": 4, "q": 2})
    else:
        assert main(["extract", *args]) == 0
        assert main(["train", *args]) == 0
    path = out / f"model_{modality}.json"
    payload = json.loads(path.read_text())
    if value is None:
        del payload["extra"][key]
    else:
        payload["extra"][key] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {path}: extra key '{key}") and err.count("\n") == 1, err


@pytest.mark.parametrize("where", [("params", "U1"), ("params", "W2"), ("running_var",)])
def test_eval_of_an_lstm_with_a_misshapen_array_prints_one_error_line(small_corpus, tmp_path, capsys, where):
    """Every array of a saved LSTM must have the shape init_params gives its input width, or eval names the file."""
    out = tmp_path / "out"
    out.mkdir()
    path = out / "model_visual.json"
    save_model(trained("lstm"), path, {"train_mean": 5.0, "window": 4, "q": 2})
    payload = json.loads(path.read_text())
    node = payload["model"]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = node[where[-1]][:-1]  # one row (or value) fewer
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    args = ["--corpus", str(small_corpus), "--out", str(out), "--modality", "visual", "--seed", "1"]
    assert main(["eval", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {path}: damaged lstm model") and where[-1] in err and err.count("\n") == 1, err


# a number json reads as non-finite, at a place of each kind's model file: (kind, key path, literal)
NON_FINITE = {
    "svr_alpha_1e999": ("svr", ["model", "alpha", 0], "1e999"),
    "svr_bias_nan": ("svr", ["model", "bias"], "NaN"),
    "reptree_root_-1e999": ("reptree", ["model", "tree", "value"], "-1e999"),
    "reptree_train_mean_1e999": ("reptree", ["extra", "train_mean"], "1e999"),
    "lstm_weight_infinity": ("lstm", ["model", "params", "W1", 1, 0], "Infinity"),
}


@pytest.mark.parametrize("how", sorted(NON_FINITE))
def test_eval_of_a_model_with_a_non_finite_number_prints_one_error_line(small_corpus, tmp_path, capsys, how):
    """json reads 1e999 as inf and NaN/Infinity as themselves; eval names the file and the number's place."""
    kind, where, literal = NON_FINITE[how]
    out = tmp_path / "out"
    modality = {"svr": "text:BOOL", "reptree": "behavioral", "lstm": "visual"}[kind]
    args = ["--corpus", str(small_corpus), "--out", str(out), "--modality", modality, "--seed", "1"]
    if kind == "lstm":  # the model is refused before any window store is read
        out.mkdir()
        save_model(trained("lstm"), out / "model_visual.json", {"train_mean": 5.0, "window": 4, "q": 2})
    else:
        assert main(["extract", *args]) == 0
        assert main(["train", *args]) == 0
    path = out / f"model_{modality.replace(':', '_')}.json"
    payload = json.loads(path.read_text())
    node = payload
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = 123456.5  # a marker that the dump writes as itself
    text = json.dumps(payload)
    assert text.count("123456.5") == 1
    path.write_text(text.replace("123456.5", literal))
    capsys.readouterr()
    assert main(["eval", *args]) == 2
    err = capsys.readouterr().err
    place = where[0] + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in where[1:])
    assert err == f"ERROR {path}: damaged {kind} model (non-finite number at {place})\n", err
