"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import sys
from contextlib import contextmanager

import numpy as np

from phqreg.audio import GROUP_COLUMNS, session_acoustic_vector
from phqreg.cli import main
from phqreg.corpus import AudioSignal, Session, Speaker, TurnRecord
from phqreg.face import fit_pca, window_sequence
from phqreg.metrics import evs, mae, rmse
from phqreg.models.lstm import LstmModel, init_params, lstm_train
from phqreg.models.reptree import grow_tree, prune_tree, reptree_train
from phqreg.models.svr import kernel_matrix, svr_train
from phqreg.relief import relief_weights
from phqreg.turns import BEHAVIORAL_NAMES, behavioral_vector

from test_face import geometric_vector, make_sequence, normalize_landmarks, windows_oracle
from test_lstm import gradient_check
from test_metrics import brute_force_metrics
from test_pipeline import read_predictions
from test_relief import relief_oracle
from test_svr import qp_oracle, svr_dual_objective


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def synthetic_session(rate=16000):
    dur = 2.6
    samples = np.zeros(int(dur * rate))
    spans = ((0.2, 1.2), (1.5, 2.5))
    for lo, hi in spans:
        i, j = int(lo * rate), int(hi * rate)
        t = np.arange(j - i) / rate
        samples[i:j] = 0.4 * (2.0 * ((170.0 * t) % 1.0) - 1.0)
    turns = (
        TurnRecord(spans[0][0], spans[0][1], Speaker.PARTICIPANT, ("well", "ok")),
        TurnRecord(1.25, 1.45, Speaker.AGENT, ("and",)),
        TurnRecord(spans[1][0], spans[1][1], Speaker.PARTICIPANT, ("fine",)),
    )
    return Session(id="acc", turns=turns, audio=AudioSignal(samples, rate))


def test_01_acoustic_dimension_parity():
    with criterion(1, "acoustic dimensions 864/288/288/1440"):
        s = synthetic_session()
        m = session_acoustic_vector(s).values
        assert len(m[GROUP_COLUMNS["S"]]) == 864
        assert len(m[GROUP_COLUMNS["P"]]) == 288
        assert len(m[GROUP_COLUMNS["VQ"]]) == 288
        assert len(m) == 1440


def test_02_behavioral_dimension_and_pdi_range():
    with criterion(2, "behavioral vector dim 12, PDI in {-1,0,1}^3"):
        turns = (
            TurnRecord(0.0, 1.0, Speaker.AGENT, ("have", "you", "been", "depressed")),
            TurnRecord(1.4, 2.2, Speaker.PARTICIPANT, ("no", "never")),
            TurnRecord(2.5, 3.5, Speaker.AGENT, ("how", "was", "today")),
            TurnRecord(4.0, 5.0, Speaker.PARTICIPANT, ("um", "good", "<laughter>")),
            TurnRecord(5.3, 6.0, Speaker.PARTICIPANT, ("yeah",)),
        )
        vec = behavioral_vector(turns)
        assert len(BEHAVIORAL_NAMES) == 12 and len(vec) == 12
        assert set(vec[9:].tolist()) <= {-1.0, 0.0, 1.0}


def test_03_geometric_vector_and_pca():
    with criterion(3, "geometric 2482 + normalization + PCA rank/variance"):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pts = normalize_landmarks(rng.normal(0, 25, (68, 3)))
            assert np.linalg.norm(pts.mean(axis=0)) < 1e-12
            assert abs(np.linalg.norm(pts, axis=1).mean() - 1.0) <= 1e-12
            assert len(geometric_vector(pts)) == 2482
        for r in (2, 3, 5):
            basis = np.linalg.qr(rng.normal(size=(30, r)))[0]
            X = (rng.normal(size=(300, r)) * np.linspace(3.0, 1.0, r)) @ basis.T
            pca = fit_pca([X], 0.995)
            assert pca.q == r
            assert pca.explained_ratio >= 0.995


def test_04_metrics_against_brute_force():
    with criterion(4, "metrics oracle 1e-12, EVS shift-invariance exact"):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 25))
            y = rng.normal(0, 8, n)
            yhat = rng.normal(0, 8, n)
            want = brute_force_metrics(y.tolist(), yhat.tolist())
            assert abs(rmse(y, yhat) - want[0]) <= 1e-12
            assert abs(mae(y, yhat) - want[1]) <= 1e-12
            assert abs(evs(y, yhat) - want[2]) <= 1e-12
        # integer scores and a power-of-two length keep the arithmetic exact
        y = [3.0, 7.0, 11.0, 2.0]
        yhat = [4.0, 6.0, 12.0, 2.0]
        assert evs(y, yhat) == evs(y, [v + 5.0 for v in yhat])
        assert evs(y, y) == 1.0


def test_05_tfidf_hand_computed():
    with criterion(5, "tf-idf matches Eqs on toy corpus to 1e-12"):
        from phqreg.textfeats import build_vocabulary, idf_weights, vectorize

        docs = [["the", "cat", "sat"], ["the", "dog", "sat", "sat"], ["the", "mat"]]
        vocab = build_vocabulary(docs)
        idf = idf_weights(docs, vocab)
        mat = vectorize(docs, vocab, "TFIDF", idf)
        ln = np.log
        assert abs(idf[vocab["the"]] - 1.0) <= 1e-12
        assert abs(idf[vocab["cat"]] - (ln(3.0) + 1.0)) <= 1e-12
        assert abs(idf[vocab["sat"]] - (ln(3.0 / 2.0) + 1.0)) <= 1e-12
        assert abs(mat[1, vocab["sat"]] - 2.0 * (ln(1.5) + 1.0)) <= 1e-12
        assert abs(mat[0, vocab["the"]] - 1.0) <= 1e-12
        assert mat[2, vocab["dog"]] == 0.0


def test_06_relief_ranking_and_oracle():
    with criterion(6, "Relief informative-first >=95/100 seeds + oracle 1e-9"):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = np.array([0, 1] * 50)
            X = rng.normal(0, 1, (100, 10))
            X[:, 0] += 2.0 * y
            w = relief_weights(X, y, k=20)
            wins += int(np.argmax(w) == 0)
        assert wins >= 95
        rng = np.random.default_rng(7)
        for n in (12, 20, 30):
            X = rng.normal(0, 1, (n, 5))
            y = np.array([0, 1] * (n // 2))
            got = relief_weights(X, y, k=3)
            assert np.max(np.abs(got - relief_oracle(X, y, 3))) <= 1e-9


def test_07_svr_feasibility_and_small_qp():
    with criterion(7, "SVR dual feasibility + 5-point QP oracle 1e-6 + tube"):
        rng = np.random.default_rng(2)
        for kernel, gamma in (("linear", 0.0), ("rbf", 0.5)):
            X = rng.normal(0, 1, (20, 3))
            y = rng.normal(0, 5, 20)
            m = svr_train(X, y, kernel=kernel, C=1.0, gamma=gamma, epsilon=0.1)
            assert np.all((m.alpha >= -1e-9) & (m.alpha <= 1.0 + 1e-9))
            assert np.all((m.alpha_star >= -1e-9) & (m.alpha_star <= 1.0 + 1e-9))
            assert abs((m.alpha - m.alpha_star).sum()) <= 1e-6

        X5 = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
        y5 = np.array([0.3, 1.2, -0.2, 1.9, 1.1])
        m = svr_train(X5, y5, kernel="rbf", C=1.0, gamma=0.01, epsilon=0.1, tol=1e-10)
        K = kernel_matrix("rbf", m.train_X, m.train_X, 0.01)
        dual = svr_dual_objective(K, y5, 0.1, m.alpha, m.alpha_star)
        assert abs(dual - qp_oracle(K, y5, 1.0, 0.1)) <= 1e-6

        Xl = np.linspace(0, 1, 12).reshape(-1, 1)
        yl = 4.0 * Xl[:, 0] - 1.0
        ml = svr_train(Xl, yl, kernel="linear", C=100.0, epsilon=0.1, tol=1e-8)
        assert np.max(np.abs(ml.predict(Xl) - yl)) <= 0.1 + 1e-6


def test_08_reptree_pruning_property():
    with criterion(8, "REPTree pruning never hurts pruning SSE (100 seeds)"):
        import copy

        from test_reptree import sse_oracle

        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(60, 4))
            y = rng.normal(size=60)
            order = rng.permutation(60)
            prune_idx, grow_idx = order[:20], order[20:]
            tree = grow_tree(X[grow_idx], y[grow_idx])
            unpruned = copy.deepcopy(tree)
            prune_tree(tree, X[prune_idx], y[prune_idx])
            assert sse_oracle(tree, X[prune_idx], y[prune_idx]) <= sse_oracle(
                unpruned, X[prune_idx], y[prune_idx]
            ) + 1e-12
        m = reptree_train(np.zeros((10, 2)), np.full(10, 5.0), seed=0)
        assert m.tree.is_leaf


def test_09_lstm_gradient_training_windows():
    with criterion(9, "LSTM gradcheck <1e-4 + planted 90% drop + window oracle"):
        rng = np.random.default_rng(3)
        model = LstmModel(init_params(3, 7), np.full(16, 0.1), np.full(16, 0.9))
        assert gradient_check(model, rng.normal(size=(4, 3)), 1.3, h=1e-5) < 1e-4

        X = rng.normal(size=(256, 6, 3))
        y = 3.0 * X[:, :, 0].mean(axis=1)
        trained = lstm_train(X, y, 100, 3)
        assert min(trained.curve) <= 0.10 * trained.curve[0]

        pca = fit_pca([np.asarray([
            geometric_vector(normalize_landmarks(rng.normal(0, 20, (68, 3)))) for _ in range(40)
        ])], 0.99)
        for trial in range(10):
            n = int(rng.integers(60, 200))
            fails = rng.choice(n, size=int(rng.integers(0, 5)), replace=False)
            seq = make_sequence(n, fail_at=fails, rng=np.random.default_rng(trial))
            batch = window_sequence(seq, pca, 60, 30)
            _, want = windows_oracle(seq, pca, 60, 30)
            assert batch.windows.shape == want.shape and batch.windows.tobytes() == want.tobytes()


def test_10_end_to_end_beats_baseline(tmp_path):
    with criterion(10, "end-to-end behavioral beats mean baseline by >=20%"):
        from phqreg.metrics import mae as mae_fn

        ini = tmp_path / "synth.ini"
        ini.write_text("[synth]\nmodalities = transcript\n", encoding="utf-8")
        for seed in (1, 2, 3, 4, 5):
            root = str(tmp_path / f"c{seed}")
            out = str(tmp_path / f"o{seed}")
            args = ["--corpus", root, "--out", out, "--modality", "behavioral", "--seed", str(seed)]
            assert main(["synth", "--config", str(ini), "--corpus", root, "--seed", str(seed)]) == 0
            assert main(["extract"] + args) == 0
            assert main(["train"] + args) == 0
            assert main(["eval"] + args) == 0
            _, y, yhat = read_predictions(f"{out}/predictions_behavioral_dev.csv")
            _, ytr, _ = read_predictions(f"{out}/predictions_behavioral_train.csv")
            model_mae = mae_fn(y, yhat)
            baseline_mae = mae_fn(y, np.full(len(y), ytr.mean()))
            assert model_mae <= 0.80 * baseline_mae, (seed, model_mae, baseline_mae)


def test_11_determinism_byte_identical(tmp_path):
    with criterion(11, "identical config+seed -> byte-identical artifacts"):
        import hashlib
        from phqreg.config import load_config
        from phqreg.pipeline import run_eval, run_extract, run_train
        from phqreg.synth import SynthSpec, gen_synthetic

        root = tmp_path / "corpus"
        cfg = load_config(None, {"root": str(root), "out_dir": str(tmp_path / "out"),
                                 "modality": "behavioral", "seed": 99})
        spec = SynthSpec(n_train=12, n_dev=5, modalities=("transcript",), turn_pairs=6)
        snapshots = []
        for _ in range(2):
            gen_synthetic(spec, root, seed=99)
            run_extract(cfg)
            run_train(cfg)
            run_eval(cfg)
            files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
            snapshots.append({str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in files})
        assert snapshots[0] == snapshots[1]


def test_12_visual_beats_baseline(tmp_path):
    with criterion(12, "end-to-end visual LSTM beats the mean-baseline dev RMSE"):
        from phqreg.config import load_config
        from phqreg.pipeline import run_eval, run_extract, run_train
        from phqreg.synth import SynthSpec, gen_synthetic

        # a window-rich landmark corpus, trained for the paper's 100 epochs:
        # on the default corpus most dev sessions have no clean window
        spec = SynthSpec(n_train=12, n_dev=8, depressed_fraction_train=0.5, depressed_fraction_dev=0.5,
                         modalities=("landmarks",), landmark_fps=2.0, turn_pairs=18, fail_prob=0.002)
        for seed in (1, 2, 3):
            root = tmp_path / f"c{seed}"
            gen_synthetic(spec, root, seed=seed)
            cfg = load_config(None, {"root": str(root), "out_dir": str(tmp_path / f"o{seed}"),
                                     "modality": "visual", "seed": seed})
            run_extract(cfg)
            run_train(cfg)
            rows = run_eval(cfg)
            assert rows["dev_rmse"] < rows["dev_rmse_baseline"], (seed, rows["dev_rmse"], rows["dev_rmse_baseline"])
