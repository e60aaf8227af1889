import math
import re

import numpy as np
import pytest

from phqreg.corpus import Speaker, TurnRecord
from phqreg.textfeats import (
    build_document,
    build_vocabulary,
    embed_average,
    idf_weights,
    load_embeddings,
    vectorize,
)


def turns_of(*turn_texts, speakers=None):
    turns = []
    t = 0.0
    for i, text in enumerate(turn_texts):
        spk = Speaker.PARTICIPANT if speakers is None else speakers[i]
        turns.append(TurnRecord(t, t + 1.0, spk, tuple(text.split())))
        t += 1.5
    return tuple(turns)


class TestBuildDocument:
    def test_concatenation_lowercased(self):
        s = turns_of("I Feel", "<laughter> OK")
        assert build_document(s) == ["i", "feel", "<laughter>", "ok"]

    def test_agent_turns_excluded(self):
        s = turns_of("hello there", "fine", speakers=[Speaker.AGENT, Speaker.PARTICIPANT])
        assert build_document(s) == ["fine"]

    def test_empty_participant_side(self):
        s = turns_of("hi", speakers=[Speaker.AGENT])
        assert build_document(s) == []

    def test_annotation_is_ordinary_token(self):
        docs = [build_document(turns_of("<sigh> ok")), build_document(turns_of("ok ok"))]
        vocab = build_vocabulary(docs)
        assert "<sigh>" in vocab


class TestVectorize:
    def test_idf_of_ubiquitous_term_is_one(self):
        docs = [["a", "b"], ["a", "c"]]
        vocab = build_vocabulary(docs)
        idf = idf_weights(docs, vocab)
        assert idf[vocab["a"]] == pytest.approx(1.0, abs=1e-15)

    def test_tfidf_matches_hand_computation(self):
        docs = [["x", "x", "x", "a"], ["a", "b"]]
        vocab = build_vocabulary(docs)
        idf = idf_weights(docs, vocab)
        mat = vectorize(docs, vocab, "TFIDF", idf)
        assert mat[0, vocab["x"]] == pytest.approx(3.0 * (math.log(2.0) + 1.0), abs=1e-15)
        assert mat[0, vocab["a"]] == pytest.approx(1.0, abs=1e-15)

    def test_bool_ignores_frequency(self):
        docs = [["w"] * 5]
        vocab = build_vocabulary(docs)
        mat = vectorize(docs, vocab, "BOOL")
        assert mat[0, vocab["w"]] == 1.0

    def test_bool_entries_binary_tfidf_nonnegative(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        docs = [[words[rng.integers(30)] for _ in range(rng.integers(1, 50))] for _ in range(10)]
        vocab = build_vocabulary(docs)
        b = vectorize(docs, vocab, "BOOL")
        assert set(np.unique(b)) <= {0.0, 1.0}
        idf = idf_weights(docs, vocab)
        assert np.all(idf >= 1.0)
        assert np.all(vectorize(docs, vocab, "TFIDF", idf) >= 0.0)

    def test_oov_tokens_ignored(self):
        train = [["a", "b"]]
        vocab = build_vocabulary(train)
        idf = idf_weights(train, vocab)
        mat = vectorize([["a", "zzz"]], vocab, "TFIDF", idf)
        assert mat.shape == (1, 2)
        assert mat[0, vocab["a"]] > 0

    def test_token_order_permutation_invariance(self):
        rng = np.random.default_rng(3)
        doc = [f"w{rng.integers(8)}" for _ in range(40)]
        shuffled = list(rng.permutation(doc))
        vocab = build_vocabulary([doc])
        idf = idf_weights([doc], vocab)
        for mode in ("BOOL", "TFIDF"):
            np.testing.assert_array_equal(
                vectorize([doc], vocab, mode, idf), vectorize([shuffled], vocab, mode, idf)
            )

    def test_training_only_vocabulary_no_leakage(self):
        train = [["a", "b"], ["b", "c"]]
        vocab = build_vocabulary(train)
        idf = idf_weights(train, vocab)
        dev_a = vectorize([["a", "b"]], vocab, "TFIDF", idf)
        dev_b = vectorize([["a", "b", "devonly"]], vocab, "TFIDF", idf)
        assert "devonly" not in vocab
        np.testing.assert_array_equal(dev_a, dev_b)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            vectorize([["a"]], build_vocabulary([]), "BOOL")


class TestEmbeddings:
    def table(self):
        return {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])}

    def test_single_known_token(self):
        np.testing.assert_array_equal(embed_average(["a"], self.table()), [1.0, 0.0])

    def test_weighted_by_repetition(self):
        got = embed_average(["a", "a", "b"], self.table())
        np.testing.assert_allclose(got, [2.0 / 3.0, 2.0 / 3.0])

    def test_annotations_skipped_all_absent_zero(self):
        got = embed_average(["<sigh>", "<laughter>"], self.table())
        np.testing.assert_array_equal(got, [0.0, 0.0])

    def test_load_text_format(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("hello 0.5 -1.0 2.0\nworld 1.0 1.0 1.0\n", encoding="utf-8")
        table = load_embeddings(p)
        assert sorted(table) == ["hello", "world"]
        assert {len(v) for v in table.values()} == {3}
        np.testing.assert_allclose(table["hello"], [0.5, -1.0, 2.0])

    def test_load_ragged_rejected(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("hello 0.5 1.0\nworld 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_embeddings(p)

    @pytest.mark.parametrize("component", ["x", "nan", "inf", "-inf"])
    def test_bad_component_names_file_and_line(self, tmp_path, component):
        p = tmp_path / "emb.txt"
        p.write_text(f"hello 0.5 1.0\n\nworld 1.0 {component}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: non-(numeric|finite) component"):
            load_embeddings(p)

    def test_token_listed_twice_names_both_lines(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("hello 1 2 3\nworld 0 0 1\n\nhello 4 5 6\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:4: token 'hello' listed twice \\(first on line 1\\)$"):
            load_embeddings(p)

    @pytest.mark.parametrize("text", ["2 3\nhello 1 2 3\nworld 1 2 3\n", "\n2 3\n\nhello 1 2 3\n"])
    def test_word2vec_header_line_is_named(self, tmp_path, text):
        p = tmp_path / "emb.txt"
        p.write_text(text, encoding="utf-8")
        line = text.splitlines().index("2 3") + 1
        want = f"^{re.escape(str(p))}:{line}: the line looks like a word2vec '<count> <dim>' header"
        with pytest.raises(ValueError, match=want):
            load_embeddings(p)

    def test_one_component_table_of_integers_loads(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 3\nhello 4\n", encoding="utf-8")
        table = load_embeddings(p)
        assert sorted(table) == ["2", "hello"]
        assert table["2"].tolist() == [3.0] and table["hello"].tolist() == [4.0]
