"""Document-level text representations of the participant's side.

A session document is the concatenation of all participant tokens,
lowercased, with ``<...>`` annotations kept as ordinary tokens. Three
representations:

    BOOL    1 iff the token occurs in the document
    TFIDF   raw term count * idf, idf(t) = ln(n_docs / doc_freq(t)) + 1
    WE      average of pre-trained word vectors (annotations and other
            out-of-table tokens are skipped; all-absent doc -> zero vector)

build_vocabulary and idf_weights are given the training documents only;
vectorize maps any documents onto that vocabulary and ignores
out-of-vocabulary tokens. load_embeddings gives the token -> vector dict
that embed_average reads.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from .corpus import Session, Speaker

MODES = ("BOOL", "TFIDF")


def build_document(session: Session) -> list[str]:
    """All participant tokens in order, lowercased."""
    return [tok.lower() for t in session.turns if t.speaker is Speaker.PARTICIPANT for tok in t.text]


def build_vocabulary(docs) -> dict[str, int]:
    """token -> column for the unique tokens of the training documents, in sorted order."""
    return {tok: i for i, tok in enumerate(sorted({tok for doc in docs for tok in doc}))}


def idf_weights(docs, vocab: dict[str, int]) -> np.ndarray:
    """idf(t) = ln(n_docs / doc_freq(t)) + 1 over the training documents."""
    docs = list(docs)
    df = np.zeros(len(vocab))
    for doc in docs:
        for tok in set(doc):
            i = vocab.get(tok)
            if i is not None:
                df[i] += 1
    idf = np.ones(len(vocab))
    seen = df > 0
    idf[seen] = np.log(len(docs) / df[seen]) + 1.0
    return idf


def vectorize(docs, vocab: dict[str, int], mode: str, idf: np.ndarray | None = None) -> np.ndarray:
    """Bag-of-words matrix (n_docs x |V|) in BOOL or TFIDF mode.

    TFIDF requires idf weights fitted on the training corpus.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if len(vocab) == 0:
        raise ValueError("empty vocabulary")
    if mode == "TFIDF":
        if idf is None:
            raise ValueError("TFIDF mode requires idf weights")
        if len(idf) != len(vocab):
            raise ValueError("idf length does not match vocabulary size")

    docs = list(docs)
    out = np.zeros((len(docs), len(vocab)))
    for r, doc in enumerate(docs):
        counts = Counter(doc)
        for tok, c in counts.items():
            i = vocab.get(tok)
            if i is None:
                continue
            out[r, i] = 1.0 if mode == "BOOL" else float(c)
    if mode == "TFIDF":
        out *= idf
    return out


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Text format: one ``token v1 ... vd`` per line; d inferred from line 1. Non-empty, every vector d wide."""
    vectors = {}
    dim = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        if dim is None:
            dim = len(parts) - 1
            if dim < 1:
                raise ValueError(f"{path}:{lineno}: no vector components")
        if len(parts) - 1 != dim:
            raise ValueError(f"{path}:{lineno}: expected {dim} components, got {len(parts) - 1}")
        vectors[parts[0]] = np.array([float(v) for v in parts[1:]])
    if dim is None:
        raise ValueError(f"{path}: empty embedding table")
    return vectors


def embed_average(doc, vectors: dict[str, np.ndarray]) -> np.ndarray:
    """Mean of the vectors of in-table tokens; zero vector if none are found."""
    if not vectors:
        raise ValueError("empty embedding table")
    found = [vectors[tok] for tok in doc if tok in vectors]
    if not found:
        return np.zeros_like(next(iter(vectors.values())))
    return np.mean(found, axis=0)
