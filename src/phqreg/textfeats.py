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

import numpy as np

from .corpus import Speaker, read_text

MODES = ("BOOL", "TFIDF")


def build_document(turns) -> list[str]:
    """All participant tokens of a session's turns in order, lowercased."""
    return [tok.lower() for t in turns if t.speaker is Speaker.PARTICIPANT for tok in t.text]


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
    """Text format: one ``token v1 ... vd`` per line; d inferred from line 1.

    Non-empty, every vector d wide and finite, and every token listed once.
    A first line of two integers followed by a wider vector is refused as a
    word2vec ``<count> <dim>`` header line.
    """
    vectors, first_seen = {}, {}  # token -> line it is listed on
    dim = header = None  # header: the line number of a first line that may be a word2vec header
    for lineno, raw in enumerate(read_text(path, ValueError).splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        if dim is None:
            dim = len(parts) - 1
            if dim < 1:
                raise ValueError(f"{path}:{lineno}: no vector components")
            if len(parts) == 2 and all(p.isdecimal() for p in parts):
                header = lineno
        if len(parts) - 1 != dim:
            if header is not None and len(vectors) == 1 and len(parts) > 2:
                raise ValueError(
                    f"{path}:{header}: the line looks like a word2vec '<count> <dim>' header, not a vector; remove it"
                )
            raise ValueError(f"{path}:{lineno}: expected {dim} components, got {len(parts) - 1}")
        try:
            vector = np.array([float(v) for v in parts[1:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric component in the vector of {parts[0]!r}") from None
        if not np.isfinite(vector).all():
            raise ValueError(f"{path}:{lineno}: non-finite component in the vector of {parts[0]!r}")
        if parts[0] in first_seen:
            raise ValueError(f"{path}:{lineno}: token {parts[0]!r} listed twice (first on line {first_seen[parts[0]]})")
        first_seen[parts[0]] = lineno
        vectors[parts[0]] = vector
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
