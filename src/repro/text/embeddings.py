"""Corpus-derived word embeddings ("pre-trained" stand-in).

The paper uses aggregated pre-trained word embeddings as node features.
With no network access we fit our own on the corpus itself: truncated SVD of
the PPMI co-occurrence matrix, the classical count-based construction that
word2vec implicitly performs (Levy & Goldberg 2014).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .cooccurrence import cooccurrence_counts, ppmi
from .vocabulary import Vocabulary


class WordEmbeddings:
    """Dense word vectors with document aggregation helpers."""

    def __init__(self, vocabulary: Vocabulary, vectors: np.ndarray) -> None:
        if vectors.shape[0] != len(vocabulary):
            raise ValueError("vector rows must match vocabulary size")
        self.vocabulary = vocabulary
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.vocabulary.id(token)]

    def embed_tokens(self, tokens: Iterable[str]) -> np.ndarray:
        """Mean vector of the known tokens; zero vector when none known."""
        ids = [self.vocabulary.get(t) for t in tokens]
        ids = [i for i in ids if i >= 0]
        if not ids:
            return np.zeros(self.dim)
        mean = self.vectors[ids].mean(axis=0)
        norm = np.linalg.norm(mean)
        return mean / norm if norm > 0 else mean

    def embed_documents(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        return np.stack([self.embed_tokens(doc) for doc in documents])

    @classmethod
    def fit(
        cls,
        documents: Sequence[Sequence[int]],
        vocabulary: Vocabulary,
        dim: int = 32,
        window: int = 8,
        seed: int = 0,
    ) -> "WordEmbeddings":
        """Fit SVD-of-PPMI embeddings on tokenized (id-encoded) documents."""
        # Lazy: only fitting needs scipy; serving just looks rows up.
        from scipy.sparse.linalg import svds

        vocab_size = len(vocabulary)
        counts = cooccurrence_counts(documents, vocab_size, window=window)
        matrix = ppmi(counts)
        k = min(dim, vocab_size - 1)
        if k < 1 or matrix.nnz == 0:
            vectors = np.zeros((vocab_size, dim))
            return cls(vocabulary, vectors)
        # Deterministic start vector keeps embeddings reproducible.
        rng = np.random.default_rng(seed)
        v0 = rng.normal(size=min(matrix.shape))
        u, s, _ = svds(matrix.astype(np.float64), k=k, v0=v0)
        # svds returns ascending singular values; flip to descending.
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
        vectors = u * np.sqrt(s)
        if vectors.shape[1] < dim:
            pad = np.zeros((vocab_size, dim - vectors.shape[1]))
            vectors = np.hstack([vectors, pad])
        return cls(vocabulary, vectors)
