"""Windowed co-occurrence statistics and PPMI weighting.

The positive pointwise mutual information (PPMI) matrix is the shared
backbone of two substitutions documented in DESIGN.md:

- :mod:`repro.text.embeddings` factorizes it with truncated SVD to obtain
  "pre-trained" word vectors (word2vec/GloVe are implicit factorizations of
  exactly this matrix — Levy & Goldberg 2014);
- :mod:`repro.text.mlm` reads its rows as the masked-slot distribution of a
  distributional language model (the BERT MLM stand-in).

``scipy.sparse`` is imported inside the functions that build matrices:
only fitting text artifacts needs it, and a serving process, which only
looks rows up in a fitted embedding table, should never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


def cooccurrence_counts(
    documents: Sequence[Sequence[int]],
    vocab_size: int,
    window: int = 8,
) -> sparse.csr_matrix:
    """Symmetric windowed co-occurrence counts.

    Paper titles are short, so the default window effectively counts all
    within-document pairs.
    """
    from scipy import sparse

    rows: list[int] = []
    cols: list[int] = []
    for doc in documents:
        n = len(doc)
        for i in range(n):
            hi = min(n, i + 1 + window)
            for j in range(i + 1, hi):
                rows.append(doc[i])
                cols.append(doc[j])
                rows.append(doc[j])
                cols.append(doc[i])
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sparse.coo_matrix(
        (data, (rows, cols)), shape=(vocab_size, vocab_size)
    )
    return matrix.tocsr()


def ppmi(counts: sparse.csr_matrix, shift: float = 0.0) -> sparse.csr_matrix:
    """Positive PMI: max(0, log(p(i,j) / (p(i) p(j))) - shift)."""
    from scipy import sparse

    counts = counts.tocoo()
    total = counts.data.sum()
    if total == 0:
        return sparse.csr_matrix(counts.shape)
    row_sums = np.asarray(counts.tocsr().sum(axis=1)).ravel()
    col_sums = np.asarray(counts.tocsr().sum(axis=0)).ravel()
    # PMI over the nonzero entries only (zero counts have PMI -inf -> 0).
    p_joint = counts.data / total
    p_row = row_sums[counts.row] / total
    p_col = col_sums[counts.col] / total
    pmi = np.log(p_joint / (p_row * p_col)) - shift
    positive = pmi > 0
    matrix = sparse.coo_matrix(
        (pmi[positive], (counts.row[positive], counts.col[positive])),
        shape=counts.shape,
    )
    return matrix.tocsr()
