"""Distributional masked language model — the pre-trained-BERT stand-in.

The TE module (Section III-E1) uses BERT's masked-LM head only as a black
box: mask each occurrence of a research-domain name and read the probability
``p(u | z)`` of every vocabulary term filling the slot (Eq. 23), then keep
the top-κ terms.  A term fills the same slots as "data mining" precisely
when it is *distributionally similar* to it, so we reproduce the oracle with
corpus statistics: the masked-slot distribution for a word w is the softmax
over its PPMI co-occurrence profile blended with the distributional cosine
similarity of full PPMI rows.  The public API matches what the TE module
needs from BERT and nothing more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .cooccurrence import cooccurrence_counts, ppmi
from .vocabulary import Vocabulary

if TYPE_CHECKING:
    from scipy import sparse


class DistributionalMLM:
    """Masked-slot term distribution from corpus co-occurrence statistics."""

    def __init__(self, vocabulary: Vocabulary, ppmi_matrix: sparse.csr_matrix,
                 temperature: float = 1.0) -> None:
        self.vocabulary = vocabulary
        self.ppmi = ppmi_matrix
        self.temperature = temperature
        # Row norms for cosine similarity of distributional profiles.
        norms = np.sqrt(np.asarray(self.ppmi.multiply(self.ppmi).sum(axis=1)).ravel())
        self._row_norms = np.maximum(norms, 1e-12)

    @classmethod
    def fit(cls, documents: Sequence[Sequence[int]], vocabulary: Vocabulary,
            window: int = 8, temperature: float = 1.0) -> "DistributionalMLM":
        counts = cooccurrence_counts(documents, len(vocabulary), window=window)
        return cls(vocabulary, ppmi(counts), temperature=temperature)

    # ------------------------------------------------------------------
    def _scores(self, token_id: int) -> np.ndarray:
        """Unnormalized slot-fill scores for masking occurrences of a token.

        Combines first-order association (the PPMI row: words seen next to
        w) with second-order similarity (cosine between PPMI profiles: words
        used in the same contexts as w).  Second-order similarity is what
        lets the model surface synonyms that rarely co-occur with w itself,
        mirroring BERT's behaviour on masked slots.
        """
        row = np.asarray(self.ppmi[token_id].todense()).ravel()
        profile = self.ppmi[token_id]
        # cosine(w, u) over sparse rows.
        dots = np.asarray(self.ppmi @ profile.T.todense()).ravel()
        cosine = dots / (self._row_norms * self._row_norms[token_id])
        scores = row / max(row.max(), 1e-12) + cosine
        scores[token_id] = 0.0  # a word does not predict itself
        return scores

    def mask_distribution(self, token: str) -> np.ndarray:
        """p(u | z) over the vocabulary for masked occurrences of ``token``.

        Softmax of the slot-fill scores (Eq. 23's final softmax).
        """
        token_id = self.vocabulary.get(token)
        if token_id < 0:
            return np.full(len(self.vocabulary), 1.0 / len(self.vocabulary))
        scores = self._scores(token_id) / self.temperature
        scores -= scores.max()
        exp = np.exp(scores)
        return exp / exp.sum()

    def top_terms(self, token: str, k: int) -> List[Tuple[str, float]]:
        """Top-``k`` (term, probability) pairs for the masked slot of ``token``.

        The hard-threshold-κ bootstrap of Section III-E1.
        """
        dist = self.mask_distribution(token)
        k = min(k, len(dist))
        top = np.argpartition(-dist, k - 1)[:k]
        top = top[np.argsort(-dist[top])]
        return [(self.vocabulary.token(int(i)), float(dist[i])) for i in top]
