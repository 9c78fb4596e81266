"""InferenceEngine: exact serving, micro-batching, LRU, ranking, cold start."""

import numpy as np
import pytest

from repro.core import CATEHGN
from repro.eval.runner import default_cate_config
from repro.hetnet.structure import BatchStructure
from repro.serve import InferenceEngine, LRUCache, restore_catehgn
from repro.tensor import reset_tape_node_counter, tape_nodes_created


@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    config = default_cate_config(dim=16, seed=0, outer_iters=2, mini_iters=2)
    return CATEHGN(config).fit(tiny_dataset)


@pytest.fixture(scope="module")
def engine(fitted, tmp_path_factory):
    path = fitted.save_checkpoint(tmp_path_factory.mktemp("ckpt") / "model")
    return InferenceEngine.from_checkpoint(path, cache_size=32,
                                           micro_batch=17)


# ----------------------------------------------------------------------
class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)  # refreshes "a"
        cache.put("c", 3)                   # evicts "b"
        assert cache.get("b")[0] is False
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)

    def test_hit_rate(self):
        cache = LRUCache(4)
        cache.put(1, "x")
        cache.get(1)
        cache.get(2)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put(1, "x")
        assert cache.get(1)[0] is False


# ----------------------------------------------------------------------
class TestPrediction:
    def test_bulk_matches_estimator_bitwise(self, fitted, engine):
        reference = fitted.predict()
        served = engine.predict(np.arange(engine.num_papers))
        assert np.array_equal(reference, served)

    def test_predict_all_matches_estimator_bitwise(self, fitted, engine):
        assert np.array_equal(fitted.predict(), engine.predict_all())

    def test_micro_batching_is_invisible(self, fitted, engine):
        # micro_batch=17 forces several chunks over 40 ids; results must
        # be independent of the chunking.
        ids = np.arange(40)
        assert np.array_equal(fitted.predict()[ids], engine.predict(ids))

    def test_cache_hits_on_repeat(self, engine):
        engine.cache.clear()
        first = engine.predict([2, 4, 6])
        hits_before = engine.cache.hits
        second = engine.predict([2, 4, 6])
        assert engine.cache.hits == hits_before + 3
        assert np.array_equal(first, second)

    def test_out_of_range_rejected(self, engine):
        with pytest.raises(IndexError):
            engine.predict([engine.num_papers])
        with pytest.raises(IndexError):
            engine.predict([-1])

    def test_serving_is_tape_free(self, engine):
        engine.cache.clear()
        reset_tape_node_counter()
        engine.predict(np.arange(25))
        engine.rank("author", k=5)
        assert tape_nodes_created() == 0


# ----------------------------------------------------------------------
class TestRanking:
    def test_topk_sorted_and_sized(self, engine):
        ranking = engine.rank("paper", k=5)
        assert len(ranking) == 5
        scores = [r["score"] for r in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_matches_node_impacts(self, fitted, engine):
        impacts = fitted.node_impacts("author")
        best = int(np.argmax(impacts))
        assert engine.rank("author", k=1)[0]["id"] == best

    def test_cluster_scoped(self, fitted, engine):
        impacts = fitted.node_impacts("venue", cluster=1)
        best = int(np.argmax(impacts))
        assert engine.rank("venue", k=1, cluster=1)[0]["id"] == best

    def test_unknown_type_rejected(self, engine):
        with pytest.raises(KeyError):
            engine.rank("galaxy")

    def test_k_clamped(self, engine):
        assert len(engine.rank("venue", k=10_000)) == \
            engine.batch.num_nodes["venue"]


# ----------------------------------------------------------------------
#: ``score_title`` answers as ``float.hex``, recorded on the module's
#: seeded checkpoint before titles were scored in a template batch built
#: at freeze (and before the forward skipped node types with no nodes).
#: The cold-start path must keep every one of them bitwise.
TITLE_GOLDENS = {
    "heterogeneous graph neural networks for citation prediction":
        "0x1.533601de6225ap+2",
    "stream processing over data systems": "0x1.522af57972c5ep+2",
    "data mining": "0x1.4f690a28d0985p+2",
    "zzzxqj wvvkpt": "0x1.5666374d0dc69p+2",
}
#: The same titles on a checkpoint without CA and without label inputs.
PLAIN_TITLE_GOLDENS = {
    "heterogeneous graph neural networks for citation prediction":
        "0x1.531ce81fa6623p+2",
    "stream processing over data systems": "0x1.52a853482697bp+2",
    "data mining": "0x1.4ee569107bbacp+2",
    "zzzxqj wvvkpt": "0x1.5931e9d8c598ep+2",
}


@pytest.fixture(scope="module")
def plain_engine(tiny_dataset, tmp_path_factory):
    config = default_cate_config(dim=16, seed=0, outer_iters=2, mini_iters=2,
                                 use_ca=False, use_label_inputs=False)
    fitted = CATEHGN(config).fit(tiny_dataset)
    path = fitted.save_checkpoint(tmp_path_factory.mktemp("plain") / "model")
    return InferenceEngine.from_checkpoint(path, cache_size=0)


class TestColdStart:
    def test_title_goldens_bitwise(self, engine, plain_engine):
        for eng, goldens in ((engine, TITLE_GOLDENS),
                             (plain_engine, PLAIN_TITLE_GOLDENS)):
            got = {title: eng.score_title(title).hex() for title in goldens}
            assert got == goldens

    def test_titles_build_no_structure(self, engine):
        engine.score_title("warm up")
        before = BatchStructure.builds
        engine.score_title("data mining")
        engine.score_title("stream processing")
        assert BatchStructure.builds == before

    def test_unseen_title_scores(self, engine):
        score = engine.score_title("heterogeneous graph neural networks "
                                   "for citation prediction")
        assert np.isfinite(score) and score >= 0.0

    def test_deterministic(self, engine):
        a = engine.score_title("stream processing over data systems")
        b = engine.score_title("stream processing over data systems")
        assert a == b

    def test_accepts_pretokenized(self, engine):
        a = engine.score_title(["data", "mining"])
        b = engine.score_title("data mining")
        assert a == b

    def test_out_of_vocabulary_title(self, engine):
        # Fully unknown tokens -> zero embedding -> still a valid score.
        score = engine.score_title("zzzxqj wvvkpt")
        assert np.isfinite(score) and score >= 0.0


# ----------------------------------------------------------------------
def test_info_shape(engine, tiny_dataset):
    info = engine.info()
    assert info["num_papers"] == tiny_dataset.num_papers
    assert info["cold_start"] is True
    assert info["freeze_seconds"] > 0
