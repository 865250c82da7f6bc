"""Integration: the full Section IV-B text pipeline, corpus → clusters."""

import numpy as np
import pytest

from repro.api import LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.yahoo import YahooAnswersSynthesizer, corpus_to_dataset
from repro.kmodes.kmodes import KModes
from repro.metrics.purity import cluster_purity


@pytest.fixture(scope="module")
def pipeline():
    corpus = YahooAnswersSynthesizer(n_topics=40, label_noise=0.1, seed=17).generate(
        900
    )
    dataset = corpus_to_dataset(corpus, tfidf_threshold=0.3)
    return corpus, dataset


class TestPipeline:
    def test_dataset_is_binary_presence(self, pipeline):
        _, dataset = pipeline
        assert set(np.unique(dataset.X)) <= {0, 1}

    def test_kmodes_beats_chance(self, pipeline):
        corpus, dataset = pipeline
        model = KModes(n_clusters=corpus.n_topics, max_iter=10, seed=0).fit(dataset.X)
        purity = cluster_purity(model.labels_, dataset.labels)
        chance = np.bincount(dataset.labels).max() / dataset.n_items
        assert purity > 3 * chance

    def test_mh_kmodes_matches_kmodes_purity(self, pipeline):
        # Figure 9e: nearly identical purity at a fraction of the time.
        corpus, dataset = pipeline
        rng = np.random.default_rng(0)
        init = dataset.X[rng.choice(dataset.n_items, corpus.n_topics, replace=False)]
        exact = KModes(n_clusters=corpus.n_topics, max_iter=10, seed=0).fit(
            dataset.X, initial_modes=init
        )
        accelerated = MHKModes(
            n_clusters=corpus.n_topics,
            lsh=LSHSpec(bands=1, rows=1, seed=0),
            train=TrainSpec(max_iter=10),
            absent_code=0,
        ).fit(dataset.X, initial_centroids=init)
        exact_purity = cluster_purity(exact.labels_, dataset.labels)
        mh_purity = cluster_purity(accelerated.labels_, dataset.labels)
        assert mh_purity > 0.85 * exact_purity

    def test_mh_shortlists_far_below_topic_count(self, pipeline):
        corpus, dataset = pipeline
        model = MHKModes(
            n_clusters=corpus.n_topics,
            lsh=LSHSpec(bands=1, rows=1, seed=0),
            train=TrainSpec(max_iter=10),
            absent_code=0,
        ).fit(dataset.X)
        assert np.nanmean(model.stats_.shortlist_sizes) < corpus.n_topics / 5

    def test_lower_threshold_widens_and_slows(self, pipeline):
        corpus, _ = pipeline
        wide = corpus_to_dataset(corpus, tfidf_threshold=0.2)
        narrow = corpus_to_dataset(corpus, tfidf_threshold=0.6)
        assert wide.n_attributes > narrow.n_attributes


class TestLabelNoiseCeiling:
    def test_label_noise_caps_achievable_purity(self):
        # With 30 % wrong labels even a perfect clustering of the true
        # topics scores at most ~0.7 against the noisy ground truth.
        corpus = YahooAnswersSynthesizer(
            n_topics=20, label_noise=0.3, seed=23
        ).generate(800)
        perfect_purity = cluster_purity(corpus.true_topics, corpus.topics)
        assert perfect_purity < 0.78
