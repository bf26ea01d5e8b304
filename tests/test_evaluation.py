"""Exact-match metrics, aggregation, and the throughput benchmark."""

import time

import numpy as np
import pytest

from aste.data import Span, Triplet
from aste.errors import ValidationError
from aste.evaluation import (
    MIN_TIMED_S,
    RATIO_CAVEAT,
    MatchScores,
    aggregate,
    bench_distance,
    bench_summary,
    exact_match,
    score_corpus,
)


def t(a0, a1, o0, o1, s="POS"):
    return Triplet(Span(a0, a1), Span(o0, o1), s)


class TestExactMatch:
    def test_perfect_prediction(self):
        gold = {t(0, 0, 1, 1), t(2, 2, 3, 3), t(4, 5, 6, 6)}
        scores = exact_match(gold, gold)
        assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)

    def test_half_recall(self):
        scores = exact_match({t(0, 0, 1, 1)}, {t(0, 0, 1, 1), t(2, 2, 3, 3)})
        assert scores.precision == 1.0
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(2 / 3)

    def test_empty_prediction_zero_rule(self):
        scores = exact_match(set(), {t(0, 0, 1, 1), t(2, 2, 3, 3)})
        assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)

    def test_sentiment_must_match(self):
        scores = exact_match({t(0, 0, 1, 1, "POS")}, {t(0, 0, 1, 1, "NEG")})
        assert scores.matched == 0

    def test_swap_swaps_precision_recall(self):
        pred = {t(0, 0, 1, 1), t(2, 2, 3, 3)}
        gold = {t(0, 0, 1, 1), t(4, 4, 5, 5), t(6, 6, 7, 7)}
        forward = exact_match(pred, gold)
        backward = exact_match(gold, pred)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision

    def test_adding_correct_never_decreases_f1(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            gold = {t(i, i, i + 1, i + 1) for i in rng.choice(20, 4, replace=False)}
            pred = set(list(gold)[:2])
            before = exact_match(pred, gold).f1
            extra = next(iter(gold - pred))
            after = exact_match(pred | {extra}, gold).f1
            assert after >= before

    def test_adding_incorrect_never_increases_precision(self):
        gold = {t(0, 0, 1, 1)}
        pred = {t(0, 0, 1, 1)}
        before = exact_match(pred, gold).precision
        after = exact_match(pred | {t(8, 8, 9, 9)}, gold).precision
        assert after <= before

    def test_counts_bound(self):
        scores = exact_match({t(0, 0, 1, 1)}, {t(2, 2, 3, 3)})
        assert scores.matched <= min(scores.predicted, scores.gold)


class TestCorpusScores:
    def test_micro_counts(self):
        preds = [{t(0, 0, 1, 1)}, set(), {t(2, 2, 3, 3), t(4, 4, 5, 5)}]
        golds = [{t(0, 0, 1, 1)}, {t(9, 9, 8, 8)}, {t(2, 2, 3, 3)}]
        scores = score_corpus(preds, golds)
        assert scores.matched == 2
        assert scores.predicted == 3
        assert scores.gold == 3

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            score_corpus([set()], [])


class TestAggregate:
    def test_identical_runs(self):
        runs = [MatchScores(2, 4, 4)] * 3
        agg = aggregate(runs)
        assert agg.mean_f1 == pytest.approx(0.5)
        assert agg.std_f1 == 0.0

    def test_two_run_mean(self):
        runs = [MatchScores(2, 5, 5), MatchScores(3, 5, 5)]  # F1 0.4 and 0.6
        assert aggregate(runs).mean_f1 == pytest.approx(0.5)

    def test_mean_within_run_range(self):
        rng = np.random.default_rng(1)
        runs = [MatchScores(int(rng.integers(0, 6)), 6, 6) for _ in range(10)]
        agg = aggregate(runs)
        f1s = [r.f1 for r in runs]
        assert min(f1s) <= agg.mean_f1 <= max(f1s)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate([])


class TestBench:
    def test_both_methods_positive_throughput(self):
        rel = bench_distance("relative", 32, 20)
        dep = bench_distance("dependency", 32, 20)
        assert rel.tokens_per_ms > 0
        assert dep.tokens_per_ms > 0
        assert rel.tokens_processed == dep.tokens_processed == 640

    def test_timed_region_spans_whole_passes_of_at_least_the_minimum(self):
        """A derivation too quick to time once is timed over repeated whole
        passes; the report gives one pass's tokens and time."""
        start = time.perf_counter()
        rel = bench_distance("relative", 16, 3)
        wall = time.perf_counter() - start
        assert wall >= MIN_TIMED_S
        assert rel.tokens_processed == 48
        assert rel.elapsed_ms < 1000.0 * MIN_TIMED_S / 2

    def test_relative_faster_at_128(self):
        rel = bench_distance("relative", 128, 30)
        dep = bench_distance("dependency", 128, 30)
        assert rel.tokens_per_ms > dep.tokens_per_ms

    def test_validation(self):
        with pytest.raises(ValidationError):
            bench_distance("relative", 1, 5)
        with pytest.raises(ValidationError):
            bench_distance("relative", 16, 0)
        with pytest.raises(ValidationError):
            bench_distance("quantum", 16, 5)

    def test_report_table_format(self):
        table = bench_summary([bench_distance("relative", 16, 5)])
        assert table.startswith("method\t")
        assert "relative" in table
        assert "# ratio" not in table

    def test_comparison_report_carries_caveat(self):
        text = bench_summary([bench_distance("relative", 32, 100),
                              bench_distance("dependency", 32, 10)])
        assert RATIO_CAVEAT in text
        assert "# ratio (relative/dependency)" in text
