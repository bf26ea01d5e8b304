"""Exact-match scoring, multi-run aggregation, and the distance benchmark."""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ValidationError
from .structure import (
    DependencyGraph,
    dependency_distance_matrix,
    random_tree_heads,
    relative_distance_matrix,
)


@dataclass
class MatchScores:
    """Micro exact-match counts; a match needs both spans and the
    sentiment to be equal."""

    matched: int = 0
    predicted: int = 0
    gold: int = 0

    def __add__(self, other: "MatchScores") -> "MatchScores":
        return MatchScores(
            matched=self.matched + other.matched,
            predicted=self.predicted + other.predicted,
            gold=self.gold + other.gold,
        )

    @property
    def precision(self) -> float:
        return self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.matched / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0


def exact_match(pred, gold) -> MatchScores:
    """Score one sentence's predicted triplet set against its gold set."""
    pred, gold = set(pred), set(gold)
    return MatchScores(matched=len(pred & gold), predicted=len(pred), gold=len(gold))


def score_corpus(pred_sets, gold_sets) -> MatchScores:
    """Micro-averaged counts over a corpus of per-sentence sets."""
    pred_sets, gold_sets = list(pred_sets), list(gold_sets)
    if len(pred_sets) != len(gold_sets):
        raise ValidationError("prediction and gold lists differ in length")
    total = MatchScores()
    for pred, gold in zip(pred_sets, gold_sets):
        total = total + exact_match(pred, gold)
    return total


@dataclass
class AggregateScores:
    mean_precision: float
    mean_recall: float
    mean_f1: float
    std_precision: float
    std_recall: float
    std_f1: float
    runs: int


def aggregate(run_scores) -> AggregateScores:
    """Arithmetic mean of P/R/F1 across runs, with population deviations
    reported for transparency."""
    run_scores = list(run_scores)
    if not run_scores:
        raise ValidationError("need at least one run to aggregate")
    p = np.array([s.precision for s in run_scores])
    r = np.array([s.recall for s in run_scores])
    f = np.array([s.f1 for s in run_scores])
    return AggregateScores(
        mean_precision=float(p.mean()), mean_recall=float(r.mean()), mean_f1=float(f.mean()),
        std_precision=float(p.std()), std_recall=float(r.std()), std_f1=float(f.std()),
        runs=len(run_scores),
    )


# -- distance-derivation benchmark ----------------------------------------------

RATIO_CAVEAT = (
    "Reported as a relative/dependency throughput ratio. A 1,000x "
    "speed-up is only reachable when the comparison also counts running "
    "an external syntactic parser; this benchmark excludes parsing, so "
    "only the derivation gap is measured."
)


# Shortest timed region of a benchmark: below it, timer and scheduler noise
# swing the relative method's reading by a third between identical runs.
MIN_TIMED_S = 0.05


@dataclass
class BenchReport:
    method: str
    tokens_processed: int
    elapsed_ms: float
    hardware: str = field(default_factory=lambda: f"{platform.machine()} / {platform.processor() or 'unknown cpu'}")

    @property
    def tokens_per_ms(self) -> float:
        return self.tokens_processed / self.elapsed_ms


def bench_summary(reports) -> str:
    """A tab-separated header and one row per report, then comment lines:
    the relative/dependency throughput ratio when both methods ran, the
    hardware, and the caveat."""
    lines = ["method\ttokens\telapsed_ms\ttokens_per_ms"]
    lines += [
        f"{r.method}\t{r.tokens_processed}\t{r.elapsed_ms:.3f}\t{r.tokens_per_ms:.1f}"
        for r in reports
    ]
    if len(reports) == 2:
        ratio = reports[0].tokens_per_ms / reports[1].tokens_per_ms
        lines.append(f"# ratio (relative/dependency): {ratio:.1f}x")
    lines += [f"# hardware: {reports[0].hardware}", f"# {RATIO_CAVEAT}"]
    return "\n".join(lines) + "\n"


def bench_distance(method: str, n: int, repetitions: int, seed: int = 0,
                   tau: int = 8) -> BenchReport:
    """Single-threaded throughput of one derivation method.

    Inputs (including the random dependency trees) are generated before
    the timed region; three untimed warm-up repetitions run first. The
    ``repetitions`` jobs are timed in as many whole passes as it takes to
    fill ``MIN_TIMED_S``, and the report gives the time of one pass.
    """
    if n < 2:
        raise ValidationError("need at least two tokens")
    if repetitions < 1:
        raise ValidationError("need at least one repetition")
    if tau < 1:
        raise ValidationError("tau must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if method == "relative":
        jobs = [partial(relative_distance_matrix, n, tau)] * repetitions
    elif method == "dependency":
        rng = np.random.default_rng(seed)
        jobs = [
            partial(dependency_distance_matrix,
                    DependencyGraph.from_heads(random_tree_heads(n, rng)), tau)
            for _ in range(repetitions)
        ]
    else:
        raise ValidationError(f"unknown benchmark method {method!r}")
    for job in jobs[:3]:
        job()
    passes, start = 0, time.perf_counter()
    while time.perf_counter() - start < MIN_TIMED_S:
        for job in jobs:
            job()
        passes += 1
    elapsed = time.perf_counter() - start
    return BenchReport(
        method=method,
        tokens_processed=repetitions * n,
        elapsed_ms=elapsed * 1000.0 / passes,
    )
