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


@dataclass
class BenchReport:
    method: str
    tokens_processed: int
    elapsed_ms: float
    hardware: str = field(default_factory=lambda: f"{platform.machine()} / {platform.processor() or 'unknown cpu'}")

    @property
    def tokens_per_ms(self) -> float:
        return self.tokens_processed / self.elapsed_ms

    def table(self) -> str:
        return bench_table([self])


def bench_table(reports) -> str:
    """Tab-separated header plus one row per report."""
    lines = ["method\ttokens\telapsed_ms\ttokens_per_ms"]
    lines += [
        f"{r.method}\t{r.tokens_processed}\t{r.elapsed_ms:.3f}\t{r.tokens_per_ms:.1f}"
        for r in reports
    ]
    return "\n".join(lines) + "\n"


def bench_summary(reports) -> str:
    """``bench_table`` followed by comment lines: the relative/dependency
    throughput ratio when both methods ran, the hardware, and the caveat."""
    notes = []
    if len(reports) == 2:
        ratio = reports[0].tokens_per_ms / reports[1].tokens_per_ms
        notes.append(f"ratio (relative/dependency): {ratio:.1f}x")
    notes += [f"hardware: {reports[0].hardware}", RATIO_CAVEAT]
    return bench_table(reports) + "".join(f"# {note}\n" for note in notes)


def bench_distance(method: str, n: int, repetitions: int, seed: int = 0,
                   tau: int = 8, warmup: int = 3) -> BenchReport:
    """Single-threaded throughput of one derivation method.

    Inputs (including the random dependency trees) are generated before
    the timed region; warm-up repetitions are excluded.
    """
    if n < 2:
        raise ValidationError("need at least two tokens")
    if repetitions < 1:
        raise ValidationError("need at least one repetition")
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
    for job in jobs[:warmup]:
        job()
    start = time.perf_counter()
    for job in jobs:
        job()
    elapsed = time.perf_counter() - start
    return BenchReport(
        method=method,
        tokens_processed=repetitions * n,
        elapsed_ms=elapsed * 1000.0,
    )


def bench_comparison(n: int = 128, repetitions: int = 100, seed: int = 0,
                     relative_repetitions: int | None = None) -> str:
    """Side-by-side report of both methods with the ratio caveat.

    The relative derivation is microseconds per call, so it defaults to
    10x the repetitions for a steadier timing region; throughput is
    per-token either way.
    """
    rel = bench_distance("relative", n, relative_repetitions or 10 * repetitions, seed=seed)
    dep = bench_distance("dependency", n, repetitions, seed=seed)
    return bench_summary([rel, dep])
