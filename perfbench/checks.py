"""Correctness checks, computed by the benchmark on its own.

Nothing here compares against a saved copy of the program's output. Each
check recomputes a figure independently (exact-match counts, shortest
paths) or tests a property every correct run has (well-formed triplets,
one history row per configured epoch, ``predict`` agreeing with
``decode``). Each returns ``(passed, detail)``.
"""

from __future__ import annotations

import json

import numpy as np

SENTIMENTS = ("POS", "NEG", "NEU")


def read_predictions(path) -> list[dict]:
    """The records of a predictions JSONL file, triplets as tuples."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            records.append({
                "tokens": raw["tokens"],
                "triplets": [
                    (tuple(t["aspect"]), tuple(t["opinion"]), t["sentiment"])
                    for t in raw["triplets"]
                ],
            })
    return records


def triplet_tuple(triplet) -> tuple:
    """An ``aste.data.Triplet`` as the benchmark's own tuple."""
    return ((triplet.aspect.start, triplet.aspect.end),
            (triplet.opinion.start, triplet.opinion.end), triplet.sentiment)


def match_counts(pred_sets, gold_sets) -> tuple[int, int, int]:
    """Micro exact-match counts: matched, predicted, gold."""
    matched = predicted = gold = 0
    for pred, want in zip(pred_sets, gold_sets):
        matched += len(set(pred) & set(want))
        predicted += len(set(pred))
        gold += len(set(want))
    return matched, predicted, gold


def f1(counts: tuple[int, int, int]) -> float:
    matched, predicted, gold = counts
    return 2 * matched / (predicted + gold) if predicted + gold else 0.0


def check_decoded_file(records, sentences):
    if len(records) != len(sentences):
        return False, f"{len(records)} records for {len(sentences)} sentences"
    for i, (record, sentence) in enumerate(zip(records, sentences)):
        if record["tokens"] != sentence["tokens"]:
            return False, f"record {i} has other tokens than its input"
    return True, f"{len(records)} records"


def check_f1_floor(counts, floor: float):
    score = f1(counts)
    return score >= floor, f"F1 {score:.4f} (floor {floor})"


def check_score_corpus(score_corpus, triplet_class, span_class, pred_sets, gold_sets, counts):
    """``aste.evaluation.score_corpus`` against the benchmark's own counts."""
    def as_program(triplets):
        return {triplet_class(span_class(*a), span_class(*o), s) for a, o, s in triplets}

    scores = score_corpus([as_program(p) for p in pred_sets], [as_program(g) for g in gold_sets])
    theirs = (scores.matched, scores.predicted, scores.gold)
    return theirs == tuple(counts), f"program {theirs}, benchmark {tuple(counts)}"


def check_well_formed(sentences, pred_sets):
    """Spans inside the sentence, aspect != opinion, a known sentiment."""
    total = 0
    for sentence, triplets in zip(sentences, pred_sets):
        n = len(sentence["tokens"])
        for aspect, opinion, sentiment in triplets:
            total += 1
            spans_ok = all(0 <= start <= end < n for start, end in (aspect, opinion))
            if not spans_ok or aspect == opinion or sentiment not in SENTIMENTS:
                return False, f"bad triplet {(aspect, opinion, sentiment)} in a {n}-token sentence"
    return True, f"{total} triplets"


def check_predict_matches_decode(decoded_sets, predicted: list[tuple[int, set]]):
    """Each single-sentence predict result equals the decode file's record."""
    for index, triplets in predicted:
        if set(triplets) != set(decoded_sets[index]):
            return False, f"predict differs from decode on test sentence {index}"
    return True, f"{len(predicted)} predict calls"


def check_history(text: str, epochs: int):
    """One row per configured epoch, and total = tagging + parsing."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or not lines[0].startswith("epoch\t"):
        return False, "no header row"
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    if len(rows) != epochs:
        return False, f"{len(rows)} rows for {epochs} epochs"
    for row in rows:
        tagging, parsing = float(row["tagging_loss"]), float(row["parsing_loss"])
        total = float(row["total_loss"])
        if abs(total - (tagging + parsing)) > 1e-8 * (abs(tagging) + abs(parsing)) + 1e-12:
            return False, f"epoch {row['epoch']}: total {total} != {tagging} + {parsing}"
    return True, f"{len(rows)} epochs"


def shortest_path_distances(heads: list[int], tau: int, total_len: int) -> np.ndarray:
    """The augmented distance matrix, recomputed: Floyd-Warshall over the
    undirected head edges, clipped to tau (unreachable pairs too), signed by
    linear order; marker rows and columns follow the relative rule, padded
    rows and columns are 0."""
    n = len(heads)
    hops = np.full((n, n), np.inf)
    np.fill_diagonal(hops, 0.0)
    for dep, head in enumerate(heads):
        if head >= 0:
            hops[dep, head] = hops[head, dep] = 1.0
    for k in range(n):
        hops = np.minimum(hops, hops[:, k:k + 1] + hops[k:k + 1, :])
    m = n + 2
    order = np.arange(total_len)
    full = np.clip(order[None, :] - order[:, None], -tau, tau)
    content = np.minimum(hops, tau).astype(np.int64) * np.sign(full[1:n + 1, 1:n + 1])
    full[1:n + 1, 1:n + 1] = content
    full[m:, :] = 0
    full[:, m:] = 0
    return full


def check_distances(augmented_distance_matrix, structure_config, sentences, tau: int, pad: int):
    """Program output against ``shortest_path_distances``, unpadded and padded."""
    compared = 0
    for sentence in sentences:
        n, heads = len(sentence["tokens"]), sentence["heads"]
        for total_len in (n + 2, n + 2 + pad):
            theirs = augmented_distance_matrix(n, structure_config, heads=heads, total_len=total_len)
            ours = shortest_path_distances(heads, tau, total_len)
            if theirs is None or theirs.shape != ours.shape or not np.array_equal(theirs, ours):
                return False, f"differs on a {n}-token sentence padded to {total_len}"
            compared += 1
    return True, f"{compared} matrices"
