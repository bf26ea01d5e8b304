"""Workload corpora, generated here from the workload seed.

The program under test never sees these generators, only the JSONL files
they produce, so a change to the program cannot change its own inputs.
Everything is drawn from ``random.Random`` seeded with a string, which is
stable across Python builds and independent of numpy's generators.

A sentence is a plain dict: ``tokens`` (list of str), ``heads`` (list of
int, -1 for the root, or None) and ``triplets`` (a set of
``((a_start, a_end), (o_start, o_end), sentiment)`` tuples, spans 0-based
and inclusive).
"""

from __future__ import annotations

import json
import random

FILLERS = (
    "the", "a", "on", "it", "was", "and", "so", "came", "with",
    "then", "we", "had", "there", "really", "for", "kind", "of",
)
ASPECTS = ("pizza", "service", "battery", "screen", "coffee", "staff", "keyboard", "soup")
ASPECT_TAILS = ("quality", "life", "texture", "portion")

# short-rel: a candidate word is a genuine opinion only when the trigger
# stands immediately to its left, so telling genuine from distractor
# candidates needs relative position, which the relative bias supplies.
TRIGGER = "very"
CANDIDATES = {"good": "POS", "fine": "POS", "bad": "NEG", "poor": "NEG"}

# long-dep: every clause pairs one aspect with one opinion word, and only
# the dependency heads say which opinion an aspect belongs to.
OPINIONS = {
    "great": "POS", "lovely": "POS", "tasty": "POS",
    "awful": "NEG", "slow": "NEG", "broken": "NEG",
    "okay": "NEU", "plain": "NEU",
}
CONNECTORS = ("and", "but", "while", "though")
CLAUSE_FILLERS = ("the", "was", "really", "so", "kind", "of", "quite", "it")


def short_rel_sentence(rng: random.Random) -> dict:
    """10-16 tokens, one aspect, three candidates, 1-3 of them triggered."""
    while True:
        n = rng.randint(10, 16)
        tokens = [rng.choice(FILLERS) for _ in range(n)]
        slots: list[int] = []
        for _ in range(60):
            if len(slots) == 3:
                break
            p = rng.randint(1, n - 1)
            if all(abs(p - q) > 2 for q in slots):
                slots.append(p)
        slots.sort()
        used = set(slots) | {p - 1 for p in slots}
        free = [p for p in range(n) if p not in used]
        if len(slots) < 3 or not free:
            continue
        triggered = [rng.random() < 0.5 for _ in slots]
        if not any(triggered):
            triggered[rng.randrange(len(slots))] = True
        aspect = rng.choice(free)
        tokens[aspect] = rng.choice(ASPECTS)
        triplets = set()
        for p, trig in zip(slots, triggered):
            word = rng.choice(tuple(CANDIDATES))
            tokens[p] = word
            if trig:
                tokens[p - 1] = TRIGGER
                triplets.add(((aspect, aspect), (p, p), CANDIDATES[word]))
        return {"tokens": tokens, "heads": None, "triplets": triplets}


def _clause(rng: random.Random, opinion_word: str, first: bool) -> tuple[list[str], list[str]]:
    """Tokens of one clause with a role per token: conn, fill, asp, tail, op."""
    aspect = [("asp", rng.choice(ASPECTS))]
    if rng.random() < 0.4:
        aspect.append(("tail", rng.choice(ASPECT_TAILS)))
    gap = [("fill", rng.choice(CLAUSE_FILLERS)) for _ in range(rng.randint(0, 2))]
    lead = [] if first else [("conn", rng.choice(CONNECTORS))]
    if rng.random() < 0.5:
        lead.append(("fill", "the"))
    if rng.random() < 0.7:
        body = lead + aspect + gap + [("op", opinion_word)]
    else:
        body = lead + [("op", opinion_word)] + gap + aspect
    while len(body) < 5:
        body.append(("fill", rng.choice(CLAUSE_FILLERS)))
    roles = [role for role, _ in body]
    tokens = [token for _, token in body]
    return tokens, roles


def long_dep_sentence(rng: random.Random) -> dict:
    """20-40 tokens in 4-6 clauses, one triplet per clause, no opinion
    word twice in a sentence.

    Heads: each opinion heads its clause, the aspect attaches to it (a
    two-token aspect's tail to the aspect's first token), every other
    clause token to the opinion, and each clause's opinion to the previous
    clause's opinion, so the clause heads form a chain rooted in the first.
    """
    while True:
        tokens: list[str] = []
        heads: list[int] = []
        triplets = set()
        previous_opinion = -1
        opinion_words = rng.sample(tuple(OPINIONS), rng.randint(4, 6))
        for k, opinion_word in enumerate(opinion_words):
            words, roles = _clause(rng, opinion_word, first=(k == 0))
            base = len(tokens)
            op = base + roles.index("op")
            asp = base + roles.index("asp")
            end = asp + 1 if "tail" in roles else asp
            for role in roles:
                if role == "op":
                    heads.append(previous_opinion)
                elif role == "tail":
                    heads.append(asp)
                else:
                    heads.append(op)
            tokens.extend(words)
            triplets.add(((asp, end), (op, op), OPINIONS[opinion_word]))
            previous_opinion = op
        if 20 <= len(tokens) <= 40:
            return {"tokens": tokens, "heads": heads, "triplets": triplets}


GENERATORS = {"short-rel": short_rel_sentence, "long-dep": long_dep_sentence}


def generate(workload: str, seed: int, sizes: dict[str, int]) -> dict[str, list[dict]]:
    """Train, dev and test splits for one workload; same seed, same splits."""
    rng = random.Random(f"{workload}:{seed}")
    draw = GENERATORS[workload]
    return {split: [draw(rng) for _ in range(sizes[split])] for split in ("train", "dev", "test")}


def to_jsonl(sentences: list[dict]) -> str:
    lines = []
    for s in sentences:
        record: dict = {"tokens": s["tokens"]}
        if s["heads"] is not None:
            record["heads"] = s["heads"]
        record["triplets"] = [
            {"aspect": list(a), "opinion": list(o), "sentiment": sentiment}
            for a, o, sentiment in sorted(s["triplets"])
        ]
        lines.append(json.dumps(record))
    return "".join(line + "\n" for line in lines)
