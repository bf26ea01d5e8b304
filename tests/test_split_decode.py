"""``aste decode`` and ``aste eval`` split their inference batches over
forked worker processes, one per usable core. These tests hold the split
to the one-process run: the same bytes out, the same error for a failing
batch, and no child process left behind, whatever happened."""

import json
import os
import re
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

import aste.cli
from aste.cli import main
from aste.data import Sentence, Vocabulary, length_buckets, write_corpus_file
from aste.encoder import EncoderConfig
from aste.errors import NumericError
from aste.evaluation import score_corpus
from aste.model import PREDICT_BATCH, TripletModel, Worker, _shards
from aste.parser import ParserConfig
from aste.structure import DEPENDENCY, NONE, RELATIVE, StructureConfig, random_tree_heads
from aste.synth import learnable_corpus

CORES = (1, 2, 3)
OVERFLOW = (1, "", "aste: embedding produced non-finite values\n")


def mixed_corpus(count=56, seed=3):
    """Learnable-corpus sentences, gold triplets kept, lengthened by 0 to
    12 repeats of their last token, so the four length-sorted batches
    differ in length; each has a random tree of heads."""
    rng = np.random.default_rng(seed)
    sentences = []
    for s in learnable_corpus(count, seed=seed).train:
        tokens = s.tokens + [s.tokens[-1]] * int(rng.integers(0, 13))
        sentences.append(Sentence(tokens=tokens, triplets=s.triplets,
                                  heads=random_tree_heads(len(tokens), rng)))
    return sentences


def build_model(kind, sentences, plant=()):
    """A seeded model whose vocabulary holds every token of ``sentences``,
    its encoder scaled and its distance-bias tables random so that
    distances move its predictions. Each ``(token, value)`` in ``plant``
    sets that token's embedding row."""
    vocab = Vocabulary.build(sentences)
    config = EncoderConfig(vocab_size=len(vocab), dim=8, heads=2, layers=2, ffn_dim=12,
                           max_len=40, adapter=StructureConfig(tau=6, kind=kind))
    model = TripletModel(config, ParserConfig(tag_hidden=6, pair_hidden=5), vocab, seed=2)
    model.encoder.params.buffer *= 20.0
    if model.encoder.adapter is not None:
        tables = model.encoder.adapter.buffer
        tables[...] = np.random.default_rng(5).normal(0.0, 3.0, tables.size)
    for token, value in plant:
        model.encoder.params["tok_emb"].data[vocab.encode([token])[0]] = value
    return model


def write_inputs(tmp_path, kind, sentences, plant=()):
    source, weights = tmp_path / "in.jsonl", tmp_path / "model.bin"
    write_corpus_file(source, sentences)
    build_model(kind, sentences, plant).save(weights)
    return source, weights


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked while the test runs."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def decode_and_eval(capsys, monkeypatch, cores, source, weights, out):
    """With the core lookup giving ``cores``: decode's exit code, stdout,
    stderr and output bytes (None when it wrote none), then eval's exit
    code, stdout and stderr. No child may be left after either."""
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: cores)
    code = main(["decode", "--weights", str(weights), "--input", str(source), "--out", str(out)])
    captured = capsys.readouterr()
    decoded = (code, captured.out, captured.err, out.read_bytes() if out.exists() else None)
    assert_no_child_left()
    code = main(["eval", "--weights", str(weights), "--input", str(source)])
    captured = capsys.readouterr()
    assert_no_child_left()
    return decoded, (code, captured.out, captured.err)


def runs_on_each_core_count(capsys, monkeypatch, tmp_path, source, weights):
    return {cores: decode_and_eval(capsys, monkeypatch, cores, source, weights,
                                   tmp_path / f"out{cores}.jsonl")
            for cores in CORES}


@pytest.mark.parametrize("kind", [NONE, RELATIVE, DEPENDENCY])
def test_outputs_byte_identical_on_any_core_count(capsys, monkeypatch, tmp_path, forks, kind):
    sentences = mixed_corpus()
    assert len(length_buckets(sentences, PREDICT_BATCH)) == 4
    assert len({max(len(sentences[i]) for i in batch)
                for batch in length_buckets(sentences, PREDICT_BATCH)}) == 4
    source, weights = write_inputs(tmp_path, kind, sentences)
    runs = {}
    for cores in CORES:
        forks.clear()
        runs[cores] = decode_and_eval(capsys, monkeypatch, cores, source, weights,
                                      tmp_path / f"out{cores}.jsonl")
        # decode and eval each fork one worker per core beyond the first.
        assert len(forks) == 2 * (cores - 1)
    (code, out, err, decoded), (eval_code, scores, _) = runs[1]
    assert (code, out, err) == (0, f"decoded\t{len(sentences)}\n", "")
    assert eval_code == 0 and scores.startswith("matched\t")
    assert decoded.count(b'"aspect"') > len(sentences)
    assert runs[2] == runs[3] == runs[1]


@pytest.mark.parametrize("kind", [NONE, RELATIVE, DEPENDENCY])
def test_outputs_are_those_of_one_process_predict_corpus(capsys, monkeypatch, tmp_path, kind):
    """On any core count, decode writes each sentence with its one-process
    ``predict_corpus`` triplets, sorted, as ``write_corpus_file`` does, and
    eval prints ``score_corpus`` of those triplets against the gold."""
    sentences = mixed_corpus()
    source, weights = write_inputs(tmp_path, kind, sentences)
    predicted = TripletModel.load(weights).predict_corpus(sentences)
    assert sum(len(t) for t in predicted) > len(sentences)
    expected = tmp_path / "expected.jsonl"
    write_corpus_file(expected, [replace(s, triplets=sorted(t))
                                 for s, t in zip(sentences, predicted)])
    scores = score_corpus(predicted, [sentence.triplet_set() for sentence in sentences])
    table = ("matched\tpredicted\tgold\tprecision\trecall\tf1\n"
             f"{scores.matched}\t{scores.predicted}\t{scores.gold}\t{scores.precision:.4f}"
             f"\t{scores.recall:.4f}\t{scores.f1:.4f}\n")
    for cores, (decoded, evaluated) in runs_on_each_core_count(capsys, monkeypatch, tmp_path,
                                                               source, weights).items():
        assert decoded == (0, f"decoded\t{len(sentences)}\n", "", expected.read_bytes()), cores
        assert evaluated == (0, table, ""), cores


def types_in(value) -> set[str]:
    """The type names in a message, looking into tuples, lists and sets."""
    found = {type(value).__name__}
    if isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            found |= types_in(item)
    return found


def test_no_triplet_crosses_a_worker_pipe(capsys, monkeypatch, tmp_path):
    """Decode and eval workers send back finished lines and match counts,
    never a ``Triplet`` or ``Span``; ``predict_corpus`` without ``finish``
    still sends triplet sets, which the recorder sees."""
    sentences = mixed_corpus()
    source, weights = write_inputs(tmp_path, RELATIVE, sentences)
    record, send = tmp_path / "sent.jsonl", Worker.send

    def recording(self, message, *arrays):
        with open(record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(sorted(types_in(message))) + "\n")
        return send(self, message, *arrays)

    monkeypatch.setattr(Worker, "send", recording)

    def sent() -> list[set[str]]:
        """The type names of each message sent since the last call."""
        names = [set(json.loads(line)) for line in record.read_text(encoding="utf-8").splitlines()]
        record.unlink()
        return names

    monkeypatch.setattr(aste.cli, "usable_cores", lambda: 3)
    out = tmp_path / "out.jsonl"
    for argv, finished in ((["decode", "--out", str(out)], "str"), (["eval"], "MatchScores")):
        assert main([*argv, "--weights", str(weights), "--input", str(source)]) == 0
        assert_no_child_left()
        answers = sent()
        assert len(answers) == 2 and all(finished in names for names in answers)
        assert not set().union(*answers) & {"Triplet", "Span"}
    TripletModel.load(weights).predict_corpus(sentences, processes=2)
    assert "Triplet" in set().union(*sent())


def plant_in_batches(sentences, numbers):
    """A copy of ``sentences`` whose last token, in the first sentence of
    each numbered length-sorted batch, is a token of its own (so the
    sentence keeps its length and batch), and the ``plant`` that embeds
    each such token at 1e308, a finite value the embedding overflows."""
    sentences = list(sentences)
    batches = length_buckets(sentences, PREDICT_BATCH)
    plant = []
    for number in numbers:
        position = batches[number][0]
        token = f"planted{number}"
        s = sentences[position]
        sentences[position] = Sentence(tokens=s.tokens[:-1] + [token], heads=s.heads)
        plant.append((token, 1e308))
    return sentences, plant


def test_overflow_in_one_batch_fails_as_in_one_process(capsys, monkeypatch, tmp_path):
    sentences, plant = plant_in_batches(mixed_corpus(), [2])
    source, weights = write_inputs(tmp_path, RELATIVE, sentences, plant)
    runs = runs_on_each_core_count(capsys, monkeypatch, tmp_path, source, weights)
    assert runs[1] == ((*OVERFLOW, None), OVERFLOW)
    assert runs[2] == runs[3] == runs[1]


def test_overflow_in_two_shards_fails_as_in_one_process(capsys, monkeypatch, tmp_path):
    sentences = mixed_corpus()
    batches = [(batch, None) for batch in length_buckets(sentences, PREDICT_BATCH)]
    first, last = 0, len(batches) - 1
    parent, _ = _shards(sentences, batches, 2)
    assert (first in parent) != (last in parent)
    sentences, plant = plant_in_batches(sentences, [first, last])
    source, weights = write_inputs(tmp_path, RELATIVE, sentences, plant)
    runs = runs_on_each_core_count(capsys, monkeypatch, tmp_path, source, weights)
    assert runs[1] == ((*OVERFLOW, None), OVERFLOW)
    assert runs[2] == runs[3] == runs[1]


def test_earliest_failing_batch_in_length_order_wins(monkeypatch):
    """Batches failing in a worker and in this process, each with its own
    message: the earliest in length order is raised, on any process
    count."""
    sentences = mixed_corpus()
    batches = length_buckets(sentences, PREDICT_BATCH)
    parent, worker = _shards(sentences, [(batch, None) for batch in batches], 2)
    early = min(worker)
    late = max(number for number in parent if number > early)
    failing = {batches[number][0]: number for number in (early, late)}
    forward = TripletModel.forward

    def failing_forward(self, rows, distances=None):
        for position, number in failing.items():
            if rows[0] is sentences[position]:
                raise NumericError(f"batch {number} failed")
        return forward(self, rows, distances)

    monkeypatch.setattr(TripletModel, "forward", failing_forward)
    model = build_model(RELATIVE, sentences)
    for processes in CORES:
        with pytest.raises(NumericError, match=f"^batch {early} failed$"):
            model.predict_corpus(sentences, processes=processes)
        assert_no_child_left()


def test_worker_killed_by_a_signal_exits_1(capsys, monkeypatch, tmp_path):
    sentences = mixed_corpus()
    source, weights = write_inputs(tmp_path, DEPENDENCY, sentences)
    parent_pid, forward = os.getpid(), TripletModel.forward

    def dying_forward(self, rows, distances=None):
        if os.getpid() != parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(self, rows, distances)

    monkeypatch.setattr(TripletModel, "forward", dying_forward)
    (code, out, err, decoded), evaluated = decode_and_eval(capsys, monkeypatch, 2, source,
                                                           weights, tmp_path / "out.jsonl")
    message = r"aste: decode worker \d+ was killed by signal 9 without an answer\n"
    assert (code, out, decoded) == (1, "", None) and re.fullmatch(message, err)
    assert evaluated[:2] == (1, "") and re.fullmatch(message, evaluated[2])


def test_workers_killed_when_this_process_raises(monkeypatch):
    """An exception that escapes this process's own shard (here an
    interrupt) kills and reaps the workers instead of waiting for them."""
    sentences = mixed_corpus()
    parent_pid = os.getpid()

    def stuck_forward(self, rows, distances=None):
        if os.getpid() != parent_pid:
            time.sleep(60)
        raise KeyboardInterrupt

    model = build_model(RELATIVE, sentences)
    monkeypatch.setattr(TripletModel, "forward", stuck_forward)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        model.predict_corpus(sentences, processes=3)
    assert time.perf_counter() - start < 10
    assert_no_child_left()


class Alarm(Exception):
    pass


def test_exception_while_reading_a_worker_does_not_wait_for_it(monkeypatch):
    """An exception raised in this process while it is blocked reading a
    worker's answer (here from an interval timer, armed again by each of
    this process's own batches) kills and reaps that worker at once
    instead of waiting the 5 s it still has to run."""
    sentences = mixed_corpus()
    parent_pid, forward = os.getpid(), TripletModel.forward

    def slow_forward(self, rows, distances=None):
        if os.getpid() != parent_pid:
            time.sleep(5)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
        return forward(self, rows, distances)

    def raise_alarm(signum, frame):
        raise Alarm

    model = build_model(RELATIVE, sentences)
    monkeypatch.setattr(TripletModel, "forward", slow_forward)
    previous = signal.signal(signal.SIGALRM, raise_alarm)
    start = time.perf_counter()
    try:
        with pytest.raises(Alarm):
            model.predict_corpus(sentences, processes=2)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 2
    assert_no_child_left()


def test_empty_input_forks_nothing(capsys, monkeypatch, tmp_path, forks):
    source, weights = write_inputs(tmp_path, DEPENDENCY, mixed_corpus())
    source.write_text("", encoding="utf-8")
    decoded, evaluated = decode_and_eval(capsys, monkeypatch, 3, source, weights,
                                         tmp_path / "out.jsonl")
    assert decoded == (0, "decoded\t0\n", "", b"") and evaluated[0] == 0
    assert forks == []


def test_one_process_without_affinity_or_fork(monkeypatch):
    assert aste.cli.usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert aste.cli.usable_cores() == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert aste.cli.usable_cores() == 1


def test_shards_balance_padded_cells():
    """Four batches of 16, 16, 16 and 8 sentences of lengths 10, 20, 30
    and 40 cost 1,600, 6,400, 14,400 and 12,800 cells. Two shards, filled
    costliest batch first, take 16,000 and 19,200, each listed in length
    order."""
    sentences = [Sentence(tokens=["w"] * n) for n in [10] * 16 + [20] * 16 + [30] * 16 + [40] * 8]
    batches = [(batch, None) for batch in length_buckets(sentences, PREDICT_BATCH)]
    assert _shards(sentences, batches, 2) == [[0, 2], [1, 3]]
    assert _shards(sentences, batches, 1) == [[0, 1, 2, 3]]
    assert _shards(sentences, batches, 9) == [[2], [3], [1], [0]]
    assert _shards(sentences, [], 4) == [[]]
