"""``aste train`` on more than one usable core starts one dev evaluator, a
fresh interpreter that scores epochs on dev while the next one trains. These tests hold it to the one-process run: the same bytes out,
the same error, and no child process left behind, whatever happened. What
they do to the evaluator, they do from the trainer's side: a fresh
interpreter does not see this process's monkeypatches.

The evaluator scores only the epochs that begin after
``EVALUATOR_START_STEPS`` training steps, which these tiny runs never reach;
so the tests here set it to 1, and the evaluator scores every epoch from 1
to the last but one, as it would in runs long enough to hide its start-up."""

import fcntl
import os
import platform
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import aste.cli
import aste.training
from aste.cli import main
from aste.data import Sentence, write_corpus_file
from aste.errors import NumericError
from aste.evaluation import MatchScores
from aste.model import Worker
from aste.structure import random_tree_heads
from aste.synth import learnable_corpus
from test_split_decode import assert_no_child_left, forks  # noqa: F401  (a fixture)

CORES = (1, 2, 3)
SETTINGS = (
    "--dim", "8", "--heads", "2", "--layers", "1", "--ffn-dim", "8", "--max-len", "16",
    "--tag-hidden", "4", "--pair-hidden", "4", "--batch-size", "4", "--lr", "1e-2",
    "--seed", "3",
)
# Steps per epoch: 12 training sentences in batches of 4.
STEPS = 3
PLANTED = "planted"


@pytest.fixture(autouse=True)
def evaluator_from_epoch_1(monkeypatch):
    monkeypatch.setattr(aste.training, "EVALUATOR_START_STEPS", 1)


@pytest.fixture
def spawns(monkeypatch):
    """The pids of the processes ``os.posix_spawn`` started while the test runs."""
    pids = []
    spawn = os.posix_spawn

    def counting(*args, **kwargs):
        pids.append(spawn(*args, **kwargs))
        return pids[-1]

    monkeypatch.setattr(os, "posix_spawn", counting)
    return pids


def on_sending(monkeypatch, epoch, before=None, after=None):
    """Have the trainer call ``before(pid)`` and ``after(pid)`` around the
    send of the weights of ``epoch`` to the evaluator of pid ``pid``."""
    send = Worker.send

    def sending(worker, message, *arrays):
        if message == epoch and arrays and before:
            before(worker.pid)
        send(worker, message, *arrays)
        if message == epoch and arrays and after:
            after(worker.pid)

    monkeypatch.setattr(Worker, "send", sending)


def kill(pid):
    """SIGKILL the process and wait until it is dead, leaving it to be reaped."""
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def stop(pid):
    """SIGSTOP the process and wait until it has stopped."""
    os.kill(pid, signal.SIGSTOP)
    os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOWAIT)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    """``train.jsonl`` (12 learnable-corpus records) and ``dev.jsonl`` (4),
    each with a random tree of heads; the first dev sentence ends in a
    token no training sentence has."""
    directory = tmp_path_factory.mktemp("split_train")
    rng = np.random.default_rng(11)
    sentences = [Sentence(tokens=s.tokens, triplets=s.triplets,
                          heads=random_tree_heads(len(s), rng))
                 for s in learnable_corpus(16, seed=5).train]
    first = sentences[12]
    sentences[12] = Sentence(tokens=first.tokens[:-1] + [PLANTED], triplets=first.triplets,
                             heads=first.heads)
    write_corpus_file(directory / "train.jsonl", sentences[:12])
    write_corpus_file(directory / "dev.jsonl", sentences[12:])
    return directory


def train_on(capsys, monkeypatch, corpus_files, out, cores, *flags):
    """``aste train`` with the core lookup giving ``cores``: its exit code,
    stdout and stderr, and the bytes of each artifact it wrote (None for
    one it did not). No child may be left after it."""
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: cores)
    code = main(["train", "--train", str(corpus_files / "train.jsonl"),
                 "--dev", str(corpus_files / "dev.jsonl"), "--out", str(out),
                 *SETTINGS, *flags])
    captured = capsys.readouterr()
    assert_no_child_left()
    files = {name: (out / name).read_bytes() if (out / name).exists() else None
             for name in ("history.tsv", "config.resolved", "weights.bin")}
    return code, captured.out, captured.err, files


def on_each_core_count(capsys, monkeypatch, corpus_files, tmp_path, *flags, cores=CORES):
    """The ``train_on`` run of each core count in ``cores``. Past 2 the runs
    only repeat 2's, one evaluator, so tests of errors stop there."""
    return {count: train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{count}", count,
                            *flags)
            for count in cores}


def epochs_run(run) -> int:
    """The rows of a run's ``history.tsv``."""
    return sum(line[:1].isdigit() for line in run[3]["history.tsv"].decode().splitlines())


@pytest.mark.parametrize("adapter", ["none", "dep"])
def test_outputs_byte_identical_on_any_core_count(capsys, monkeypatch, tmp_path, corpus_files,
                                                  forks, spawns, adapter):
    runs, sent, send = {}, [], Worker.send

    def recording(worker, message, *arrays):
        if arrays:
            sent.append(message)
        send(worker, message, *arrays)

    monkeypatch.setattr(Worker, "send", recording)
    for cores in CORES:
        spawns.clear()
        sent.clear()
        runs[cores] = train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{cores}",
                               cores, "--adapter", adapter, "--max-epochs", "4",
                               "--patience", "4")
        # One evaluator per run, however many cores, and no fork; it scores
        # epochs 1 and 2 of 0 to 3.
        assert (len(spawns), forks) == (min(cores - 1, 1), [])
        assert sent == ([] if cores == 1 else [1, 2])
    code, out, err, files = runs[1]
    assert (code, err) == (0, "") and out.startswith("best_epoch\t")
    assert epochs_run(runs[1]) == 4 and None not in files.values()
    assert runs[2] == runs[3] == runs[1]


def test_a_run_too_short_for_an_evaluator_starts_none(capsys, monkeypatch, tmp_path,
                                                     corpus_files, spawns):
    """Twelve steps in all, where the evaluator would score only epochs
    beginning 50 steps in."""
    monkeypatch.setattr(aste.training, "EVALUATOR_START_STEPS", 50)
    runs = on_each_core_count(capsys, monkeypatch, corpus_files, tmp_path, "--adapter", "rel",
                              "--max-epochs", "4", "--patience", "4", cores=(1, 2))
    assert spawns == [] and runs[1][0] == 0 and runs[2] == runs[1]


# Runs ``aste train`` with an evaluator three times in one process; prints
# each run's exit code, the evaluators it started and the minor page faults
# this process took.
REPEATED_TRAIN = """
import contextlib, io, resource, sys
import aste.cli, aste.training
from aste.cli import main

class Counted(aste.training.Worker):
    def __init__(self, *args, **kwargs):
        started.append(None)
        super().__init__(*args, **kwargs)


aste.cli.usable_cores = lambda: 2
aste.training.EVALUATOR_START_STEPS = 1
aste.training.Worker, started = Counted, []
train, dev, out = sys.argv[1:]
for run in range(3):
    started.clear()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--train", train, "--dev", dev, "--out", f"{out}/{run}",
                     "--adapter", "rel", "--batch-size", "4", "--max-epochs", "3",
                     "--patience", "3"])
    print(code, len(started), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are set through glibc's mallopt")
def test_an_evaluator_faults_in_almost_no_pages_of_the_trainer(tmp_path, corpus_files):
    """A forked evaluator would share the trainer's pages copy-on-write, and
    each page the trainer wrote after the fork would fault once: about
    3,000 faults in this script's third run. A fresh interpreter shares
    none. Run in a fresh process so the test process's own heap does not
    count, as ``tests/test_cli.py``'s repeat-training test does."""
    src = str(Path(aste.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", REPEATED_TRAIN, str(corpus_files / "train.jsonl"),
         str(corpus_files / "dev.jsonl"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True)
    runs = [tuple(map(int, line.split())) for line in result.stdout.splitlines()]
    assert [run[:2] for run in runs] == [(0, 1)] * 3
    assert runs[2][2] < 500, runs


def early_stopped(capsys, monkeypatch, corpus_files, tmp_path, cores=CORES):
    """Runs that early stopping ends at the epoch returned, well before
    their last."""
    flags = ("--adapter", "rel", "--max-epochs", "9", "--patience", "2")
    runs = on_each_core_count(capsys, monkeypatch, corpus_files, tmp_path, *flags, cores=cores)
    assert runs[1][0] == 0 and epochs_run(runs[1]) < 9
    return runs, epochs_run(runs[1]) - 1, flags


def test_early_stopped_run_byte_identical_on_any_core_count(capsys, monkeypatch, tmp_path,
                                                            corpus_files):
    runs, last, flags = early_stopped(capsys, monkeypatch, corpus_files, tmp_path)
    assert runs[2] == runs[3] == runs[1]
    assert f"best_epoch\t{last - 2}\n" in runs[1][1]


def test_a_best_epoch_scored_by_the_evaluator_keeps_its_weights(capsys, monkeypatch, tmp_path,
                                                                corpus_files):
    """Epoch 2's dev score is made perfect wherever it is read: from
    ``evaluate_model`` in the trainer, or from the evaluator's answer. With
    an evaluator the trainer keeps the copy of epoch 2's weights it sent to
    be scored, and it must be the weights one process keeps. The trainer
    sends the evaluator the set-up message and then each scored epoch's
    number with its weights, and nothing else: no weights come back. (These
    tiny runs score 0 on dev throughout, so otherwise epoch 0, which the
    trainer scores, is always the best.)"""
    evaluate, send, receive = aste.training.evaluate_model, Worker.send, Worker.receive
    step, steps, sent, answered = aste.training._step, [], [], []
    perfect = MatchScores(matched=1, predicted=1, gold=1)

    def counting(*args):
        steps.append(None)
        return step(*args)

    def scoring(model, sentences, batches=None):
        scores = evaluate(model, sentences, batches)
        return perfect if len(steps) == 3 * STEPS else scores

    def sending(worker, message, *arrays):
        sent.append((message, len(arrays)))
        send(worker, message, *arrays)

    def answering(worker):
        answer = receive(worker)
        answered.append(answer)
        if isinstance(answer, MatchScores):
            scored = [message for message, arrays in sent if arrays]
            return perfect if scored[len(answered) - 1] == 2 else answer
        return answer

    monkeypatch.setattr(aste.training, "_step", counting)
    monkeypatch.setattr(aste.training, "evaluate_model", scoring)
    monkeypatch.setattr(Worker, "send", sending)
    monkeypatch.setattr(Worker, "receive", answering)
    runs = {}
    for cores in (1, 2):
        steps.clear()
        sent.clear()
        answered.clear()
        runs[cores] = train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{cores}", cores,
                               "--adapter", "rel", "--max-epochs", "4", "--patience", "4")
    assert runs[1][0] == 0 and runs[1][1].startswith("best_epoch\t2\n")
    assert runs[2] == runs[1]
    (setup, setup_arrays), *weights = sent
    assert isinstance(setup, tuple) and setup_arrays == 0
    groups = 3  # encoder, adapter and parser
    assert weights == [(1, groups), (2, groups)]
    assert [type(answer) for answer in answered] == [MatchScores, MatchScores]


@pytest.mark.skipif(platform.system() != "Linux", reason="pipe capacities are Linux's fcntl")
def test_make_room_only_ever_widens_a_pipe():
    """``F_SETPIPE_SZ`` sets a pipe's capacity, and would shrink a 64 KiB
    pipe to two pages for a small array; ``make_room`` leaves a pipe at least
    as wide as it was, and widens it for a message larger than that."""
    read, write = os.pipe()
    worker = Worker.__new__(Worker)
    worker._write = write
    try:
        before = fcntl.fcntl(write, fcntl.F_GETPIPE_SZ)
        worker.make_room(np.zeros(8))
        assert fcntl.fcntl(write, fcntl.F_GETPIPE_SZ) >= before
        worker.make_room(np.zeros(before // 4))
        assert fcntl.fcntl(write, fcntl.F_GETPIPE_SZ) >= 2 * before + 4096
    finally:
        os.close(read)
        os.close(write)


def test_step_diverging_after_the_last_epoch_still_ends_cleanly(capsys, monkeypatch, tmp_path,
                                                                corpus_files):
    """A step of the epoch after the one early stopping ends on fails. One
    process never runs it; the trainer runs it while that epoch's dev score
    is in flight, and the score must end the run before the failure counts."""
    clean, last, flags = early_stopped(capsys, monkeypatch, corpus_files, tmp_path / "clean",
                                       cores=(1, 2))
    step, calls = aste.training._step, []

    def failing_step(*args):
        calls.append(None)
        if len(calls) > (last + 1) * STEPS:
            raise NumericError("backward produced non-finite values")
        return step(*args)

    monkeypatch.setattr(aste.training, "_step", failing_step)
    for cores in (1, 2):
        calls.clear()
        run = train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{cores}", cores, *flags)
        assert run == clean[cores]
        # Only the runs with an evaluator reach the failing step.
        assert len(calls) == (last + 1) * STEPS + (cores > 1)


@pytest.mark.parametrize("epoch", [1, 3])
def test_dev_token_overflowing_at_an_epoch_fails_as_in_one_process(capsys, monkeypatch,
                                                                   tmp_path, corpus_files,
                                                                   epoch):
    """After the last step of ``epoch``, the dev-only token's embedding is
    set to 1e308, which the embedding norm overflows when the dev set is
    scored: the evaluator scores epoch 1, and the trainer the last, epoch 3.
    No training batch reads that row."""
    step, calls = aste.training._step, []

    def planting(model, *args):
        calls.append(None)
        result = step(model, *args)
        if len(calls) == (epoch + 1) * STEPS:
            model.encoder.params["tok_emb"].data[model.vocab.encode([PLANTED])[0]] = 1e308
        return result

    monkeypatch.setattr(aste.training, "_step", planting)
    flags = ("--adapter", "dep", "--max-epochs", "4", "--patience", "4")
    runs = {}
    for cores in (1, 2):
        calls.clear()
        runs[cores] = train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{cores}",
                               cores, *flags)
    assert runs[1][:3] == (1, "", "aste: embedding produced non-finite values\n")
    assert runs[2] == runs[1]


@pytest.mark.parametrize("owing", [False, True])
def test_evaluator_killed_by_a_signal_exits_1(capsys, monkeypatch, tmp_path, corpus_files,
                                              owing):
    """Killed while it owes no answer, the trainer finds it gone when it
    sends the next weights; killed while it owes one (stopped before the
    weights are sent, so it cannot have answered), when it reads it."""
    on_sending(monkeypatch, 1, *((stop, kill) if owing else (kill,)))
    code, out, err, files = train_on(capsys, monkeypatch, corpus_files, tmp_path / "out", 2,
                                     "--adapter", "rel", "--max-epochs", "3", "--patience", "3")
    assert (code, out, files["history.tsv"]) == (1, "", None)
    assert re.fullmatch(r"aste: dev evaluator \d+ was killed by signal 9 without an answer\n",
                        err)


def test_no_child_left_after_an_interrupt_in_a_step(capsys, monkeypatch, tmp_path, corpus_files):
    step, calls = aste.training._step, []

    def interrupted_step(*args):
        calls.append(None)
        if len(calls) == STEPS + 2:
            raise KeyboardInterrupt
        return step(*args)

    monkeypatch.setattr(aste.training, "_step", interrupted_step)
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--train", str(corpus_files / "train.jsonl"),
              "--dev", str(corpus_files / "dev.jsonl"), "--out", str(tmp_path / "out"),
              *SETTINGS, "--adapter", "dep", "--max-epochs", "3", "--patience", "3"])
    assert_no_child_left()


class Alarm(Exception):
    pass


def test_a_weight_send_does_not_wait_for_a_stopped_evaluator(capsys, monkeypatch, tmp_path,
                                                             corpus_files):
    """The pipe to the evaluator holds one epoch's weights, 300 KB and more
    at the default model size against a 64 KiB default pipe: with the
    evaluator stopped, the send of epoch 1's weights returns before an
    interval timer fires, and the run then ends as usual."""
    sent = []

    def stop_and_set_timer(pid):
        stop(pid)
        signal.setitimer(signal.ITIMER_REAL, 2.0)

    def cancel_and_continue(pid):
        signal.setitimer(signal.ITIMER_REAL, 0)
        sent.append(pid)
        os.kill(pid, signal.SIGCONT)

    def raise_alarm(signum, frame):
        raise Alarm

    on_sending(monkeypatch, 1, stop_and_set_timer, cancel_and_continue)
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: 2)
    previous = signal.signal(signal.SIGALRM, raise_alarm)
    try:
        code = main(["train", "--train", str(corpus_files / "train.jsonl"),
                     "--dev", str(corpus_files / "dev.jsonl"), "--out", str(tmp_path / "out"),
                     "--adapter", "rel", "--max-epochs", "3", "--patience", "3"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and len(sent) == 1
    assert (tmp_path / "out" / "weights.bin").stat().st_size > 300_000
    assert_no_child_left()


def test_interrupt_while_waiting_for_a_score_does_not_wait_for_it(monkeypatch, tmp_path,
                                                                  corpus_files):
    """An exception raised in the trainer while it waits for a dev score
    (here from an interval timer) kills and reaps the evaluator at once,
    though the evaluator, stopped, would never answer."""

    def stop_and_set_timer(pid):
        stop(pid)
        signal.setitimer(signal.ITIMER_REAL, 0.3)

    def raise_alarm(signum, frame):
        raise Alarm

    on_sending(monkeypatch, 1, stop_and_set_timer)
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: 2)
    previous = signal.signal(signal.SIGALRM, raise_alarm)
    start = time.perf_counter()
    try:
        with pytest.raises(Alarm):
            main(["train", "--train", str(corpus_files / "train.jsonl"),
                  "--dev", str(corpus_files / "dev.jsonl"), "--out", str(tmp_path / "out"),
                  *SETTINGS, "--adapter", "rel", "--max-epochs", "3", "--patience", "3"])
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 5
    assert_no_child_left()
