"""``aste train`` runs every batch as two fixed halves, its even and its odd
rows. On more than one usable core a forked helper holds a replica of the
model and runs the odd rows of every training and dev batch, the trainer
the even rows; their gradients meet in a shared mapping, and each steps
the parameter groups it owns and copies in the other's. These tests
hold that to the one-process run: the same bytes out, replicas that agree
bit for bit, the same error, and no child process left behind, whatever
happened. The helper is forked, so the monkeypatches made here run in it
too, each process counting its own calls."""

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
import aste.model
import aste.training
from aste.cli import main
from aste.data import UNK_ID, Sentence, length_buckets, read_corpus_file, write_corpus_file
from aste.errors import NumericError
from aste.model import PREDICT_BATCH
from aste.structure import random_tree_heads
from aste.synth import learnable_corpus
from aste.training import AdamW, bucket_batches
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
    """``train.jsonl`` (12 learnable-corpus records), ``dev.jsonl`` (4) and
    ``dev20.jsonl`` (20, two inference batches), each record with a random
    tree of heads. The first sentence of ``dev.jsonl`` ends in a token no
    training sentence has, ``planted``; so do an even row (the trainer's)
    of the first inference batch of ``dev20.jsonl`` and, in ``planted1``, an
    odd row (the helper's)."""
    directory = tmp_path_factory.mktemp("split_train")
    rng = np.random.default_rng(11)
    sentences = [Sentence(tokens=s.tokens, triplets=s.triplets,
                          heads=random_tree_heads(len(s), rng))
                 for s in learnable_corpus(40, seed=5).train]

    def planted(sentence, token):
        return Sentence(tokens=sentence.tokens[:-1] + [token], triplets=sentence.triplets,
                        heads=sentence.heads)

    dev = [planted(sentences[12], PLANTED)] + sentences[13:16]
    dev20 = sentences[16:36]
    batches = length_buckets(dev20, PREDICT_BATCH)
    assert len(batches) == 2
    for row, token in enumerate((PLANTED, PLANTED + "1")):
        dev20[batches[0][row]] = planted(dev20[batches[0][row]], token)
    write_corpus_file(directory / "train.jsonl", sentences[:12])
    write_corpus_file(directory / "dev.jsonl", dev)
    write_corpus_file(directory / "dev20.jsonl", dev20)
    return directory


def train_on(capsys, monkeypatch, corpus_files, out, cores, *flags, dev="dev.jsonl"):
    """``aste train`` with the core lookup giving ``cores``: its exit code,
    stdout and stderr, and the bytes of each artifact it wrote (None for
    one it did not). No child may be left after it."""
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: cores)
    code = main(["train", "--train", str(corpus_files / "train.jsonl"),
                 "--dev", str(corpus_files / dev), "--out", str(out), *SETTINGS, *flags])
    captured = capsys.readouterr()
    assert_no_child_left()
    files = {name: (out / name).read_bytes() if (out / name).exists() else None
             for name in ("history.tsv", "config.resolved", "weights.bin")}
    return code, captured.out, captured.err, files


def on_each_core_count(capsys, monkeypatch, corpus_files, tmp_path, *flags, cores=CORES,
                       dev="dev.jsonl"):
    """The ``train_on`` run of each core count in ``cores``. Past 2 the runs
    only repeat 2's, one helper, so tests of errors stop there."""
    return {count: train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{count}", count,
                            *flags, dev=dev)
            for count in cores}


def epochs_run(run) -> int:
    """The rows of a run's ``history.tsv``."""
    return sum(line[:1].isdigit() for line in run[3]["history.tsv"].decode().splitlines())


def training_tokens(corpus_files, batch, row):
    """The tokens of row ``row`` of length-sorted training batch ``batch``:
    half ``row % 2`` of that batch holds it."""
    sentences = read_corpus_file(corpus_files / "train.jsonl")
    return bucket_batches(sentences, 4)[batch][row].tokens


@pytest.mark.parametrize("adapter", ["none", "dep"])
def test_outputs_byte_identical_on_any_core_count(capsys, monkeypatch, tmp_path, corpus_files,
                                                  forks, adapter):
    runs = {}
    for cores in CORES:
        forks.clear()
        runs[cores] = train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{cores}",
                               cores, "--adapter", adapter, "--max-epochs", "4",
                               "--patience", "4")
        assert len(forks) == min(cores - 1, 1)  # one helper, however many cores
    code, out, err, files = runs[1]
    assert (code, err) == (0, "") and out.startswith("best_epoch\t")
    assert epochs_run(runs[1]) == 4 and None not in files.values()
    assert runs[2] == runs[3] == runs[1]


def early_stopped(capsys, monkeypatch, corpus_files, tmp_path, cores=CORES):
    """Runs that early stopping ends at the epoch returned, well before
    their last."""
    flags = ("--adapter", "rel", "--max-epochs", "9", "--patience", "2")
    runs = on_each_core_count(capsys, monkeypatch, corpus_files, tmp_path, *flags, cores=cores)
    assert runs[1][0] == 0 and epochs_run(runs[1]) < 9
    return runs, epochs_run(runs[1]) - 1, flags


def test_early_stopped_run_byte_identical_on_any_core_count(capsys, monkeypatch, tmp_path,
                                                            corpus_files):
    runs, last, _ = early_stopped(capsys, monkeypatch, corpus_files, tmp_path)
    assert runs[2] == runs[3] == runs[1]
    assert f"best_epoch\t{last - 2}\n" in runs[1][1]


def test_replicas_bit_identical_at_every_epoch_end(capsys, monkeypatch, tmp_path, corpus_files,
                                                   forks):
    """At each epoch's end, as dev scoring starts, each process writes its
    weights to a file named by its pid and step; after each epoch's last
    optimizer step, it writes each group's AdamW moments to one named by
    its pid, step and group. The trainer's and the helper's weights are the
    same bytes, and so are the one process's. Each group's moments are
    held by one of the two, and are the one process's bytes."""
    step, evaluate, at = AdamW.step, aste.training.evaluate_model, [0]
    runs = [tmp_path / "one", tmp_path / "two"]

    def dumping(optimizer, base_lr):
        step(optimizer, base_lr)
        at[0] = optimizer.t
        if optimizer.t % STEPS == 0:
            for group, m, v in zip(optimizer.groups, optimizer.m, optimizer.v):
                (runs[0] / f"{os.getpid()}-{optimizer.t}-{group.name}").write_bytes(
                    np.concatenate([m, v]).tobytes())

    def scoring(model, sentences, batches=None):
        weights = [group.buffer for group in model.param_groups()]
        (runs[0] / f"{os.getpid()}-{at[0]}").write_bytes(np.concatenate(weights).tobytes())
        return evaluate(model, sentences, batches)

    monkeypatch.setattr(AdamW, "step", dumping)
    monkeypatch.setattr(aste.training, "evaluate_model", scoring)
    flags = ("--adapter", "dep", "--max-epochs", "4", "--patience", "4")
    one = train_on(capsys, monkeypatch, corpus_files, runs[0], 1, *flags)
    runs.pop(0)
    two = train_on(capsys, monkeypatch, corpus_files, runs[0], 2, *flags)
    assert two == one and one[0] == 0 and len(forks) == 1
    one, two = tmp_path / "one", tmp_path / "two"
    names = ("encoder", "adapter", "parser")
    for t in range(STEPS, 4 * STEPS + 1, STEPS):
        alone, trainer, helper = (one / f"{os.getpid()}-{t}", two / f"{os.getpid()}-{t}",
                                  two / f"{forks[0]}-{t}")
        assert trainer.read_bytes() == helper.read_bytes(), f"replicas differ after step {t}"
        assert trainer.read_bytes() == alone.read_bytes(), f"one process differs after step {t}"
        for name in names:
            held = [path for pid in (os.getpid(), forks[0])
                    if (path := two / f"{pid}-{t}-{name}").exists()]
            assert len(held) == 1, f"{name} moments held by {len(held)} processes"
            assert held[0].read_bytes() == (one / f"{os.getpid()}-{t}-{name}").read_bytes(), \
                f"{name} moments differ from one process's after step {t}"


@pytest.mark.parametrize("failing", [(0,), (1,), (0, 1)], ids=["even", "odd", "both"])
def test_divergence_in_either_half_gives_the_one_process_message(capsys, monkeypatch, tmp_path,
                                                                 corpus_files, failing):
    """In epoch 1, the step on training batch 1 raises in the half that
    holds row 0 of that batch, row 1, or both, each naming its row. Every
    core count gives the message of one process, which runs the even rows
    first."""
    targets = {row: training_tokens(corpus_files, 1, row) for row in failing}
    step, seen = aste.training._step, {row: 0 for row in failing}

    def failing_step(model, groups, sentences, inputs):
        for row, tokens in targets.items():
            if any(s.tokens == tokens for s in sentences):
                seen[row] += 1
                if seen[row] == 2:
                    raise NumericError(f"row {row} produced non-finite values", op=f"row {row}")
        return step(model, groups, sentences, inputs)

    monkeypatch.setattr(aste.training, "_step", failing_step)
    runs = {}
    for cores in (1, 2):
        seen.update(dict.fromkeys(seen, 0))
        runs[cores] = train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{cores}",
                               cores, "--adapter", "rel", "--max-epochs", "3", "--patience", "3")
    code, out, err, files = runs[1]
    assert (code, out, files["history.tsv"]) == (1, "", None)
    assert re.fullmatch(rf"aste: non-finite value at epoch 1, step \d: row {failing[0]} "
                        r"produced non-finite values\n", err)
    assert runs[2] == runs[1]


@pytest.mark.parametrize("when", ["in-a-step", "while-scoring"])
def test_helper_killed_by_a_signal_exits_1(capsys, monkeypatch, tmp_path, corpus_files, forks,
                                           when):
    """The trainer kills its helper in epoch 1, during a step or while it
    scores its half of dev, and finds it gone when it next reads from it or
    writes to it."""
    step, evaluate, calls, parent = aste.training._step, aste.training.evaluate_model, [], \
        os.getpid()

    def killing(function, call):
        def wrapper(*args):
            if os.getpid() == parent:
                calls.append(None)
                if len(calls) == call:
                    kill(forks[0])
            return function(*args)
        return wrapper

    if when == "in-a-step":
        monkeypatch.setattr(aste.training, "_step", killing(step, STEPS + 2))
    else:
        monkeypatch.setattr(aste.training, "evaluate_model", killing(evaluate, 2))
    code, out, err, files = train_on(capsys, monkeypatch, corpus_files, tmp_path / "out", 2,
                                     "--adapter", "rel", "--max-epochs", "3", "--patience", "3")
    assert (code, out, files["history.tsv"]) == (1, "", None)
    assert re.fullmatch(r"aste: training helper \d+ was killed by signal 9 without an answer\n",
                        err)


def test_a_best_epoch_scored_by_the_helper_keeps_its_weights(capsys, monkeypatch, tmp_path,
                                                             corpus_files):
    """Epoch 2's dev score is made perfect where the odd rows of
    ``dev20.jsonl``'s batches are scored: by the helper on two cores, after
    the even rows in one process. The weights kept are epoch 2's, which the
    trainer copied itself, and every core count writes the same bytes.
    (These tiny runs score 0 on dev throughout, so otherwise epoch 0 is
    always the best.)"""
    step, evaluate, at = AdamW.step, aste.training.evaluate_model, []
    perfect = aste.training.MatchScores(matched=1, predicted=1, gold=1)

    def stepping(optimizer, base_lr):
        step(optimizer, base_lr)
        at[:] = [optimizer.t]

    def scoring(model, sentences, batches=None):
        scores = evaluate(model, sentences, batches)
        odd = any(PLANTED + "1" in sentences[i].tokens for batch, _ in batches for i in batch)
        return perfect if at == [3 * STEPS] and odd else scores

    monkeypatch.setattr(AdamW, "step", stepping)
    monkeypatch.setattr(aste.training, "evaluate_model", scoring)
    runs = on_each_core_count(capsys, monkeypatch, corpus_files, tmp_path, "--adapter", "rel",
                              "--max-epochs", "4", "--patience", "4", cores=(1, 2),
                              dev="dev20.jsonl")
    assert runs[1][0] == 0 and runs[1][1].startswith("best_epoch\t2\n")
    assert runs[2] == runs[1]


def test_step_diverging_after_the_last_epoch_still_ends_cleanly(capsys, monkeypatch, tmp_path,
                                                                corpus_files):
    """Every half of every step after the epoch early stopping ends on
    fails. One process never runs them; the helper, which trains on while
    the trainer scores and decides, may run the first, and its failure must
    not count."""
    clean, last, flags = early_stopped(capsys, monkeypatch, corpus_files, tmp_path / "clean",
                                       cores=(1, 2))
    step, optimizer_step, at = aste.training._step, AdamW.step, [0]

    def stepping(optimizer, base_lr):
        optimizer_step(optimizer, base_lr)
        at[0] = optimizer.t

    def failing_step(*args):
        if at[0] >= (last + 1) * STEPS:
            raise NumericError("backward produced non-finite values")
        return step(*args)

    monkeypatch.setattr(AdamW, "step", stepping)
    monkeypatch.setattr(aste.training, "_step", failing_step)
    for cores in (1, 2):
        at[0] = 0
        run = train_on(capsys, monkeypatch, corpus_files, tmp_path / f"out{cores}", cores, *flags)
        assert run == clean[cores]


def test_no_child_left_after_an_interrupt_in_a_step(capsys, monkeypatch, tmp_path, corpus_files):
    step, calls, parent = aste.training._step, [], os.getpid()

    def interrupted_step(*args):
        if os.getpid() == parent:
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


def test_interrupt_while_waiting_for_a_score_does_not_wait_for_it(monkeypatch, tmp_path,
                                                                  corpus_files, forks):
    """The trainer stops its helper as it starts scoring epoch 1 and sets
    an interval timer. The exception the timer raises while the trainer
    waits for the helper's score (or, had the helper sent it before it
    stopped, for its next half) kills and reaps the helper at once,
    though the helper, stopped, would never answer."""
    evaluate, calls, parent = aste.training.evaluate_model, [], os.getpid()

    def stopping(*args):
        if os.getpid() == parent:
            calls.append(None)
            if len(calls) == 2:
                stop(forks[0])
                signal.setitimer(signal.ITIMER_REAL, 0.3)
        return evaluate(*args)

    def raise_alarm(signum, frame):
        raise Alarm

    monkeypatch.setattr(aste.training, "evaluate_model", stopping)
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: 2)
    previous = signal.signal(signal.SIGALRM, raise_alarm)
    start = time.perf_counter()
    try:
        with pytest.raises(Alarm):
            main(["train", "--train", str(corpus_files / "train.jsonl"),
                  "--dev", str(corpus_files / "dev20.jsonl"), "--out", str(tmp_path / "out"),
                  *SETTINGS, "--adapter", "rel", "--max-epochs", "3", "--patience", "3"])
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 5
    assert_no_child_left()


@pytest.mark.parametrize("epoch", [1, 3])
def test_dev_token_overflowing_at_an_epoch_fails_as_in_one_process(capsys, monkeypatch,
                                                                   tmp_path, corpus_files,
                                                                   epoch):
    """As dev scoring of ``epoch`` starts, after its last optimizer step and
    weight copy, in every replica, the unknown token's embedding row, which
    the first dev sentence's last token reads, is set to 1e308, which the
    embedding norm overflows when dev is scored. No training batch reads
    that row."""
    step, evaluate, at = AdamW.step, aste.training.evaluate_model, [0]

    def stepping(optimizer, base_lr):
        step(optimizer, base_lr)
        at[0] = optimizer.t

    def planting(model, sentences, batches=None):
        if at[0] == (epoch + 1) * STEPS:
            model.param_groups()[0]["tok_emb"].data[UNK_ID] = 1e308
        return evaluate(model, sentences, batches)

    monkeypatch.setattr(AdamW, "step", stepping)
    monkeypatch.setattr(aste.training, "evaluate_model", planting)
    runs = on_each_core_count(capsys, monkeypatch, corpus_files, tmp_path, "--adapter", "dep",
                              "--max-epochs", "4", "--patience", "4", cores=(1, 2))
    assert runs[1][:3] == (1, "", "aste: embedding produced non-finite values\n")
    assert runs[2] == runs[1]


@pytest.mark.parametrize("failing", [(PLANTED,), (PLANTED + "1",), (PLANTED, PLANTED + "1")],
                         ids=["even-rows", "odd-rows", "both"])
def test_a_failing_dev_half_fails_as_in_one_process(capsys, monkeypatch, tmp_path,
                                                    corpus_files, failing):
    """Dev scoring of ``dev20.jsonl`` raises in every half batch holding one
    of the ``failing`` tokens, naming it; the even rows are the trainer's
    and the odd rows the helper's. Every core count gives the message of
    one process, which scores the even rows first."""
    forward = aste.model.TripletModel.forward

    def failing_forward(model, sentences, distances=None):
        for token in failing:
            if any(token in s.tokens for s in sentences):
                raise NumericError(f"{token} produced non-finite values", op=token)
        return forward(model, sentences, distances)

    monkeypatch.setattr(aste.model.TripletModel, "forward", failing_forward)
    runs = on_each_core_count(capsys, monkeypatch, corpus_files, tmp_path, "--adapter", "rel",
                              "--max-epochs", "2", "--patience", "2", cores=(1, 2),
                              dev="dev20.jsonl")
    assert runs[1][:3] == (1, "", f"aste: {failing[0]} produced non-finite values\n")
    assert runs[2] == runs[1]


# Runs ``aste train`` three times in one process on the core count given;
# prints each run's exit code and the minor page faults this process took.
REPEATED_TRAIN = """
import contextlib, io, resource, sys
import aste.cli
from aste.cli import main

train, dev, out, cores = sys.argv[1:]
aste.cli.usable_cores = lambda: int(cores)
for run in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--train", train, "--dev", dev, "--out", f"{out}/{cores}-{run}",
                     "--adapter", "rel", "--batch-size", "4", "--max-epochs", "12",
                     "--patience", "12"])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are set through glibc's mallopt")
def test_a_forked_helper_costs_the_trainer_its_working_set_once(tmp_path, corpus_files):
    """After the helper is forked, each page of its own heap that the
    trainer writes faults once, copy-on-write, and the shared mapping of
    the gradient halves faults in once: at these sizes the third repeat
    run took 1,958-1,973 faults at 12 epochs (36 steps), and 8-10 in one
    process. Faulting per step would cost that
    many again every step. Run in a fresh process so the test process's
    own heap does not count, as ``tests/test_cli.py``'s repeat-training
    test does."""
    src = str(Path(aste.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    faults = {}
    for cores in (1, 2):
        result = subprocess.run(
            [sys.executable, "-c", REPEATED_TRAIN, str(corpus_files / "train.jsonl"),
             str(corpus_files / "dev.jsonl"), str(tmp_path / "out"), str(cores)],
            capture_output=True, text=True, env=env, check=True)
        runs = [tuple(map(int, line.split())) for line in result.stdout.splitlines()]
        assert [code for code, _ in runs] == [0, 0, 0]
        faults[cores] = runs[2][1]
    assert faults[1] < 50 and faults[2] < 4_000, faults
