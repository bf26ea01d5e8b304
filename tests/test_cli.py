"""Command-line surface: subcommands, exit codes, artifact layout."""

import json
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import aste.cli
from aste.cli import CONFIG_DEFAULTS, _load_config_file, main
from aste.data import (
    Sentence,
    Vocabulary,
    parse_record,
    read_corpus_file,
    serialize_record,
    write_corpus_file,
)
from aste.encoder import EncoderConfig
from aste.errors import ParseError, ValidationError
from aste.model import TripletModel
from aste.parser import ParserConfig
from aste.structure import DEPENDENCY, NONE, RELATIVE, StructureConfig, random_tree_heads
from aste.synth import learnable_corpus, random_gold_sentences
from aste.training import TrainConfig


@pytest.fixture
def corpus_files(tmp_path):
    corpus = learnable_corpus(14, seed=0)
    train = tmp_path / "train.jsonl"
    dev = tmp_path / "dev.jsonl"
    write_corpus_file(train, corpus.train)
    write_corpus_file(dev, corpus.dev[:6])
    return train, dev


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_adapter_variant(self, capsys):
        code, out, _ = run(capsys, "params", "--variant", "adapter",
                           "--layers", "12", "--tau", "8", "--head-dim", "64")
        assert code == 0
        assert out.strip() == "13,056"

    def test_layer2_variant(self, capsys):
        code, out, _ = run(capsys, "params", "--variant", "layer2",
                           "--dim", "768", "--ffn", "3072")
        assert code == 0
        assert out.strip() == "14,175,744"

    def test_bare_variant_prints_integer(self, capsys):
        code, out, _ = run(capsys, "params", "--variant", "bare",
                           "--dim", "64", "--heads", "4", "--layers", "2",
                           "--ffn", "128", "--vocab-size", "100", "--max-len", "64")
        assert code == 0
        assert int(out.strip().replace(",", "")) > 0

    @pytest.mark.parametrize("argv", [
        ["--variant", "adapter", "--layers", "-1"],
        ["--variant", "adapter", "--tau", "0"],
        ["--variant", "adapter", "--head-dim", "0"],
        ["--variant", "layer2", "--dim", "-5"],
        ["--variant", "layer2", "--ffn", "0"],
        ["--variant", "bare", "--dim", "0"],
        ["--variant", "bare", "--heads", "0"],
        ["--variant", "bare", "--vocab-size", "-100"],
    ])
    def test_non_positive_size_exits_1(self, capsys, argv):
        code, out, err = run(capsys, "params", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("aste: ") and "positive" in err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["params", "--variant", "adapter", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_validation_failure_exits_1(self, capsys, tmp_path):
        small = tmp_path / "small.jsonl"
        write_corpus_file(small, random_gold_sentences(5, seed=0))
        code, _, err = run(capsys, "split", "--input", str(small),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert "aste:" in err


class TestDataCommands:
    def test_split_writes_three_files(self, capsys, tmp_path):
        full = tmp_path / "full.jsonl"
        write_corpus_file(full, random_gold_sentences(40, seed=1))
        out_dir = tmp_path / "splits"
        code, out, _ = run(capsys, "split", "--input", str(full),
                           "--out-dir", str(out_dir), "--seed", "3")
        assert code == 0
        sizes = dict(line.split("\t") for line in out.strip().splitlines())
        assert sizes == {"train": "28", "dev": "4", "test": "8"}
        assert len(read_corpus_file(out_dir / "train.jsonl")) == 28

    def test_negative_seed_exits_1_before_any_output(self, capsys, tmp_path):
        full = tmp_path / "full.jsonl"
        write_corpus_file(full, random_gold_sentences(20, seed=1))
        out_dir = tmp_path / "splits"
        code, out, err = run(capsys, "split", "--input", str(full),
                             "--out-dir", str(out_dir), "--seed", "-1")
        assert (code, out, err) == (1, "", "aste: seed must be non-negative\n")
        assert not out_dir.exists()

    def test_stats_table(self, capsys, corpus_files):
        train, dev = corpus_files
        code, out, _ = run(capsys, "stats", "--train", str(train), "--dev", str(dev))
        assert code == 0
        assert out.startswith("split\tsentences")
        rows = out.strip().splitlines()
        assert rows[1].startswith("train\t14")

    def test_preprocess_reports_counts(self, capsys, tmp_path):
        raw = tmp_path / "raw.jsonl"
        lines = [
            '{"tokens": ["a", "b", "c"], "triplets": [{"aspect": [0, 0], "opinion": [1, 1], "sentiment": "POS"}]}',
            '{"tokens": ["a", "b", "c", "d", "e"], "triplets": [{"aspect": [0, 0], "opinion": [1, 1], "sentiment": "POS"}]}',
            '{"tokens": ["a", "b", "c", "d", "e"]}',
        ]
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_file = tmp_path / "clean.jsonl"
        code, out, _ = run(capsys, "preprocess", "--input", str(raw), "--out", str(out_file))
        assert code == 0
        report = dict(line.split("\t") for line in out.strip().splitlines())
        assert report["kept"] == "1"
        assert report["removed_too_short"] == "1"
        assert report["removed_no_annotations"] == "1"
        assert len(read_corpus_file(out_file)) == 1

    def test_convert(self, capsys, tmp_path):
        src = tmp_path / "triples.txt"
        src.write_text(
            "Great food ####[([1], [0], 'POS')]\nbroken line\n", encoding="utf-8"
        )
        out_file = tmp_path / "canonical.jsonl"
        code, out, err = run(capsys, "convert", "--input", str(src), "--out", str(out_file))
        assert code == 0
        assert "converted\t1" in out
        assert "line 2" in err
        assert len(read_corpus_file(out_file)) == 1

    @pytest.mark.parametrize("line, message", [
        ('{"tokens": ["a", "b"], "triplets": null}', "triplets must be a list"),
        ('{"tokens": ["a", "b"], "triplets": 5}', "triplets must be a list"),
        ('{"tokens": ["a", "b"], "triplets": [{"aspect": [0, 1.5], "opinion": [0, 0], '
         '"sentiment": "POS"}]}', "bad triplet .*: bad span"),
        ('{"tokens": ["a", "b"], "triplets": [{"aspect": [true, true], "opinion": [0, 0], '
         '"sentiment": "POS"}]}', "bad triplet .*: bad span"),
        ("[" * 100_000, "invalid JSON"),
        ('{"tokens": ["a"], "heads": [' + "1" * 5000 + "]}", "invalid JSON"),
        ('{"tokens": ["a", "\\ud800"]}', "tokens are not valid text"),
    ], ids=["null-triplets", "int-triplets", "float-bound", "bool-bounds", "deep-nesting",
            "huge-integer", "lone-surrogate"])
    def test_malformed_line_exits_1_naming_it(self, capsys, corpus_files, tmp_path,
                                              line, message):
        """parse_record rejects the line, and ``aste stats`` and ``aste train``
        on a file holding it as line 2 exit 1 with the line's error, not a
        traceback."""
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            parse_record(line, line_no=2)
        train, dev = corpus_files
        bad = tmp_path / "bad.jsonl"
        first = train.read_text(encoding="utf-8").splitlines()[0]
        bad.write_text(f"{first}\n{line}\n", encoding="utf-8")
        for argv in (["stats", "--train", str(bad)],
                     ["train", "--train", str(bad), "--dev", str(dev),
                      "--out", str(tmp_path / "out"), "--max-epochs", "1", "--patience", "1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert re.match(f"aste: line 2: {message}", err) and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bytes_that_are_not_utf8_name_their_line(self, capsys, tmp_path):
        """A line holding bytes that are not UTF-8 fails ``stats``,
        ``decode`` and ``convert`` with its line number, blank lines
        counted, exit 1 and no output; for ``decode`` it fails in the
        reading, before the model's limits are checked against the file."""
        good = b'{"tokens": ["the", "soup", "was", "hot"], "heads": [-1, 0, 1, 2]}'
        source = tmp_path / "in.jsonl"
        source.write_bytes(good + b"\n\n" + good + b"\n" + b'{"tokens": ["caf\xe9"]}\n')
        code, out, err = run(capsys, "stats", "--train", str(source))
        assert (code, out, err) == (1, "", "aste: line 4: the line is not UTF-8 text\n")
        weights, _ = TestDecodeRecords.weights(tmp_path, DEPENDENCY)
        decoded = tmp_path / "out.jsonl"
        code, out, err = run(capsys, "decode", "--weights", str(weights),
                             "--input", str(source), "--out", str(decoded))
        assert (code, out, err) == (1, "", "aste: line 4: the line is not UTF-8 text\n")
        assert not decoded.exists()
        triples = tmp_path / "triples.txt"
        triples.write_bytes(b"Great food ####[([1], [0], 'POS')]\n\xff\xfe ####[]\n")
        converted = tmp_path / "canonical.jsonl"
        code, out, err = run(capsys, "convert", "--input", str(triples), "--out", str(converted))
        assert (code, out, err) == (1, "", "aste: line 2: the line is not UTF-8 text\n")
        assert not converted.exists()


class TestBenchCommand:
    def test_both_methods_with_caveat(self, capsys):
        code, out, _ = run(capsys, "bench", "--method", "both",
                           "--length", "32", "--reps", "5")
        assert code == 0
        assert "relative" in out and "dependency" in out
        assert "ratio" in out
        assert "external syntactic parser" in out

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "bench", "--method", "rel",
                           "--length", "16", "--reps", "3")
        assert code == 0
        assert out.splitlines()[1].startswith("relative")


    @pytest.mark.parametrize("method", ["rel", "dep"])
    def test_negative_seed_exits_1(self, capsys, method):
        code, out, err = run(capsys, "bench", "--method", method, "--length", "16",
                             "--reps", "2", "--seed", "-1")
        assert (code, out, err) == (1, "", "aste: seed must be non-negative\n")

    @pytest.mark.parametrize("tau", ["0", "-2"])
    def test_non_positive_tau_exits_1(self, capsys, tau):
        code, out, err = run(capsys, "bench", "--method", "both", "--length", "5",
                             "--reps", "3", "--tau", tau)
        assert (code, out) == (1, "")
        assert err == "aste: tau must be >= 1\n"


class TestTrainEvalDecode:
    def train_args(self, train, dev, out_dir, seed="0"):
        return [
            "train", "--train", str(train), "--dev", str(dev), "--out", str(out_dir),
            "--dim", "8", "--heads", "2", "--layers", "1", "--ffn-dim", "12",
            "--max-epochs", "2", "--patience", "2", "--batch-size", "4",
            "--lr", "1e-4", "--seed", seed,
        ]

    def test_train_writes_artifacts_and_is_reproducible(self, capsys, corpus_files, tmp_path):
        train, dev = corpus_files
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        code, out, _ = run(capsys, *self.train_args(train, dev, out_a))
        assert code == 0
        assert "dev_f1" in out
        for name in ("config.resolved", "history.tsv", "weights.bin"):
            assert (out_a / name).exists()
        code, _, _ = run(capsys, *self.train_args(train, dev, out_b))
        assert code == 0
        assert (out_a / "history.tsv").read_bytes() == (out_b / "history.tsv").read_bytes()
        assert (out_a / "weights.bin").read_bytes() == (out_b / "weights.bin").read_bytes()

    def test_resolved_config_echoes_flags(self, capsys, corpus_files, tmp_path):
        train, dev = corpus_files
        out_dir = tmp_path / "run"
        config_file = tmp_path / "base.json"
        config_file.write_text(json.dumps({"lr": 9e-9, "dim": 8}), encoding="utf-8")
        args = self.train_args(train, dev, out_dir) + ["--config", str(config_file)]
        code, _, _ = run(capsys, *args)
        assert code == 0
        resolved = json.loads((out_dir / "config.resolved").read_text(encoding="utf-8"))
        assert resolved["lr"] == 1e-4  # flag wins over config file
        assert resolved["dim"] == 8
        assert resolved["train"] == str(train)

    def test_decode_then_eval(self, capsys, corpus_files, tmp_path):
        train, dev = corpus_files
        out_dir = tmp_path / "run"
        run(capsys, *self.train_args(train, dev, out_dir))
        weights = out_dir / "weights.bin"

        decoded = tmp_path / "predictions.jsonl"
        code, out, _ = run(capsys, "decode", "--weights", str(weights),
                           "--input", str(dev), "--out", str(decoded))
        assert code == 0
        predictions = read_corpus_file(decoded)
        assert len(predictions) == 6

        scores_file = tmp_path / "scores.tsv"
        code, out, _ = run(capsys, "eval", "--weights", str(weights),
                           "--input", str(dev), "--scores", str(scores_file))
        assert code == 0
        assert out.startswith("matched\t")
        assert scores_file.read_text(encoding="utf-8").startswith("matched\t")

    def test_decode_matches_library_predictions(self, capsys, corpus_files, tmp_path):
        train, dev = corpus_files
        out_dir = tmp_path / "run"
        run(capsys, *self.train_args(train, dev, out_dir))
        decoded = tmp_path / "p.jsonl"
        run(capsys, "decode", "--weights", str(out_dir / "weights.bin"),
            "--input", str(dev), "--out", str(decoded))
        model = TripletModel.load(out_dir / "weights.bin")
        for line, sentence in zip(
            decoded.read_text(encoding="utf-8").splitlines(), read_corpus_file(dev)
        ):
            record = parse_record(line)
            assert set(record.triplets) == model.predict(sentence)

    def test_same_outputs_where_the_c_library_has_no_mallopt(self, capsys, monkeypatch,
                                                             corpus_files, tmp_path):
        train, dev = corpus_files

        def outputs(out_dir):
            trained = run(capsys, *self.train_args(train, dev, out_dir))
            decoded = run(capsys, "decode", "--weights", str(out_dir / "weights.bin"),
                          "--input", str(dev), "--out", str(out_dir / "decoded.jsonl"))
            files = [(out_dir / name).read_bytes()
                     for name in ("history.tsv", "weights.bin", "decoded.jsonl")]
            return trained, decoded, files

        tuned = outputs(tmp_path / "tuned")
        monkeypatch.setattr(aste.cli, "_libc_mallopt", lambda: None)
        plain = outputs(tmp_path / "plain")
        assert tuned[0][0] == tuned[1][0] == 0
        assert plain == tuned

    def test_overlong_sentence_rejected_before_any_output(self, capsys, corpus_files, tmp_path):
        train, dev = corpus_files
        out_dir = tmp_path / "run"
        run(capsys, *self.train_args(train, dev, out_dir))
        weights = str(out_dir / "weights.bin")
        records = read_corpus_file(dev)[:3]
        long = type(records[0])(tokens=["w"] * 170)
        lines = [serialize_record(records[0]), "", serialize_record(long)]
        lines += [serialize_record(r) for r in records[1:]]
        corpus = tmp_path / "long.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        decoded = tmp_path / "predictions.jsonl"
        code, _, err = run(capsys, "decode", "--weights", weights,
                           "--input", str(corpus), "--out", str(decoded))
        assert code == 1
        assert "line 3" in err and "170 tokens" in err and "158" in err
        assert not decoded.exists()
        scores = tmp_path / "scores.tsv"
        code, out, err = run(capsys, "eval", "--weights", weights,
                             "--input", str(corpus), "--scores", str(scores))
        assert code == 1
        assert "line 3" in err and out == ""
        assert not scores.exists()
        out_dir = tmp_path / "retrained"
        code, out, err = run(capsys, *self.train_args(corpus, dev, out_dir))
        assert code == 1
        assert "line 3" in err and "170 tokens" in err and out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"dim": 32,', "is not valid JSON"),
        ('["dim"]', "must hold a JSON object"),
        ('{"dim": "x"}', "dim='x' has the wrong type"),
        ('{"dim": true}', "dim=True has the wrong type"),
        ('{"dim": 8.0}', "dim=8.0 has the wrong type"),
        ('{"lr": "fast"}', "lr='fast' has the wrong type"),
        ('{"adapter": 1}', "adapter=1 has the wrong type"),
        ('{"heads": 0}', "must be positive"),
        ('{"dim": -2}', "must be positive"),
        ('{"lr": NaN}', "base_lr must be finite"),
        ('{"lr": Infinity}', "base_lr must be finite"),
        ('{"clip_norm": NaN}', "grad_clip_norm must be finite"),
        ('{"warmup_epochs": -Infinity}', "warmup_epochs must be finite"),
    ], ids=["truncated", "array", "str-for-int", "bool-for-int", "float-for-int",
            "str-for-float", "int-for-str", "zero-heads", "negative-dim", "nan-lr", "inf-lr",
            "nan-clip-norm", "minus-inf-warmup"])
    def test_malformed_config_file_fails_before_any_output(self, capsys, corpus_files,
                                                           tmp_path, text, message):
        train, dev = corpus_files
        config_file = tmp_path / "c.json"
        config_file.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--train", str(train), "--dev", str(dev),
                             "--out", str(out_dir), "--config", str(config_file))
        assert code == 1
        assert err.startswith("aste: ") and message in err
        if "JSON" in message or "type" in message:
            assert str(config_file) in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [
        ["--heads", "0"], ["--dim", "0"], ["--dim", "-2"], ["--ffn-dim", "-1"],
        ["--seed", "-1"], ["--max-epochs", "0"], ["--patience", "3"],
        ["--lr", "nan"], ["--lr", "inf"], ["--clip-norm", "nan"], ["--clip-norm", "inf"],
        ["--warmup-epochs", "nan"], ["--warmup-epochs", "inf"],
    ], ids=" ".join)
    def test_bad_size_flag_fails_before_any_output(self, capsys, corpus_files, tmp_path, flags):
        train, dev = corpus_files
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *self.train_args(train, dev, out_dir), *flags)
        assert code == 1
        assert err.startswith("aste: ")
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("empty", ["train", "dev"])
    def test_empty_split_fails_before_any_output(self, capsys, corpus_files, tmp_path, empty):
        train, dev = corpus_files
        (train if empty == "train" else dev).write_text("", encoding="utf-8")
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *self.train_args(train, dev, out_dir))
        assert code == 1
        assert err == "aste: train and dev splits must be non-empty\n"
        assert out == ""
        assert not out_dir.exists()

    def test_train_split_without_tokens_fails_before_any_output(self, capsys, corpus_files,
                                                                tmp_path):
        train, dev = corpus_files
        write_corpus_file(train, [Sentence(tokens=[], triplets=[])])
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *self.train_args(train, dev, out_dir))
        assert code == 1
        assert err == "aste: train split has no tokens\n"
        assert out == ""
        assert not out_dir.exists()

    def test_config_numbers_of_either_kind_for_float_keys(self, tmp_path):
        config_file = tmp_path / "c.json"
        raw = {"lr": 1, "warmup_epochs": 0, "clip_norm": 2.5, "batch_size": None, "tau": 3}
        config_file.write_text(json.dumps(raw), encoding="utf-8")
        assert _load_config_file(str(config_file)) == raw

    # A value other than the default for every config key, valid together.
    NON_DEFAULT = {
        "dim": 12, "heads": 3, "layers": 1, "ffn_dim": 10, "max_len": 40, "adapter": "rel",
        "tau": 3, "tag_hidden": 5, "pair_hidden": 6, "lr": 0.002, "batch_size": 3,
        "max_epochs": 4, "patience": 2, "warmup_epochs": 0.5, "clip_norm": 2.5, "seed": 7,
        "min_count": 2,
    }

    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_every_config_key_reaches_resolved_config_and_configs(self, capsys, monkeypatch,
                                                                  corpus_files, tmp_path, source):
        assert set(self.NON_DEFAULT) == set(CONFIG_DEFAULTS)
        assert all(self.NON_DEFAULT[k] != v for k, v in CONFIG_DEFAULTS.items())
        train, dev = corpus_files
        out_dir = tmp_path / "run"
        argv = ["train", "--train", str(train), "--dev", str(dev), "--out", str(out_dir)]
        if source == "flags":
            for key, value in self.NON_DEFAULT.items():
                argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            config_file = tmp_path / "c.json"
            config_file.write_text(json.dumps(self.NON_DEFAULT), encoding="utf-8")
            argv += ["--config", str(config_file)]
        seen = {}

        def stop(corpus, encoder_config, parser_config, train_config, vocab, processes):
            seen.update(encoder=encoder_config, parser=parser_config, train=train_config,
                        vocab=vocab)
            raise ValidationError("stopped before training")

        monkeypatch.setattr(aste.cli, "train", stop)
        code, _, err = run(capsys, *argv)
        assert code == 1 and "stopped before training" in err
        resolved = json.loads((out_dir / "config.resolved").read_text(encoding="utf-8"))
        assert resolved == {**self.NON_DEFAULT, "train": str(train), "dev": str(dev)}
        encoder, parser, train_config = seen["encoder"], seen["parser"], seen["train"]
        assert (encoder.dim, encoder.heads, encoder.layers, encoder.ffn_dim,
                encoder.max_len) == (12, 3, 1, 10, 40)
        assert encoder.adapter == StructureConfig(tau=3, kind=RELATIVE)
        assert (parser.tag_hidden, parser.pair_hidden) == (5, 6)
        assert train_config == TrainConfig(base_lr=0.002, batch_size=3, max_epochs=4, patience=2,
                                           warmup_epochs=0.5, grad_clip_norm=2.5, seed=7)
        expected_vocab = Vocabulary.build(read_corpus_file(train), min_count=2)
        assert seen["vocab"].id_list() == expected_vocab.id_list()
        assert encoder.vocab_size == len(expected_vocab) < len(Vocabulary.build(
            read_corpus_file(train)))

    def test_directory_paths_exit_1(self, capsys, corpus_files, tmp_path):
        train, dev = corpus_files
        folder = tmp_path / "folder"
        folder.mkdir()
        for argv in (
            self.train_args(train, dev, tmp_path / "a") + ["--config", str(folder)],
            self.train_args(folder, dev, tmp_path / "b"),
            ["decode", "--weights", str(folder), "--input", str(dev),
             "--out", str(tmp_path / "c.jsonl")],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("aste: ") and str(folder) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.jsonl", "folder", "train.jsonl"]

    def test_unknown_config_key_rejected(self, capsys, corpus_files, tmp_path):
        train, dev = corpus_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": 1e-3}), encoding="utf-8")
        args = self.train_args(train, dev, tmp_path / "o") + ["--config", str(bad)]
        code, _, err = run(capsys, *args)
        assert code == 1
        assert "unknown config keys" in err

    @pytest.mark.parametrize("config", [{"lr": "x" * 100_000}, {"k" * 100_000: 1}],
                             ids=["huge-value", "huge-key"])
    def test_huge_config_entry_gives_one_short_line(self, capsys, corpus_files, tmp_path,
                                                    config):
        train, dev = corpus_files
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, *self.train_args(train, dev, out_dir),
                             "--config", str(config_file))
        assert (code, out) == (1, "")
        assert err.startswith("aste: ") and err.count("\n") == 1 and len(err) < 300
        assert not out_dir.exists()


class TestDecodeRecords:
    """Decoding with freshly initialised models, saved and loaded as the
    CLI loads them."""

    @staticmethod
    def weights(tmp_path, adapter):
        corpus = learnable_corpus(10, seed=1)
        vocab = Vocabulary.build(corpus.train)
        config = EncoderConfig(vocab_size=len(vocab), dim=8, heads=2, layers=1, ffn_dim=12,
                               max_len=40, adapter=StructureConfig(tau=4, kind=adapter))
        path = tmp_path / f"{adapter}.bin"
        TripletModel(config, ParserConfig(tag_hidden=6, pair_hidden=5), vocab, seed=0).save(path)
        return path, corpus

    @pytest.mark.parametrize("adapter", [NONE, RELATIVE, DEPENDENCY])
    def test_empty_sentences_decode_to_no_triplets(self, capsys, tmp_path, adapter):
        weights, corpus = self.weights(tmp_path, adapter)
        rng = np.random.default_rng(0)
        records = [Sentence(tokens=s.tokens, heads=random_tree_heads(len(s), rng))
                   for s in corpus.train[:2]]
        records[1:1] = [Sentence(tokens=[], heads=[]), Sentence(tokens=[])]
        source = tmp_path / "in.jsonl"
        write_corpus_file(source, records)
        decoded = tmp_path / "out.jsonl"
        code, out, _ = run(capsys, "decode", "--weights", str(weights),
                           "--input", str(source), "--out", str(decoded))
        assert code == 0 and out == "decoded\t4\n"
        lines = decoded.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert parse_record(lines[1]).triplets == parse_record(lines[2]).triplets == []
        code, out, _ = run(capsys, "eval", "--weights", str(weights), "--input", str(source))
        assert code == 0 and out.startswith("matched\t")

    BAD_HEADS = {
        "non-integer": '{"tokens": ["a", "b"], "heads": [-1, "x"]}',
        "self-loop": '{"tokens": ["a", "b"], "heads": [-1, 1]}',
        "out-of-range": '{"tokens": ["a", "b"], "heads": [-1, 7]}',
        "missing": '{"tokens": ["a", "b"]}',
    }

    @pytest.mark.parametrize("record", BAD_HEADS.values(), ids=BAD_HEADS.keys())
    def test_bad_heads_named_by_line(self, capsys, tmp_path, record):
        """A dependency model names the line of a record whose head array
        is malformed or missing, in decode, eval and train, and writes
        nothing."""
        weights, corpus = self.weights(tmp_path, DEPENDENCY)
        rng = np.random.default_rng(0)
        good = [serialize_record(Sentence(tokens=s.tokens, triplets=s.triplets,
                                          heads=random_tree_heads(len(s), rng)))
                for s in corpus.train[:2]]
        source = tmp_path / "in.jsonl"
        source.write_text("\n".join([good[0], "", record, good[1]]) + "\n", encoding="utf-8")
        decoded = tmp_path / "out.jsonl"
        code, out, err = run(capsys, "decode", "--weights", str(weights),
                             "--input", str(source), "--out", str(decoded))
        assert (code, out) == (1, "") and err.startswith("aste: line 3: ")
        assert not decoded.exists()
        scores = tmp_path / "scores.tsv"
        code, out, err = run(capsys, "eval", "--weights", str(weights),
                             "--input", str(source), "--scores", str(scores))
        assert (code, out) == (1, "") and err.startswith("aste: line 3: ")
        assert not scores.exists()
        dev = tmp_path / "dev.jsonl"
        dev.write_text(good[0] + "\n", encoding="utf-8")
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--train", str(source), "--dev", str(dev),
                             "--out", str(out_dir), "--adapter", "dep", "--dim", "8",
                             "--max-epochs", "1", "--patience", "1")
        assert (code, out) == (1, "") and err.startswith("aste: line 3: ")
        assert not out_dir.exists()

    def test_failing_record_leaves_no_output(self, capsys, tmp_path):
        weights, corpus = self.weights(tmp_path, DEPENDENCY)
        rng = np.random.default_rng(0)
        records = [Sentence(tokens=s.tokens, heads=random_tree_heads(len(s), rng))
                   for s in corpus.train[:4]]
        # A dependency model cannot decode a record without a head array.
        records[2] = Sentence(tokens=records[2].tokens)
        source = tmp_path / "in.jsonl"
        write_corpus_file(source, records)
        decoded = tmp_path / "out.jsonl"
        code, out, err = run(capsys, "decode", "--weights", str(weights),
                             "--input", str(source), "--out", str(decoded))
        assert code == 1 and out == ""
        assert "head array" in err
        assert not decoded.exists()

    def test_numeric_overflow_exits_1_naming_the_op(self, capsys, tmp_path):
        """A finite weight file whose forward pass overflows fails decode
        and eval with exit 1 and one line naming the op, without numpy's
        own warning, and decode writes nothing."""
        weights, corpus = self.weights(tmp_path, RELATIVE)
        model = TripletModel.load(weights)
        model.parser.params.buffer *= 1e160
        model.save(weights)
        source = tmp_path / "in.jsonl"
        write_corpus_file(source, corpus.train[:3])
        decoded = tmp_path / "out.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "decode", "--weights", str(weights),
                                 "--input", str(source), "--out", str(decoded))
            assert (code, out) == (1, "")
            assert err == "aste: tagger produced non-finite values\n"
            assert not decoded.exists()
            code, out, err = run(capsys, "eval", "--weights", str(weights),
                                 "--input", str(source))
            assert (code, out) == (1, "")
            assert err == "aste: tagger produced non-finite values\n"
        assert [str(w.message) for w in caught] == []


# Runs ``aste train`` three times in one process; prints each run's exit
# code and the minor page faults it took.
REPEATED_TRAIN = """
import contextlib, io, resource, sys
from aste.cli import main

train, dev, out = sys.argv[1:]
for run in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--train", train, "--dev", dev, "--out", f"{out}/{run}",
                     "--adapter", "rel", "--batch-size", "4", "--max-epochs", "3",
                     "--patience", "3"])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestFreedHeapKept:
    @pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                        reason="the malloc thresholds are set through glibc's mallopt")
    def test_repeat_training_faults_in_almost_no_pages(self, tmp_path):
        """Left to glibc's dynamic trim threshold, each step gives the freed
        top of the heap back to the kernel and faults it in again: thousands
        of minor faults per repeat run of this corpus. Run in a fresh process
        so the test process's own heap does not count."""
        sentences = [Sentence(tokens=s.tokens * 3, triplets=s.triplets)
                     for s in random_gold_sentences(12, seed=0)]
        write_corpus_file(tmp_path / "train.jsonl", sentences[:8])
        write_corpus_file(tmp_path / "dev.jsonl", sentences[8:])
        src = str(Path(aste.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", REPEATED_TRAIN, str(tmp_path / "train.jsonl"),
             str(tmp_path / "dev.jsonl"), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, check=True)
        runs = [tuple(map(int, line.split())) for line in result.stdout.splitlines()]
        assert [code for code, _ in runs] == [0, 0, 0]
        assert runs[2][1] < 500, runs

    @pytest.mark.parametrize("library", ["without_mallopt", "unloadable"])
    def test_lookup_gives_none_without_glibc(self, monkeypatch, library):
        def cdll(name):
            if library == "unloadable":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(aste.cli.ctypes, "CDLL", cdll)
        assert aste.cli._libc_mallopt() is None
