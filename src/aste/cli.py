"""Command-line entry point.

Subcommands: ``preprocess``, ``convert``, ``split``, ``stats``, ``train``,
``eval``, ``decode``, ``params``, ``bench``. Model and training settings
come from a flat JSON config file; command-line flags win over the file,
and the fully resolved config is echoed into the output directory so a
run is reproducible from its artifacts alone. Exit codes: 0 success,
1 validation failure, 2 usage error. Each command first asks glibc's
malloc to keep freed heap pages (``_keep_freed_heap``), so a training step
does not fault back in the memory the previous step freed. ``decode`` and
``eval`` split their inference batches over every usable core
(``usable_cores``); ``train`` scores dev on a second, with the same outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (
    Corpus,
    Vocabulary,
    _brief,
    convert_triple_format,
    numbered_lines,
    preprocess,
    read_corpus_file,
    serialize_record,
    split_corpus,
    stats,
    stats_table,
    write_corpus_file,
)
from .encoder import EncoderConfig, adapter_increment, count_params, structural_layer_increment
from .errors import NumericError, ParseError, TrainingDivergedError, ValidationError
from .evaluation import bench_distance, bench_summary
from .model import TripletModel
from .parser import ParserConfig
from .structure import DEPENDENCY, NONE, RELATIVE, StructureConfig
from .training import TrainConfig, check_splits, default_batch_size, evaluate_model, train

ADAPTER_KINDS = {"none": NONE, "rel": RELATIVE, "dep": DEPENDENCY}

# Every config key, in flag order. A key that a config class owns names its
# (class, field) and takes that field's default and type; the other three
# are not config fields and carry their defaults here.
SETTINGS = {
    "dim": (EncoderConfig, "dim"),
    "heads": (EncoderConfig, "heads"),
    "layers": (EncoderConfig, "layers"),
    "ffn_dim": (EncoderConfig, "ffn_dim"),
    "max_len": (EncoderConfig, "max_len"),
    "adapter": "none",
    "tau": (StructureConfig, "tau"),
    "tag_hidden": (ParserConfig, "tag_hidden"),
    "pair_hidden": (ParserConfig, "pair_hidden"),
    "lr": (TrainConfig, "base_lr"),
    "batch_size": None,
    "max_epochs": (TrainConfig, "max_epochs"),
    "patience": (TrainConfig, "patience"),
    "warmup_epochs": (TrainConfig, "warmup_epochs"),
    "clip_norm": (TrainConfig, "grad_clip_norm"),
    "seed": (TrainConfig, "seed"),
    "min_count": 1,
}
# A dataclass keeps a field's plain default as its class attribute.
CONFIG_DEFAULTS = {key: getattr(*spec) if isinstance(spec, tuple) else spec
                   for key, spec in SETTINGS.items()}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown config keys {_brief(sorted(unknown))}")
    for key, value in raw.items():
        if not _config_value_fits(key, value):
            raise ValidationError(f"config file {path}: {key}={_brief(value)} has the wrong type")
    return raw


def _config_value_fits(key: str, value) -> bool:
    """A value has its default's type: a string, any number for a float
    key, an integer otherwise (bools are none of these); null only where
    the default is null."""
    default = CONFIG_DEFAULTS[key]
    if value is None or isinstance(value, bool):
        return value is None and default is None
    return isinstance(value, {str: str, float: (int, float)}.get(type(default), int))


def resolve_config(args) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(CONFIG_DEFAULTS)
    merged.update(_load_config_file(getattr(args, "config", None)))
    for key in CONFIG_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged["adapter"] not in ADAPTER_KINDS:
        raise ValidationError(f"adapter must be one of {sorted(ADAPTER_KINDS)}")
    if merged["batch_size"] is None:
        merged["batch_size"] = default_batch_size(ADAPTER_KINDS[merged["adapter"]])
    return merged


def _build(cls, cfg: dict, **extra):
    """A ``cls`` made of ``extra`` and of every setting that ``SETTINGS``
    maps to one of its fields."""
    return cls(**extra, **{spec[1]: cfg[key] for key, spec in SETTINGS.items()
                           if isinstance(spec, tuple) and spec[0] is cls})


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat JSON config file")
    for key, default in CONFIG_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if key == "adapter":
            sub.add_argument(flag, choices=sorted(ADAPTER_KINDS))
        else:
            sub.add_argument(flag, type=float if isinstance(default, float) else int)


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="aste", description=__doc__)
    commands = top.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("preprocess", help="filter a raw canonical corpus")
    sub.add_argument("--input", required=True)
    sub.add_argument("--out", required=True)

    sub = commands.add_parser("convert", help="community triple format to canonical records")
    sub.add_argument("--input", required=True)
    sub.add_argument("--out", required=True)

    sub = commands.add_parser("split", help="seeded 7:1:2 train/dev/test split")
    sub.add_argument("--input", required=True)
    sub.add_argument("--out-dir", dest="out_dir", required=True)
    sub.add_argument("--seed", type=int, default=0)

    sub = commands.add_parser("stats", help="per-split corpus statistics")
    sub.add_argument("--train")
    sub.add_argument("--dev")
    sub.add_argument("--test")

    sub = commands.add_parser("train", help="fit a model and write its artifacts")
    sub.add_argument("--train", dest="train_path", required=True)
    sub.add_argument("--dev", dest="dev_path", required=True)
    sub.add_argument("--out", required=True)
    _add_config_flags(sub)

    sub = commands.add_parser("eval", help="score a trained model on a gold corpus")
    sub.add_argument("--weights", required=True)
    sub.add_argument("--input", required=True)
    sub.add_argument("--scores", help="optional scores.tsv path")

    sub = commands.add_parser("decode", help="write predicted triplets for a corpus")
    sub.add_argument("--weights", required=True)
    sub.add_argument("--input", required=True)
    sub.add_argument("--out", required=True)

    sub = commands.add_parser("params", help="parameter accounting")
    sub.add_argument("--variant", choices=("bare", "adapter", "layer2"), required=True)
    sub.add_argument("--dim", type=int, default=768)
    sub.add_argument("--heads", type=int, default=12)
    sub.add_argument("--layers", type=int, default=12)
    sub.add_argument("--ffn", type=int, default=3072)
    sub.add_argument("--tau", type=int, default=8)
    sub.add_argument("--head-dim", dest="head_dim", type=int, default=64)
    sub.add_argument("--vocab-size", dest="vocab_size", type=int, default=30000)
    sub.add_argument("--max-len", dest="max_len", type=int, default=512)
    sub.add_argument("--tag-hidden", dest="tag_hidden", type=int, default=64)
    sub.add_argument("--pair-hidden", dest="pair_hidden", type=int, default=64)

    sub = commands.add_parser("bench", help="distance derivation throughput")
    sub.add_argument("--method", choices=("rel", "dep", "both"), required=True)
    sub.add_argument("--length", type=int, default=128)
    sub.add_argument("--reps", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tau", type=int, default=8)
    return top


# -- command bodies -----------------------------------------------------------


def _cmd_preprocess(args) -> int:
    sentences = read_corpus_file(args.input)
    kept, report = preprocess(sentences)
    write_corpus_file(args.out, kept)
    for name, count in report.rows():
        print(f"{name}\t{count}")
    return 0


def _cmd_convert(args) -> int:
    sentences, failures = convert_triple_format(line for _, line in numbered_lines(args.input))
    write_corpus_file(args.out, sentences)
    for failure in failures:
        print(f"convert: {failure}", file=sys.stderr)
    print(f"converted\t{len(sentences)}")
    print(f"failed\t{len(failures)}")
    return 0 if sentences else 1


def _cmd_split(args) -> int:
    sentences = read_corpus_file(args.input)
    corpus = split_corpus(sentences, seed=args.seed, name=Path(args.input).stem)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in corpus.splits().items():
        write_corpus_file(out_dir / f"{name}.jsonl", split)
        print(f"{name}\t{len(split)}")
    return 0


def _cmd_stats(args) -> int:
    corpus = Corpus(
        name="stats",
        train=read_corpus_file(args.train) if args.train else [],
        dev=read_corpus_file(args.dev) if args.dev else [],
        test=read_corpus_file(args.test) if args.test else [],
    )
    print(stats_table(stats(corpus)), end="")
    return 0


def _cmd_train(args) -> int:
    cfg = resolve_config(args)
    # Checked before the corpus is read; the vocabulary sets vocab_size.
    structure = _build(StructureConfig, cfg, kind=ADAPTER_KINDS[cfg["adapter"]])
    encoder_config = _build(EncoderConfig, cfg, vocab_size=0, adapter=structure)
    parser_config = _build(ParserConfig, cfg)
    train_config = _build(TrainConfig, cfg, batch_size=cfg["batch_size"])
    train_sentences = _read_for_model(args.train_path, encoder_config)
    dev_sentences = _read_for_model(args.dev_path, encoder_config)
    check_splits(train_sentences, dev_sentences)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(name="train", train=train_sentences, dev=dev_sentences)
    vocab = Vocabulary.build(corpus.train, min_count=cfg["min_count"])
    encoder_config = replace(encoder_config, vocab_size=len(vocab))
    resolved = dict(sorted({**cfg, "train": args.train_path, "dev": args.dev_path}.items()))
    (out_dir / "config.resolved").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    model, history = train(corpus, encoder_config, parser_config, train_config, vocab=vocab,
                           processes=usable_cores())
    (out_dir / "history.tsv").write_text(history.to_tsv(), encoding="utf-8")
    model.save(out_dir / "weights.bin")
    best = history.best_epoch()
    print(f"best_epoch\t{best.epoch}")
    print(f"dev_p\t{best.dev_precision:.4f}")
    print(f"dev_r\t{best.dev_recall:.4f}")
    print(f"dev_f1\t{best.dev_f1:.4f}")
    return 0


def _read_for_model(path, config: EncoderConfig) -> list:
    """The records of a corpus file, each checked to fit an encoder with
    this config, so a record the model cannot take fails with its line
    number before anything is written."""
    sentences = read_corpus_file(path)
    limit = config.max_len - 2
    for index, sentence in enumerate(sentences):
        if len(sentence) > limit:
            problem = (f"sentence of {len(sentence)} tokens exceeds the model's limit "
                       f"of {limit} (max_len minus two markers)")
        elif config.adapter.kind == DEPENDENCY and sentence.heads is None and len(sentence) > 0:
            problem = "the model's dependency adapter needs a head array, and the record has none"
        else:
            continue
        # Reading skips blank lines, so the record's line is counted again.
        line_no = [no for no, line in numbered_lines(path) if line.strip()][index]
        raise ParseError(line_no, problem)
    return sentences


def usable_cores() -> int:
    """The cores this process may run on, which ``decode`` and ``eval``
    split their batches over; ``train`` starts a dev evaluator on two or
    more. 1 where the platform cannot tell or cannot fork."""
    try:
        return len(os.sched_getaffinity(0)) if hasattr(os, "fork") else 1
    except (AttributeError, OSError):
        return 1


def _cmd_eval(args) -> int:
    model = TripletModel.load(args.weights)
    sentences = _read_for_model(args.input, model.encoder_config)
    scores = evaluate_model(model, sentences, processes=usable_cores())
    table = (
        "matched\tpredicted\tgold\tprecision\trecall\tf1\n"
        f"{scores.matched}\t{scores.predicted}\t{scores.gold}"
        f"\t{scores.precision:.4f}\t{scores.recall:.4f}\t{scores.f1:.4f}\n"
    )
    if args.scores:
        Path(args.scores).write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def _cmd_decode(args) -> int:
    model = TripletModel.load(args.weights)
    sentences = _read_for_model(args.input, model.encoder_config)
    # Every line is made before the output opens, so a failing record
    # leaves no partial file.
    lines = model.predict_corpus(sentences, processes=usable_cores(), finish=_output_line)
    Path(args.out).write_text("".join(lines), encoding="utf-8")
    print(f"decoded\t{len(sentences)}")
    return 0


def _output_line(sentence, triplets) -> str:
    """``decode``'s ``finish``: the sentence's output line, its predicted
    triplets in sorted order."""
    return serialize_record(sentence, sorted(triplets)) + "\n"


def _cmd_params(args) -> int:
    if args.variant == "adapter":
        count = adapter_increment(args.layers, args.tau, args.head_dim)
    elif args.variant == "layer2":
        count = structural_layer_increment(args.dim, args.ffn, k=2)
    else:
        encoder_config = EncoderConfig(
            vocab_size=args.vocab_size,
            dim=args.dim,
            heads=args.heads,
            layers=args.layers,
            ffn_dim=args.ffn,
            max_len=args.max_len,
        )
        parser_config = ParserConfig(tag_hidden=args.tag_hidden, pair_hidden=args.pair_hidden)
        count = count_params(encoder_config, parser_config)
    print(f"{count:,}")
    return 0


def _cmd_bench(args) -> int:
    methods = ("relative", "dependency") if args.method == "both" else (
        {"rel": "relative", "dep": "dependency"}[args.method],
    )
    reports = [
        bench_distance(m, args.length, args.reps, seed=args.seed, tau=args.tau)
        for m in methods
    ]
    print(bench_summary(reports), end="")
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "convert": _cmd_convert,
    "split": _cmd_split,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "decode": _cmd_decode,
    "params": _cmd_params,
    "bench": _cmd_bench,
}


# mallopt(3) parameters and the values glibc's dynamic rule converges to on
# 64-bit: blocks up to 32 MiB come from the heap (M_MMAP_THRESHOLD), and
# free leaves up to 64 MiB free at its top (M_TRIM_THRESHOLD).
_MALLOC_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20))


def _libc_mallopt():
    """glibc's ``int mallopt(int, int)``, or None where the C library has
    none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_freed_heap() -> None:
    """Fix both malloc thresholds up front. A training step frees its whole
    tape at once; left to its dynamic rule, glibc hands the free top of the
    heap back to the kernel, and the next step faults the same pages back
    in, zero-filled. Setting either threshold switches off the dynamic
    adjustment of the other, so both are set. Where the C library has no
    ``mallopt``, this does nothing."""
    mallopt = _libc_mallopt()
    if mallopt is not None:
        for param, value in _MALLOC_SETTINGS:
            mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_arg_parser().parse_args(argv)
    try:
        # Every numeric failure is reported below naming the op that made
        # it; numpy's own warnings would only repeat it, with a source line.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (ValidationError, ParseError, TrainingDivergedError, NumericError, OSError) as exc:
        print(f"aste: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
