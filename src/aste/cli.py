"""Command-line entry point.

Subcommands: ``preprocess``, ``convert``, ``split``, ``stats``, ``train``,
``eval``, ``decode``, ``params``, ``bench``. Model and training settings
come from a flat JSON config file; command-line flags win over the file,
and the fully resolved config is echoed into the output directory so a
run is reproducible from its artifacts alone. Exit codes: 0 success,
1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import (
    Corpus,
    Vocabulary,
    convert_triple_format,
    preprocess,
    read_corpus_file,
    serialize_record,
    split_corpus,
    stats,
    stats_table,
    write_corpus_file,
)
from .encoder import EncoderConfig, adapter_increment, count_params, structural_layer_increment
from .errors import ParseError, TrainingDivergedError, ValidationError
from .evaluation import bench_distance, bench_summary, score_corpus
from .model import TripletModel
from .parser import ParserConfig
from .structure import DEPENDENCY, NONE, RELATIVE, StructureConfig
from .training import TrainConfig, default_batch_size, train

ADAPTER_KINDS = {"none": NONE, "rel": RELATIVE, "dep": DEPENDENCY}

CONFIG_DEFAULTS = {
    "dim": 32,
    "heads": 2,
    "layers": 2,
    "ffn_dim": 64,
    "max_len": 160,
    "adapter": "none",
    "tau": 8,
    "tag_hidden": 64,
    "pair_hidden": 64,
    "lr": 5e-5,
    "batch_size": None,
    "max_epochs": 20,
    "patience": 5,
    "warmup_epochs": 2.0,
    "clip_norm": 1.0,
    "seed": 0,
    "min_count": 1,
}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    unknown = set(raw) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown config keys {sorted(unknown)}")
    return raw


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


def _model_configs(cfg: dict, vocab_size: int) -> tuple[EncoderConfig, ParserConfig]:
    structure = StructureConfig(tau=cfg["tau"], kind=ADAPTER_KINDS[cfg["adapter"]])
    encoder = EncoderConfig(
        vocab_size=vocab_size,
        dim=cfg["dim"],
        heads=cfg["heads"],
        layers=cfg["layers"],
        ffn_dim=cfg["ffn_dim"],
        max_len=cfg["max_len"],
        adapter=structure,
    )
    parser_config = ParserConfig(tag_hidden=cfg["tag_hidden"], pair_hidden=cfg["pair_hidden"])
    return encoder, parser_config


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        base_lr=cfg["lr"],
        batch_size=cfg["batch_size"],
        max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
        warmup_epochs=cfg["warmup_epochs"],
        grad_clip_norm=cfg["clip_norm"],
        seed=cfg["seed"],
    )


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat JSON config file")
    sub.add_argument("--dim", type=int)
    sub.add_argument("--heads", type=int)
    sub.add_argument("--layers", type=int)
    sub.add_argument("--ffn-dim", dest="ffn_dim", type=int)
    sub.add_argument("--max-len", dest="max_len", type=int)
    sub.add_argument("--adapter", choices=sorted(ADAPTER_KINDS))
    sub.add_argument("--tau", type=int)
    sub.add_argument("--tag-hidden", dest="tag_hidden", type=int)
    sub.add_argument("--pair-hidden", dest="pair_hidden", type=int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--max-epochs", dest="max_epochs", type=int)
    sub.add_argument("--patience", type=int)
    sub.add_argument("--warmup-epochs", dest="warmup_epochs", type=float)
    sub.add_argument("--clip-norm", dest="clip_norm", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--min-count", dest="min_count", type=int)


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
    with open(args.input, encoding="utf-8") as handle:
        sentences, failures = convert_triple_format(handle)
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_sentences = read_corpus_file(args.train_path)
    dev_sentences = read_corpus_file(args.dev_path)
    corpus = Corpus(name="train", train=train_sentences, dev=dev_sentences)
    vocab = Vocabulary.build(corpus.train, min_count=cfg["min_count"])
    encoder_config, parser_config = _model_configs(cfg, len(vocab))
    resolved = dict(sorted({**cfg, "train": args.train_path, "dev": args.dev_path}.items()))
    (out_dir / "config.resolved").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    model, history = train(corpus, encoder_config, parser_config, _train_config(cfg), vocab=vocab)
    (out_dir / "history.tsv").write_text(history.to_tsv(), encoding="utf-8")
    model.save(out_dir / "weights.bin")
    best = history.best_epoch()
    print(f"best_epoch\t{best.epoch}")
    print(f"dev_p\t{best.dev_precision:.4f}")
    print(f"dev_r\t{best.dev_recall:.4f}")
    print(f"dev_f1\t{best.dev_f1:.4f}")
    return 0


def _cmd_eval(args) -> int:
    model = TripletModel.load(args.weights)
    sentences = read_corpus_file(args.input)
    scores = score_corpus(model.predict_corpus(sentences), [s.triplet_set() for s in sentences])
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
    sentences = read_corpus_file(args.input)
    with open(args.out, "w", encoding="utf-8") as handle:
        for sentence in sentences:
            predicted = sorted(model.predict(sentence))
            record = type(sentence)(
                tokens=sentence.tokens, triplets=predicted, heads=sentence.heads
            )
            handle.write(serialize_record(record) + "\n")
    print(f"decoded\t{len(sentences)}")
    return 0


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
        count = count_params(encoder_config, "bare", parser_config)
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


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, ParseError, TrainingDivergedError, FileNotFoundError) as exc:
        print(f"aste: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
