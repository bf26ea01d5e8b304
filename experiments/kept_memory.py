"""What training keeps in memory per sentence, for two source trees.

For each tree (a directory holding the ``aste`` package, e.g. ``src`` of two
checkouts) this reports, each number from a fresh interpreter:

- the bytes per sentence that ``training.prepare_batch`` keeps for every
  epoch: every array its ``BatchInputs`` reaches, each buffer counted once;
- the peak resident set (``ru_maxrss``) of one epoch of ``aste train`` on
  the same corpus, the dependency adapter at tau 8 and the CLI defaults
  otherwise (dim 32, 2 heads, batch 6).

The corpus is ``--sentences`` training and 40 dev sentences of 10-80 tokens
from ``aste.synth.proximity_sentence``, each with a random dependency tree,
written once as JSONL and read by every run. Runs alternate which tree goes
first. Usage::

    python3 experiments/kept_memory.py --tree parent=../parent/src --tree change=src \\
        --sentences 4000 --runs 3 --out kept_memory.json

Each run takes under a minute at 4,000 sentences; ``tests/test_experiments.py``
runs the script once at 20 sentences.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# A child's program: argv is the mode (kept or train), the tree, the corpus
# directory and the training output directory, which the kept mode ignores.
CHILD = r"""
import contextlib, dataclasses, io, json, resource, sys, time
sys.path.insert(0, sys.argv[2])
import numpy as np
from aste.cli import main
mode, corpus = sys.argv[1], sys.argv[3]

def kept_bytes(value, seen):
    if isinstance(value, np.ndarray):
        root = value
        while isinstance(root.base, np.ndarray):
            root = root.base
        if id(root) in seen:
            return 0
        seen.add(id(root))
        return root.nbytes
    if dataclasses.is_dataclass(value):
        return sum(kept_bytes(getattr(value, f.name), seen) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return sum(kept_bytes(item, seen) for item in value)
    return 0

if mode == "kept":
    from aste.data import Vocabulary, read_corpus_file
    from aste.encoder import EncoderConfig
    from aste.model import TripletModel
    from aste.parser import ParserConfig
    from aste.structure import StructureConfig
    from aste.training import bucket_batches, default_batch_size, prepare_batch
    train = read_corpus_file(f"{corpus}/train.jsonl")
    vocab = Vocabulary.build(train)
    adapter = StructureConfig(tau=8, kind="dependency")
    model = TripletModel(EncoderConfig(vocab_size=len(vocab), adapter=adapter), ParserConfig(),
                         vocab)
    inputs = [prepare_batch(model, batch)
              for batch in bucket_batches(train, default_batch_size(adapter.kind))]
    print(json.dumps({"kept_bytes_per_sentence": kept_bytes(inputs, set()) / len(train)}))
else:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--train", f"{corpus}/train.jsonl", "--dev", f"{corpus}/dev.jsonl",
                     "--out", sys.argv[4], "--adapter", "dep", "--tau", "8",
                     "--max-epochs", "1", "--patience", "1", "--seed", "1"])
    print(json.dumps({"exit_code": code, "train_s": time.perf_counter() - start,
                      "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def write_corpus(tree: str, directory: Path, sentences: int, seed: int) -> None:
    """The training and dev JSONL files, made with the first tree's ``aste``
    in a fresh interpreter."""
    program = r"""
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from aste.data import Sentence, write_corpus_file
from aste.structure import random_tree_heads
from aste.synth import proximity_sentence
rng = np.random.default_rng(int(sys.argv[4]))
drawn = []
while len(drawn) < int(sys.argv[3]) + 40:
    s = proximity_sentence(rng, 10, 80)
    if s is not None:
        drawn.append(Sentence(tokens=s.tokens, triplets=s.triplets,
                              heads=random_tree_heads(len(s), rng)))
write_corpus_file(f"{sys.argv[2]}/train.jsonl", drawn[40:])
write_corpus_file(f"{sys.argv[2]}/dev.jsonl", drawn[:40])
"""
    subprocess.run([sys.executable, "-c", program, tree, str(directory), str(sentences),
                    str(seed)], check=True)


def run_child(mode: str, tree: str, corpus: Path, out: Path) -> dict:
    result = subprocess.run([sys.executable, "-c", CHILD, mode, tree, str(corpus), str(out)],
                            check=True, capture_output=True, text=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="NAME=PATH of a directory holding the aste package; give two")
    parser.add_argument("--sentences", type=int, default=4000)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="JSON file for the results")
    args = parser.parse_args(argv)
    trees = dict(item.split("=", 1) for item in args.tree)
    trees = {name: str(Path(path).resolve()) for name, path in trees.items()}
    results = {name: {"tree": path, "runs": []} for name, path in trees.items()}
    with tempfile.TemporaryDirectory() as scratch:
        corpus = Path(scratch)
        write_corpus(next(iter(trees.values())), corpus, args.sentences, args.seed)
        for name, path in trees.items():
            results[name].update(run_child("kept", path, corpus, corpus / "unused"))
        names = list(trees)
        for run in range(args.runs):
            for name in names if run % 2 == 0 else names[::-1]:
                out = corpus / f"{name}-{run}"
                measured = run_child("train", trees[name], corpus, out)
                measured.update(run=run, finished=time.strftime("%H:%M:%S"))
                results[name]["runs"].append(measured)
                print(name, json.dumps(measured), flush=True)
    summary = {"sentences": args.sentences, "dev_sentences": 40, "seed": args.seed,
               "lengths": "10-80 tokens", "adapter": "dep, tau 8", "results": results}
    for name, result in results.items():
        rss = sorted(run["maxrss_mb"] for run in result["runs"])
        result["maxrss_mb_median"] = rss[len(rss) // 2]
        print(f"{name}: kept {result['kept_bytes_per_sentence'] / 1024:.2f} KiB per sentence, "
              f"ru_maxrss median {result['maxrss_mb_median']:.1f} MB over {len(rss)} runs")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
