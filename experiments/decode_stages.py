"""Where the wall time of one ``aste decode`` goes, for two source trees.

For each tree (a directory holding the ``aste`` package, e.g. ``src`` of two
checkouts) every run is one fresh interpreter that calls ``aste.cli.main``
once on a perfbench workload's test file and splits its wall time into
stages, from wrappers installed at the names the program calls:

- ``args``: from ``main`` to the decode command (malloc settings, building
  and running the argument parser);
- ``load`` (``TripletModel.load``) and ``read`` (``_read_for_model``);
- ``batching``: from ``predict_corpus`` to its shards (``_in_workers``);
- ``fork``: from there to the start of this process's own shard;
- ``own_shard``: this process's shard, with its relative-distance calls;
- ``wait``: from the end of its own shard until every worker has answered;
- ``merge``: from there until ``predict_corpus`` returns;
- ``write``: from there until the decode command returns;
- ``exit``: from there until ``main`` returns.

Each worker's shard is timed in the worker, on the same clock. Per run it
also reports the forks, the minor page faults of this process over ``main``
(``RUSAGE_SELF``) and of its reaped workers (``RUSAGE_CHILDREN``).

The model is trained once per workload, with the first tree and perfbench's
settings at ``--seed``; every run decodes the same 240 test sentences with
it into a fresh output path (rewriting a file costs the file system a flush
that is not the program's). Runs alternate which tree goes first. Usage::

    python3 experiments/decode_stages.py --tree parent=../parent/src --tree change=src \\
        --workload short-rel --runs 15 --out decode_stages.json

A run takes well under a second; the script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpora  # noqa: E402
import run as perfbench  # noqa: E402

# A child's program: argv is the tree, the weights, the input, the output
# and a file each worker appends its shard's record to.
CHILD = r"""
import os
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import contextlib, io, json, resource, sys
from time import perf_counter
tree, weights, source, out, shard_log = sys.argv[1:6]
sys.path.insert(0, tree)
import aste.cli, aste.model

marks, spans, forks, distance = {}, {}, [], [0, 0.0]

def timed(name, func):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            spans[name] = (start, perf_counter())
    return wrapper

derive = aste.model.augmented_distance_matrix
def counted_derive(*args, **kwargs):
    start = perf_counter()
    try:
        return derive(*args, **kwargs)
    finally:
        distance[0] += 1
        distance[1] += perf_counter() - start

in_workers = aste.model._in_workers
def staged_in_workers(run, shards):
    def timed_run(shard):
        distance[:] = [0, 0.0]
        start = perf_counter()
        result = run(shard)
        record = {"pid": os.getpid(), "start": start, "end": perf_counter(),
                  "batches": len(shard), "distance_calls": distance[0],
                  "distance_s": distance[1],
                  "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt}
        if os.getpid() == parent:
            spans["own_shard"] = (start, record["end"])
            marks["own_shard"] = record
        else:
            with open(shard_log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        return result
    marks["in_workers"] = perf_counter()
    try:
        return in_workers(timed_run, shards)
    finally:
        marks["in_workers_end"] = perf_counter()

fork = os.fork
def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

parent = os.getpid()
os.fork = counted_fork
aste.model.augmented_distance_matrix = counted_derive
aste.model._in_workers = staged_in_workers
aste.model.TripletModel.load = classmethod(timed("load", aste.model.TripletModel.load.__func__))
aste.model.TripletModel.predict_corpus = timed("predict_corpus",
                                               aste.model.TripletModel.predict_corpus)
aste.cli._read_for_model = timed("read", aste.cli._read_for_model)
command = aste.cli._COMMANDS["decode"]
def staged_command(args):
    marks["command"] = perf_counter()
    return timed("command", command)(args)
aste.cli._COMMANDS["decode"] = staged_command

faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = aste.cli.main(["decode", "--weights", weights, "--input", source, "--out", out])
end = perf_counter()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
predict_start, predict_end = spans["predict_corpus"]
stages = {
    "args": marks["command"] - start,
    "load": spans["load"][1] - spans["load"][0],
    "read": spans["read"][1] - spans["read"][0],
    "batching": marks["in_workers"] - predict_start,
    "fork": spans["own_shard"][0] - marks["in_workers"],
    "own_shard": spans["own_shard"][1] - spans["own_shard"][0],
    "wait": marks["in_workers_end"] - spans["own_shard"][1],
    "merge": predict_end - marks["in_workers_end"],
    "write": spans["command"][1] - predict_end,
    "exit": end - spans["command"][1],
}
with open(shard_log, encoding="utf-8") as handle:
    workers = [json.loads(line) for line in handle]
print(json.dumps({
    "exit_code": code, "wall_s": end - start, "stages_s": stages, "forks": len(forks),
    "own_shard": {k: marks["own_shard"][k] for k in ("batches", "distance_calls", "distance_s")},
    "workers": [{"shard_s": w["end"] - w["start"], "starts_after_s": w["start"] - start,
                 "ends_before_own_s": spans["own_shard"][1] - w["end"],
                 "batches": w["batches"], "distance_calls": w["distance_calls"],
                 "distance_s": w["distance_s"], "minflt": w["minflt"]} for w in workers],
    "minflt_self": faults,
    "minflt_children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt,
}))
"""


def prepare(tree: str, workload: str, seed: int, directory: Path) -> tuple[Path, Path]:
    """The workload's test file and a model trained on its train and dev
    files with perfbench's settings, made with ``tree``'s ``aste`` in a fresh
    interpreter."""
    spec = perfbench.WORKLOADS[workload]
    for split, sentences in corpora.generate(workload, seed, spec.sizes).items():
        (directory / f"{split}.jsonl").write_text(corpora.to_jsonl(sentences), encoding="utf-8")
    epochs = str(spec.epochs)
    argv = ["train", "--train", str(directory / "train.jsonl"), "--dev",
            str(directory / "dev.jsonl"), "--out", str(directory / "model"), "--adapter",
            spec.adapter, "--tau", str(perfbench.TAU), "--batch-size", str(spec.batch_size),
            "--lr", str(spec.lr), "--max-epochs", epochs, "--patience", epochs,
            "--seed", str(seed)]
    program = "import sys; sys.path.insert(0, sys.argv[1]); from aste.cli import main; " \
              "sys.exit(main(sys.argv[2:]))"
    subprocess.run([sys.executable, "-c", program, tree, *argv], check=True,
                   capture_output=True)
    return directory / "model" / "weights.bin", directory / "test.jsonl"


def run_child(tree: str, weights: Path, source: Path, out: Path, log: Path) -> dict:
    log.write_text("", encoding="utf-8")
    result = subprocess.run([sys.executable, "-c", CHILD, tree, str(weights), str(source),
                             str(out), str(log)], check=True, capture_output=True, text=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    """Per stage, the median and minimum seconds over the runs; the median
    wall time, worker shard time, forks and faults."""
    stages = {name: {"median": statistics.median(r["stages_s"][name] for r in runs),
                     "min": min(r["stages_s"][name] for r in runs)}
              for name in runs[0]["stages_s"]}
    worker_s = [w["shard_s"] for r in runs for w in r["workers"]]
    return {
        "runs": len(runs),
        "wall_s": {"median": statistics.median(r["wall_s"] for r in runs),
                   "min": min(r["wall_s"] for r in runs)},
        "stages_s": stages,
        "worker_shard_s_median": statistics.median(worker_s) if worker_s else None,
        "forks": sorted({r["forks"] for r in runs}),
        "own_shard_distance_calls": sorted({r["own_shard"]["distance_calls"] for r in runs}),
        "worker_distance_calls": sorted({w["distance_calls"] for r in runs
                                         for w in r["workers"]}),
        "minflt_self_median": statistics.median(r["minflt_self"] for r in runs),
        "minflt_children_median": statistics.median(r["minflt_children"] for r in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="NAME=PATH of a directory holding the aste package; give two")
    parser.add_argument("--workload", choices=sorted(perfbench.WORKLOADS), required=True)
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the JSON result here as well")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.tree)
    if len(trees) != 2:
        parser.error("give two trees")
    names = list(trees)
    runs: dict[str, list] = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        weights, source = prepare(trees[names[0]], args.workload, args.seed, directory)
        for index in range(args.runs):
            for name in names if index % 2 == 0 else names[::-1]:
                out = directory / f"{name}-{index}.jsonl"
                result = run_child(trees[name], weights, source, out, directory / "shards.jsonl")
                result["output_bytes"] = out.stat().st_size
                runs[name].append(result)
        outputs = {name: (directory / f"{name}-0.jsonl").read_bytes() for name in names}
    report = {
        "workload": args.workload, "seed": args.seed, "cores": len(os.sched_getaffinity(0)),
        "outputs_identical": len(set(outputs.values())) == 1,
        "summary": {name: summary(runs[name]) for name in names},
        "runs": runs,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    for name in names:
        s = report["summary"][name]
        stages = ", ".join(f"{k} {v['median'] * 1e3:.2f}" for k, v in s["stages_s"].items())
        print(f"{name}: wall {s['wall_s']['median'] * 1e3:.2f} ms median; {stages} ms; "
              f"forks {s['forks']}; faults self {s['minflt_self_median']}, "
              f"children {s['minflt_children_median']}")
    print(f"outputs identical: {report['outputs_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
