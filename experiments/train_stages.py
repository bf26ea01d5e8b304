"""Where the time of one ``aste train`` goes, per process, for two source trees.

The training counterpart of ``decode_stages.py``. For each tree (a directory
holding the ``aste`` package, e.g. ``src`` of two checkouts) every run is one
fresh interpreter that calls ``aste.cli.main`` once to train on a perfbench
workload with perfbench's settings, on every usable core. Wrappers installed
at the names the program calls split each process's time into stages, each
counted as self time (a stage called inside another is taken out of it):

- ``half_steps``: forward, loss and backward of this process's halves
  (``training._step``);
- ``wait_1``, ``wait_2``, ``wait_3``: reading the first, second and third
  message from the other process after a half step (``Worker.receive``);
  the trainer's wait for the helper's dev scores is ``wait_dev``;
- ``send``: writing messages to the other process (``Worker.send``);
- ``add``: adding the two halves' gradients (``training._add_halves``);
- ``clip``: sums of squares and the clip (``training.square_sums`` where the
  tree has it, and ``training.clip_gradients``);
- ``adamw``: ``AdamW.step``;
- ``weight_copy``: from the end of ``AdamW.step`` to the next message (where
  a process writes the groups it stepped to the shared mapping) plus
  copying in the other's (``training._copy_in`` where the tree has it);
- ``dev``: dev scoring (``training.evaluate_model``).

Per process it also reports the minor page faults (``ru_minflt``): the
trainer's over ``main`` and after the fork, the helper's since it was forked
(a forked child's counters start at zero). The helper writes its record at
each epoch's end, before it sends its dev scores, so the record is whole
when the trainer, which then kills it, reads it.

Runs alternate which tree goes first, and each writes to a fresh output
directory. Usage::

    python3 experiments/train_stages.py --tree parent=../parent/src --tree change=src \\
        --workload short-rel --runs 10 --out train_stages.json

A perfbench-sized run takes one to two seconds; ``tests/test_experiments.py``
runs the script once, with one run a tree and one epoch.
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

STAGES = ("half_steps", "wait_1", "wait_2", "wait_3", "wait_dev", "send", "add", "clip", "adamw",
          "weight_copy", "dev")

# A child's program: argv is the tree, the directory the helper writes its
# record to, and the arguments of ``aste train``.
CHILD = r"""
import os
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import contextlib, io, json, resource, sys
from time import perf_counter
tree, log_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, tree)
import aste.cli, aste.model, aste.training

STAGES = %r
totals = dict.fromkeys(STAGES, 0.0)
state = {"messages": 0, "dev": False, "stepped": None}
stack = []  # per open stage, the time its nested stages took

def timed(stage, func):
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            totals[stage] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
    return wrapper

def marking(func, mark):
    def wrapper(*args, **kwargs):
        mark()
        return func(*args, **kwargs)
    return wrapper

def step_started():
    state.update(messages=0, dev=False, stepped=None)

def dev_started():
    state.update(dev=True, stepped=None)

def message_started():
    if state["stepped"] is not None:
        totals["weight_copy"] += perf_counter() - state["stepped"]
        state["stepped"] = None

training, Worker = aste.training, aste.model.Worker
training._step = marking(timed("half_steps", training._step), step_started)
training.evaluate_model = marking(timed("dev", training.evaluate_model), dev_started)
training._add_halves = timed("add", training._add_halves)
training.clip_gradients = timed("clip", training.clip_gradients)
if hasattr(training, "square_sums"):
    training.square_sums = timed("clip", training.square_sums)
if hasattr(training, "_copy_in"):
    training._copy_in = timed("weight_copy", training._copy_in)
adamw_step = timed("adamw", training.AdamW.step)
def stepping(*args):
    try:
        return adamw_step(*args)
    finally:
        state["stepped"] = perf_counter()
training.AdamW.step = stepping
Worker.send = marking(timed("send", Worker.send), message_started)
receive = Worker.receive
def waiting(worker):
    message_started()
    if state["dev"]:
        stage = "wait_dev"
    else:
        state["messages"] += 1
        stage = f"wait_{min(state['messages'], 3)}"
    return timed(stage, receive)(worker)
Worker.receive = waiting

parent, forked = os.getpid(), []
fork = os.fork
def counted_fork():
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pid = fork()
    if pid:
        forked.append(faults)
    return pid
os.fork = counted_fork

def record():
    return {"stages_s": dict(totals),
            "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt}

evaluate = training.evaluate_model
def recording(*args, **kwargs):
    result = evaluate(*args, **kwargs)
    if os.getpid() != parent:
        path = os.path.join(log_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(record(), handle)
        os.replace(path + ".tmp", path)
    return result
training.evaluate_model = recording

start_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = aste.cli.main(argv)
end = perf_counter()
trainer = record()
trainer["minflt_after_fork"] = trainer["minflt"] - forked[0] if forked else None
trainer["minflt"] -= start_faults
helpers = [json.load(open(os.path.join(log_dir, name), encoding="utf-8"))
           for name in sorted(os.listdir(log_dir)) if name.endswith(".json")]
print(json.dumps({"exit_code": code, "wall_s": end - start, "forks": len(forked),
                  "trainer": trainer, "helper": helpers[0] if helpers else None}))
""" % (STAGES,)


def prepare(workload: str, seed: int, directory: Path) -> None:
    """The workload's train and dev files at ``seed``, as perfbench makes them."""
    spec = perfbench.WORKLOADS[workload]
    for split, sentences in corpora.generate(workload, seed, spec.sizes).items():
        (directory / f"{split}.jsonl").write_text(corpora.to_jsonl(sentences), encoding="utf-8")


def run_child(tree: str, argv: list[str], log_dir: Path) -> dict:
    log_dir.mkdir()
    result = subprocess.run([sys.executable, "-c", CHILD, tree, str(log_dir), *argv], check=True,
                            capture_output=True, text=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summary(runs: list[dict]) -> dict:
    """Per process and stage, the median seconds over the runs; the median
    wall time and faults."""
    processes = {}
    for role in ("trainer", "helper"):
        records = [r[role] for r in runs if r[role] is not None]
        if records:
            processes[role] = {
                "stages_s": {s: median(rec["stages_s"][s] for rec in records) for s in STAGES},
                "minflt": median(rec["minflt"] for rec in records),
                **({"minflt_after_fork": median(rec["minflt_after_fork"] for rec in records)}
                   if role == "trainer" else {}),
            }
    return {"runs": len(runs), "wall_s": median(r["wall_s"] for r in runs),
            "forks": sorted({r["forks"] for r in runs}), "processes": processes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="NAME=PATH of a directory holding the aste package; give two")
    parser.add_argument("--workload", choices=sorted(perfbench.WORKLOADS), required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--epochs", type=int, help="default: perfbench's for the workload")
    parser.add_argument("--out", help="write the JSON result here as well")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.tree)
    if len(trees) != 2:
        parser.error("give two trees")
    names = list(trees)
    spec = perfbench.WORKLOADS[args.workload]
    epochs = str(args.epochs or spec.epochs)
    runs: dict[str, list] = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        prepare(args.workload, args.seed, directory)
        for index in range(args.runs):
            for name in names if index % 2 == 0 else names[::-1]:
                out = directory / f"{name}-{index}"
                train = ["train", "--train", str(directory / "train.jsonl"), "--dev",
                         str(directory / "dev.jsonl"), "--out", str(out), "--adapter",
                         spec.adapter, "--tau", str(perfbench.TAU), "--batch-size",
                         str(spec.batch_size), "--lr", str(spec.lr), "--max-epochs", epochs,
                         "--patience", epochs, "--seed", str(args.seed)]
                runs[name].append(run_child(trees[name], train, directory / f"log-{name}-{index}"))
        outputs = {name: b"".join((directory / f"{name}-0" / f).read_bytes()
                                  for f in ("history.tsv", "weights.bin"))
                   for name in names}
    report = {
        "workload": args.workload, "seed": args.seed, "epochs": int(epochs),
        "cores": len(os.sched_getaffinity(0)),
        "outputs_identical": len(set(outputs.values())) == 1,
        "summary": {name: summary(runs[name]) for name in names},
        "runs": runs,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    for name in names:
        s = report["summary"][name]
        print(f"{name}: wall {s['wall_s'] * 1e3:.1f} ms median; forks {s['forks']}")
        for role, p in s["processes"].items():
            stages = ", ".join(f"{k} {v * 1e3:.1f}" for k, v in p["stages_s"].items())
            faults = f"faults {p['minflt']:.0f}"
            if p.get("minflt_after_fork") is not None:
                faults += f" ({p['minflt_after_fork']:.0f} after the fork)"
            print(f"  {role}: {stages} ms; {faults}")
    print(f"outputs identical: {report['outputs_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
