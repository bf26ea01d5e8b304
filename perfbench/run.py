"""Run one benchmark workload: whole aste user sessions, timed end to end.

    python3 perfbench/run.py --workload short-rel --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload long-dep --seed 1 --seconds 55 --trace 1
    python3 perfbench/run.py --self-check

Run from anywhere; the program is imported from ``src/`` next to this
directory, and the run exits with code 2 when that source is missing. One
process, one thread (BLAS is held to one thread below, before numpy loads).

A round is one closed-loop session with one caller: ``aste train`` through
``aste.cli.main`` for a fixed number of epochs, ``aste decode`` of the
held-out test file, then single-sentence ``TripletModel.predict`` calls back
to back. Rounds repeat while another one fits in ``--seconds``. Timings
are scaled to a reference machine speed sampled all through the run
(speed.py). With ``--trace 1`` every second round runs with the layer tracer
installed; the per-layer figures come from those rounds and the overhead
from comparing them with the untraced ones. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import corpora  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

TAU = 8
SETUPS = 9           # set-ups per run; setup_s is their median
DISTANCE_SAMPLE = 8  # test sentences whose distance matrices are recomputed per round
PREDICT_PASSES = 2   # predict calls per test sentence per round: 480, so 24 beyond p95


@dataclass(frozen=True)
class Workload:
    name: str
    adapter: str
    batch_size: int
    lr: float
    epochs: int
    sizes: dict        # sentences per split
    f1_floor: float    # test exact-match F1, see README.md for how it was set


WORKLOADS = {
    "short-rel": Workload(
        name="short-rel", adapter="rel", batch_size=6, lr=1e-3, epochs=10,
        sizes={"train": 200, "dev": 40, "test": 240}, f1_floor=0.35,
    ),
    "long-dep": Workload(
        name="long-dep", adapter="dep", batch_size=4, lr=2e-3, epochs=14,
        sizes={"train": 100, "dev": 16, "test": 240}, f1_floor=0.5,
    ),
}


def tiny(workload: Workload) -> Workload:
    """The self-check size: seconds per workload. A model this small does
    not learn, so the F1 floor is 0 here."""
    return replace(workload, epochs=2, sizes={"train": 12, "dev": 4, "test": 6}, f1_floor=0.0)


def program(module: str):
    return sys.modules[f"aste.{module}"]


# -- set-up -----------------------------------------------------------------


def set_up(workload: Workload, seed: int, work_dir: Path) -> tuple[tuple, dict]:
    """Import the package afresh, generate the corpus, write its JSONL files;
    ((begin, end), splits)."""
    start = time.perf_counter()
    for name in [n for n in sys.modules if n == "aste" or n.startswith("aste.")]:
        del sys.modules[name]
    importlib.import_module("aste.cli")
    splits = corpora.generate(workload.name, seed, workload.sizes)
    for split, sentences in splits.items():
        (work_dir / f"{split}.jsonl").write_text(corpora.to_jsonl(sentences), encoding="utf-8")
    return (start, time.perf_counter()), splits


# -- one round --------------------------------------------------------------


@dataclass
class Round:
    """One session; timings are (begin, end) perf_counter pairs."""

    traced: bool
    attempted: int
    failed: int = 0
    wall: tuple | None = None
    train: tuple | None = None
    decode: tuple | None = None
    calls: list = field(default_factory=list)
    checks: list = field(default_factory=list)


def call_cli(argv: list[str]) -> tuple[bool, tuple]:
    """Run one aste command; (succeeded, (begin, end))."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = program("cli").main(argv)
    except Exception as exc:  # a traceback escaping the CLI is a failed operation
        print(f"aste {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return False, (start, time.perf_counter())
    if code != 0:
        print(f"aste {argv[0]} exited with {code}", file=sys.stderr)
    return code == 0, (start, time.perf_counter())


def play_round(workload: Workload, seed: int, work_dir: Path, splits: dict, index: int,
               tracer: tracing.Tracer | None) -> Round:
    out = work_dir / f"round{index}"
    out.mkdir()
    phase = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    result = Round(traced=tracer is not None, attempted=2 + PREDICT_PASSES * len(splits["test"]))
    weights, predictions = out / "weights.bin", out / "predictions.jsonl"
    epochs = str(workload.epochs)
    train_argv = [
        "train", "--train", str(work_dir / "train.jsonl"), "--dev", str(work_dir / "dev.jsonl"),
        "--out", str(out), "--adapter", workload.adapter, "--tau", str(TAU),
        "--batch-size", str(workload.batch_size), "--lr", str(workload.lr),
        "--max-epochs", epochs, "--patience", epochs, "--seed", str(seed % 2**32),
    ]
    decode_argv = ["decode", "--weights", str(weights), "--input", str(work_dir / "test.jsonl"),
                   "--out", str(predictions)]
    start = time.perf_counter()
    with phase("session.train"):
        trained, train_span = call_cli(train_argv)
    if not trained:
        result.failed = result.attempted
        return result
    with phase("session.decode"):
        decoded, decode_span = call_cli(decode_argv)
    if not decoded:
        result.failed = result.attempted - 1
        return result
    result.train, result.decode = train_span, decode_span
    test = splits["test"]
    with phase("session.predict"):
        model = program("model").TripletModel.load(weights)
        sentence_class = program("data").Sentence
        inputs = [sentence_class(tokens=list(s["tokens"]), heads=s["heads"]) for s in test]
        outputs = []
        for call in range(PREDICT_PASSES * len(inputs)):
            position = call % len(inputs)
            sentence = inputs[position]
            begin = time.perf_counter()
            try:
                triplets = model.predict(sentence)
            except Exception as exc:  # counted, not fatal
                print(f"predict raised {type(exc).__name__}: {exc}", file=sys.stderr)
                result.failed += 1
                continue
            result.calls.append((begin, time.perf_counter()))
            outputs.append((position, {checks.triplet_tuple(t) for t in triplets}))
    result.wall = (start, time.perf_counter())
    result.checks = check_round(workload, splits, out, outputs)
    return result


def check_round(workload: Workload, splits: dict, out: Path, outputs) -> list:
    test = splits["test"]
    found = []

    def run(name, check, *args):
        try:
            passed, detail = check(*args)
        except Exception as exc:  # a check that cannot be made has failed
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        found.append((name, passed, detail))

    run("history_epochs", checks.check_history,
        (out / "history.tsv").read_text(encoding="utf-8"), workload.epochs)
    try:
        records = checks.read_predictions(out / "predictions.jsonl")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        found.append(("decode_file", False, f"unreadable: {type(exc).__name__}: {exc}"))
        return found
    decoded = [set(r["triplets"]) for r in records]
    gold = [s["triplets"] for s in test]
    counts = checks.match_counts(decoded, gold)
    run("decode_file", checks.check_decoded_file, records, test)
    run("well_formed", checks.check_well_formed,
        [test[i] for i, _ in outputs] + test, [t for _, t in outputs] + decoded)
    run("f1_floor", checks.check_f1_floor, counts, workload.f1_floor)
    run("score_corpus_counts", checks.check_score_corpus, program("evaluation").score_corpus,
        program("data").Triplet, program("data").Span, decoded, gold, counts)
    run("predict_matches_decode", checks.check_predict_matches_decode, decoded, outputs)
    if workload.adapter == "dep":
        structure = program("structure")
        config = structure.StructureConfig(tau=TAU, kind=structure.DEPENDENCY)
        run("dependency_distances", checks.check_distances, structure.augmented_distance_matrix,
            config, test[:DISTANCE_SAMPLE], TAU, 3)
    return found


# -- a run ------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, traced: bool, work_dir: Path,
            dump_path: Path | None = None) -> dict:
    probe = speed.SpeedProbe()
    probe.start()
    try:
        setups = []
        for _ in range(SETUPS):
            interval, splits = set_up(workload, seed, work_dir)
            setups.append(interval)
        origin = Path(program("cli").__file__).resolve()
        if not origin.is_relative_to(SRC.resolve()):
            raise SystemExit(f"run.py: aste was imported from {origin}, not from {SRC}")

        rounds: list[Round] = []
        tracers: list[tracing.Tracer] = []
        durations: list[float] = []
        begin = time.perf_counter()
        while True:
            tracer = tracing.Tracer() if traced and len(rounds) % 2 == 1 else None
            if tracer is not None:
                tracer.install()
            started = time.perf_counter()
            try:
                rounds.append(play_round(workload, seed, work_dir, splits, len(rounds), tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    tracers.append(tracer)
            durations.append(time.perf_counter() - started)
            elapsed = time.perf_counter() - begin
            if len(rounds) >= (2 if traced else 1) and elapsed + statistics.median(durations) > seconds:
                break
    finally:
        probe.stop()

    if dump_path is not None and tracers:
        with open(dump_path, "w", encoding="utf-8") as handle:
            for i, tracer in enumerate(tracers):
                tracer.dump(handle, i)
    return {"rounds": rounds, "tracers": tracers, "setups": setups, "probe": probe}


def end_to_end(workload: Workload, summary: dict) -> dict | None:
    """name -> (value, unit, unscaled value), from the untraced rounds.
    Throughputs are all their work over all their time; the latency
    percentiles are over all their predict calls."""
    probe: speed.SpeedProbe = summary["probe"]
    timed = [r for r in summary["rounds"] if not r.traced and r.calls]
    calls = [c for r in timed for c in r.calls]
    if not timed or len(calls) < 2:
        return None

    def spent(intervals):
        """Seconds of each interval: scaled, and unscaled."""
        return ([probe.scaled(*i) for i in intervals],
                [probe.unscaled(*i) for i in intervals])

    train_work = workload.sizes["train"] * workload.epochs * len(timed)
    decode_work = workload.sizes["test"] * len(timed)
    setup = [statistics.median(s) for s in spent(summary["setups"])]
    train = [train_work / sum(s) for s in spent([r.train for r in timed])]
    decode = [decode_work / sum(s) for s in spent([r.decode for r in timed])]
    p50 = [1000 * statistics.median(s) for s in spent(calls)]
    p95 = [1000 * statistics.quantiles(s, n=20)[18] for s in spent(calls)]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup[0], "s", setup[1]),
        "train_sentences_per_s": (train[0], "sentences/s", train[1]),
        "decode_sentences_per_s": (decode[0], "sentences/s", decode[1]),
        "predict_p50_ms": (p50[0], "ms", p50[1]),
        "predict_p95_ms": (p95[0], "ms", p95[1]),
        "peak_rss_mb": (rss, "MB", rss),
    }


def per_layer(workload: Workload, summary: dict):
    """name -> (value, unit, unscaled value), and the exact counts that
    differed between traced rounds. Per-layer seconds are scaled by the
    factor of their whole round."""
    probe: speed.SpeedProbe = summary["probe"]
    rounds, tracers = summary["rounds"], summary["tracers"]
    traced_rounds = [r for r in rounds if r.traced]
    per_round, raw_rounds = [], []
    for r, tracer in zip(traced_rounds, tracers):
        raw = tracer.layer_metrics(workload.sizes["train"], workload.epochs)
        factor = probe.factor(*r.wall)
        raw_rounds.append(raw)
        per_round.append({k: v * factor if k.endswith("_s") else v for k, v in raw.items()})
    figures, unsteady = tracing.combine_rounds(per_round)
    raw_figures, _ = tracing.combine_rounds(raw_rounds)
    plain = [r.wall for r in rounds if not r.traced and r.wall]
    traced = [r.wall for r in traced_rounds if r.wall]
    figures["trace.overhead_s"] = (statistics.median(probe.scaled(*w) for w in traced)
                                   - statistics.median(probe.scaled(*w) for w in plain))
    raw_figures["trace.overhead_s"] = (statistics.median(probe.unscaled(*w) for w in traced)
                                       - statistics.median(probe.unscaled(*w) for w in plain))
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    return {name: (figures[name], units[name], raw_figures[name]) for name in units}, unsteady


def merged_checks(rounds: list[Round]) -> list[tuple[str, bool, str]]:
    """One verdict per check: passed only if it passed in every round."""
    verdicts: dict[str, tuple[bool, str]] = {}
    for r in rounds:
        for name, passed, detail in r.checks:
            if name not in verdicts or verdicts[name][0]:
                verdicts[name] = (passed, detail)
    return [(name, passed, detail) for name, (passed, detail) in verdicts.items()]


def report(workload: Workload, seed: int, summary: dict, traced: bool) -> dict | None:
    rounds, tracers, probe = summary["rounds"], summary["tracers"], summary["probe"]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    verdicts = merged_checks(rounds)
    metrics = None
    if traced:
        if tracers and any(r.wall for r in rounds if not r.traced):
            metrics, unsteady = per_layer(workload, summary)
            verdicts.append(("exact_counts_repeat", not unsteady,
                             "differed: " + ", ".join(unsteady) if unsteady else "all rounds equal"))
        absent = sorted({name for t in tracers for name in t.absent})
        print(f"absent: {', '.join(absent) if absent else 'none'}")
    else:
        metrics = end_to_end(workload, summary)
    samples = sum(len(r.calls) for r in rounds if not r.traced)
    print(f"workload {workload.name} seed {seed}: {len(rounds)} rounds ({len(tracers)} traced), "
          f"{samples} untraced predict calls, {len(probe.starts)} speed probes")
    for i, r in enumerate(rounds):
        if r.wall:
            print(f"round {i}{' traced' if r.traced else ''}: wall {r.wall[1] - r.wall[0]:.3f} s, "
                  f"train {r.train[1] - r.train[0]:.3f} s, "
                  f"decode {r.decode[1] - r.decode[0]:.3f} s, "
                  f"reference speed / machine speed {probe.factor(*r.wall):.3f}")
    for name, passed, detail in verdicts:
        print(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    if metrics is None:
        print("run.py: no round completed, nothing to report", file=sys.stderr)
        return None
    for name, (value, unit, raw) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} (unscaled {raw:.6g})")
    print(f"attempted {attempted} failed {failed}")
    return {
        "correct": all(passed for _, passed, _ in verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


# -- self-check ---------------------------------------------------------------


def planted_faults(workload: Workload) -> list[tuple[str, bool]]:
    """Each check must reject a deliberately wrong input."""
    splits = corpora.generate(workload.name, 0, tiny(workload).sizes)
    test = splits["test"]
    gold = [s["triplets"] for s in test]
    n = len(test[0]["tokens"])
    outside = [{((n, n), (0, 0), "POS")}] + gold[1:]
    history = "epoch\ttagging_loss\tparsing_loss\ttotal_loss\n0\t1\t2\t3\n"
    wrong_total = history + "1\t1\t2\t4\n"
    results = [
        ("well_formed rejects a span outside the sentence",
         not checks.check_well_formed(test, outside)[0]),
        ("well_formed rejects a bad sentiment",
         not checks.check_well_formed(test, [{((0, 0), (1, 1), "MIXED")}] + gold[1:])[0]),
        ("f1_floor rejects an empty prediction",
         not checks.check_f1_floor(checks.match_counts([set()] * len(gold), gold), 0.01)[0]),
        ("predict_matches_decode rejects a difference",
         not checks.check_predict_matches_decode(gold, [(0, set())])[0]),
        ("history_epochs rejects a missing epoch", not checks.check_history(history, 2)[0]),
        ("history_epochs rejects a wrong total", not checks.check_history(wrong_total, 2)[0]),
    ]
    if workload.adapter == "dep":
        structure = program("structure")
        config = structure.StructureConfig(tau=TAU, kind=structure.DEPENDENCY)

        def linear_order(n, config, heads, total_len):
            relative = structure.StructureConfig(tau=TAU, kind=structure.RELATIVE)
            return structure.augmented_distance_matrix(n, relative, total_len=total_len)

        results.append(("dependency_distances rejects linear-order distances",
                         not checks.check_distances(linear_order, config, test, TAU, 3)[0]))
    return results


def self_check() -> int:
    passed = True
    for workload in WORKLOADS.values():
        small = tiny(workload)
        work_dir = Path(tempfile.mkdtemp(prefix=f"selfcheck-{small.name}-", dir=OUT))
        try:
            summary = measure(small, 0, 0, True, work_dir)
            untraced = report(small, 0, summary, traced=False)
            layered = report(small, 0, summary, traced=True)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        outcomes = [
            ("end-to-end run correct", bool(untraced and untraced["correct"])),
            ("traced run correct", bool(layered and layered["correct"])),
            ("no failed operations", bool(untraced and untraced["failed"] == 0)),
            ("every per-layer metric reported", bool(layered) and
             set(layered["metrics"]) == {name for name, _, _ in tracing.LAYER_METRICS}),
            ("no trace target absent", not any(t.absent for t in summary["tracers"])),
        ] + planted_faults(small)
        for name, ok in outcomes:
            print(f"self-check {small.name}: {name}: {'PASS' if ok else 'FAIL'}")
            passed = passed and ok
    print(f"self-check {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at a tiny size with its checks")
    args = parser.parse_args(argv)
    if not (SRC / "aste" / "__init__.py").is_file():
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    dump = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl" if traced else None
    work_dir = Path(tempfile.mkdtemp(prefix=f"run-{workload.name}-", dir=OUT))
    try:
        summary = measure(workload, args.seed, args.seconds, traced, work_dir, dump)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = report(workload, args.seed, summary, traced)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
