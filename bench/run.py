"""Benchmark for ``ccgplan parse``: one seeded workload, end to end or traced.

Usage:
    python3 bench/run.py --workload pp-attach --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all     # every workload, one after another

Run from the repository root. The benchmark generates the workload's
corpus from the seed, writes its input files under ``.bench_run/``,
computes a reference answer for every sentence without the plan engine,
and times ``ccgplan check`` subprocesses as the set-up cost. It then runs
the closed loop in a fresh worker process (``worker.py``), checks every
output against its reference, and prints one JSON object as its last line.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the worker runs untraced passes, then the same passes
traced, and the metrics are per layer (see ``spans.py``); the span file is
written to ``.bench_run/`` and the ROADMAP's anchor sentences are timed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

CAP_S = 30.0  # per-sentence wall-time cap; today's slowest sentence takes about 5 s
MIN_SAMPLES = 100
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end well within 180 s

END_TO_END_UNITS = {
    "throughput_sps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "lexicon.ingest_s": "s", "lexicon.rungs_per_sentence": "count", "lexicon.combos": "count",
    "engine.strict_s": "s", "engine.best_effort_s": "s", "engine.searches": "count",
    "engine.strict_hit_ratio": "ratio", "engine.parses": "count",
    "rules.binary_calls": "count", "rules.binary_hit_ratio": "ratio", "rules.unary_calls": "count",
    "rules.ternary_calls": "count", "rules.s": "s",
    "categories.parse_calls": "count", "categories.parse_s": "s", "categories.print_calls": "count",
    "trees.attach_calls": "count",
    "render.s": "s", "render.calls": "count", "render.bytes_out": "bytes",
    "cli.self_s": "s", "trace.sentence_s": "s", "trace.overhead_frac": "ratio",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def write_inputs(directory: Path, workload: str, sentences, corpus) -> tuple[Path, list[dict], list[dict]]:
    """Input files for the corpus and the anchors; returns (lexicon, ops, anchors)."""
    lexicon = directory / "lexicon.txt"
    lexicon.write_text(corpus.lexicon_text(corpus.LEXICONS[workload]()), encoding="utf-8")
    rel = lambda path: str(path.relative_to(ROOT))  # noqa: E731
    ops = []
    for i, s in enumerate(sentences):
        if workload == "tagged-ladder":
            tags = directory / f"sentence_{i:04d}.txt"
            tags.write_text(s.text + "\n", encoding="utf-8")
            argv = ["parse", "--supertags", rel(tags), "--goal", s.goal, "--format", s.fmt]
        else:
            argv = ["parse", "--lexicon", rel(lexicon), "--words", s.text, "--goal", s.goal,
                    "--normalize", "on" if s.normalize else "off", "--format", s.fmt]
        ops.append({"argv": argv})
    anchor_lexicon = directory / "anchor_lexicon.txt"
    anchor_lexicon.write_text(corpus.lexicon_text(corpus.ANCHOR_LEXICON), encoding="utf-8")
    anchors = [
        {"label": label, "parses": parses,
         "argv": ["parse", "--lexicon", rel(anchor_lexicon), "--words", " ".join(corpus.ANCHOR_WORDS[:n]),
                  "--goal", "strict", "--normalize", normalize, "--format", "ascii"]}
        for label, n, normalize, parses in corpus.ANCHORS
    ]
    return lexicon, ops, anchors


def summary_fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def check_sample(sample: dict, expected) -> str | None:
    """Why a sample disagrees with its reference, or None if it agrees."""
    if sample["code"] is None:
        return sample["error"] or "no exit code"
    if sample["code"] != expected.code:
        return f"exit code {sample['code']}, expected {expected.code}: {sample['error']}"
    got = summary_fields(sample["summary"])
    want = {"mode": expected.mode, "residue": str(expected.residue), "parses": str(expected.parses)}
    if expected.cutoff is not None:
        want["cutoff"] = expected.cutoff
    wrong = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
    if wrong:
        return f"summary {wrong}, expected {want}"
    if sample["digest"] != expected.out_digest:
        return "documents differ from the reference"
    return None


def run_worker(plan: dict, directory: Path, remaining_s: float) -> dict:
    plan_path, result_path = directory / "plan.json", directory / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path), str(result_path)]
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=sys.stderr, timeout=remaining_s)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {remaining_s:.0f}s")
    if done.returncode != 0 or not result_path.exists():
        fail(f"worker exited with code {done.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    # the latest run's raw samples stay available for inspection
    os.replace(result_path, WORK / f"{plan['workload']}.result.json")
    return result


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "ccgplan" / "__init__.py").is_file():
        fail(f"no ccgplan package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import corpus
    import worker

    if args.workload == "all":
        # each workload in its own process, so peak memory stays per workload
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for w in corpus.WORKLOADS]
        return max(codes)
    if args.workload not in corpus.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from all, {', '.join(corpus.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    sentences = corpus.generate(args.workload, args.seed)
    problems = []
    for s in sentences:
        s.expected, note = corpus.reference(args.workload, s)
        if note:
            problems.append(note)
    if args.seed == corpus.DEFAULT_SEED:
        problems += corpus.check_pins(args.workload, sentences)
    for problem in problems:
        print(f"reference disagreement: {problem}", file=sys.stderr)

    # a directory per process, so runs cannot overwrite each other's inputs
    directory = WORK / f"{args.workload}-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        lexicon, ops, anchors = write_inputs(directory, args.workload, sentences, corpus)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        plan = {
            "workload": args.workload, "seed": args.seed, "ops": ops, "anchors": anchors,
            "warmup": min(range(len(ops)), key=lambda i: len(sentences[i].text)),
            "seconds": args.seconds, "min_samples": MIN_SAMPLES, "cap_s": CAP_S, "trace": bool(args.trace),
            "deadline_s": max(remaining - 2 * CAP_S, 1.0), "spans_path": str(spans_path), "src": str(SRC),
            "setup_argv": [sys.executable, "-m", "ccgplan.cli", "check", "--lexicon", str(lexicon.relative_to(ROOT))],
        }
        result = run_worker(plan, directory, remaining)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    samples = result["samples"]
    failures = []
    for sample in samples:
        why = check_sample(sample, sentences[sample["op"]].expected)
        if why:
            failures.append((sample["op"], why))
    for op, why in failures[:5]:
        print(f"failed: sentence {op} {sentences[op].text!r}: {why}", file=sys.stderr)
    for expected, anchor in zip(anchors, result.get("anchors", [])):
        got = summary_fields(anchor["summary"]).get("parses")
        ok = anchor["code"] == 0 and got == str(expected["parses"])
        if not ok:
            problems.append(f"anchor {anchor['label']}: {anchor['summary'] or anchor['error']}")
        print(f"anchor {anchor['label']}: parses={got} wall={anchor['latency_s']:.3f}s {'ok' if ok else 'WRONG'}")

    attempted, failed = len(samples), len(failures)
    print(f"workload={args.workload} seed={args.seed} sentences/pass={len(ops)} passes={result['passes']} "
          f"samples={attempted} failed={failed}")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        # Each sentence's latency is the median of its calibrated repetitions.
        per_op = sorted(worker.median_per_op(samples).values())
        deciles = statistics.quantiles(per_op, n=10, method="inclusive")
        values = {
            "throughput_sps": len(per_op) / sum(per_op),
            "latency_p50_ms": deciles[4] * 1000.0,
            "latency_p90_ms": deciles[8] * 1000.0,
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "setup_s": statistics.median(result["setup_s"]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
