"""Closed-loop runner for one workload, in a fresh process started by ``run.py``.

One client, one thread: each operation is an in-process call to
``ccgplan.cli.main(["parse", ...])`` with stdout captured in memory, and the
next starts when it returns. The loop runs whole passes over the corpus
until the requested time has passed and at least ``min_samples`` sentences
were measured. Each call runs under a ``setitimer`` wall-time cap; a call
that hits it is recorded as a failure and the loop goes on.

Usage: python3 worker.py PLAN.json RESULT.json
The plan lists the operations; the result holds, per sample, the latency,
exit code, summary line and a digest of the documents printed, plus the
set-up times and the process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ccgplan.cli  # noqa: E402

import spans  # noqa: E402


# The speed probe's time at full speed on a 2-vCPU Intel Xeon virtual
# machine with Python 3.11.7; under contention it took up to 1.7x longer.
PROBE_REF_S = 0.003
# The machine's speed can change within a long call, so untraced calls are
# probed from inside too.
PROBE_EVERY_S = 0.1


class SentenceTimeout(Exception):
    """Raised from the alarm handler when one call exceeds its cap."""


def _on_alarm(signum, frame):
    raise SentenceTimeout()


def run_one(argv: list[str], cap_s: float, probe_every_s: float | None = None) -> tuple[float, dict]:
    """One CLI call under the wall-time cap: (latency, outcome).

    With ``probe_every_s``, a ``SIGPROF`` timer runs the speed probe every
    that many CPU seconds during the call; the probes' times are returned
    and the time spent in them is left out of the latency.
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    probes: list[float] = []
    in_probes = 0.0

    def on_prof(signum, frame):
        nonlocal in_probes
        entered = time.perf_counter()
        probes.append(speed_probe())
        in_probes += time.perf_counter() - entered

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    previous_prof = signal.signal(signal.SIGPROF, on_prof)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    if probe_every_s:
        signal.setitimer(signal.ITIMER_PROF, probe_every_s, probe_every_s)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ccgplan.cli.main(argv)
    except SentenceTimeout:
        error = f"timeout after {cap_s:g}s"
    except Exception:  # a crash in the program is a failed sentence, not a failed run
        error = traceback.format_exc(limit=3)
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGPROF, previous_prof)
        signal.signal(signal.SIGALRM, previous)
    text = out.getvalue()
    cut = text.rstrip("\n").rfind("\n") + 1
    return elapsed - in_probes, {
        "code": code,
        "summary": text[cut:].strip(),
        "digest": hashlib.sha256(text[:cut].encode("utf-8")).hexdigest(),
        "error": error or err.getvalue().strip() or None,
        "probes": probes,
    }


def run_pass(ops: list[dict], cap_s: float, number: int, deadline: float,
             tracer: spans.Tracer | None = None) -> list[dict]:
    """One whole pass over ``ops``, or part of one if ``deadline`` (a
    ``perf_counter`` instant) passes, so a program that has become very
    slow cannot overrun the run's time limit. The speed probe runs between
    calls and, in untraced calls, every ``PROBE_EVERY_S`` of CPU time
    during them; each sample keeps the mean of the probes around and in it."""
    samples = []
    before = speed_probe()
    for index, op in enumerate(ops):
        if tracer is None:
            latency, outcome = run_one(op["argv"], cap_s, PROBE_EVERY_S)
        else:
            # no probes inside traced calls: their time would land in the spans
            with tracer.sentence_span(number * len(ops) + index):
                latency, outcome = run_one(op["argv"], cap_s)
        after = speed_probe()
        probes = [before, *outcome.pop("probes"), after]
        samples.append({"op": index, "pass": number, "traced": tracer is not None, "latency_s": latency,
                        "probe_s": sum(probes) / len(probes), **outcome})
        before = after
        if time.perf_counter() > deadline:
            break
    return samples


@dataclass(frozen=True)
class _Cell:
    head: object
    tail: object
    flag: bool


def speed_probe(rounds: int = 1000) -> float:
    """Seconds for a fixed piece of pure-Python work, independent of ccgplan.

    It builds and hashes frozen dataclasses and tuples and probes a dict,
    the same kinds of work the parser does, so its time moves with the
    machine's momentary speed as the parser's does. ``PROBE_REF_S`` is its
    time at full speed.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection here would do the program's work, or the program would do the probe's
    try:
        leaves = [_Cell(f"a{i % 13}", None, True) for i in range(40)]
        memo: dict = {}
        started = time.perf_counter()
        for i in range(rounds):
            a, b = leaves[i % 40], leaves[(i * 7) % 40]
            cell = _Cell(a, _Cell(b, a, False), i % 2 == 0)
            key = (cell, i % 50)
            if key not in memo:
                memo[key] = len(memo)
            if i % 97 == 0:
                leaves[i % 40] = cell
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def calibrated(seconds: float, probe_s: float) -> float:
    """Wall time rescaled to the speed at which the probe takes ``PROBE_REF_S``."""
    return seconds * PROBE_REF_S / probe_s


def time_setup(argv: list[str], env: dict) -> float:
    """Wall time of one fresh ``ccgplan check`` process."""
    started = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - started
    if done.returncode != 0 or done.stdout.strip() != "ok":
        raise RuntimeError(f"{' '.join(argv)} failed: {done.stdout}{done.stderr}")
    return elapsed


def median_per_op(samples: list[dict]) -> dict[int, float]:
    """Each operation's median calibrated latency over its repetitions."""
    per_op: dict[int, list[float]] = {}
    for s in samples:
        per_op.setdefault(s["op"], []).append(calibrated(s["latency_s"], s["probe_s"]))
    return {op: statistics.median(v) for op, v in per_op.items()}


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    ops, cap_s = plan["ops"], plan["cap_s"]
    env = {**os.environ, "PYTHONPATH": plan["src"]}
    # one untimed call, so the first sample does not pay for first-use costs
    run_one(ops[plan["warmup"]]["argv"], cap_s)
    tracer = spans.Tracer() if plan["trace"] else None
    samples: list[dict] = []
    setup: list[float] = []
    started = time.perf_counter()
    deadline = started + plan["deadline_s"]
    passes = 0
    # Passes repeat until the time is up, so each sentence is timed several
    # times spread over the run. Set-up is timed between passes for the same
    # reason. In a traced run, untraced and traced passes alternate, and the
    # tracer is only patched in during its own passes.
    while True:
        if tracer is None:
            before = speed_probe()
            elapsed = time_setup(plan["setup_argv"], env)
            setup.append(calibrated(elapsed, (before + speed_probe()) / 2))
        samples += run_pass(ops, cap_s, passes, deadline)
        if tracer is not None:
            with tracer:
                samples += run_pass(ops, cap_s, passes, deadline, tracer)
        passes += 1
        now = time.perf_counter()
        plain = sum(1 for s in samples if not s["traced"])
        if now > deadline or (now - started >= plan["seconds"] and plain >= plan["min_samples"]):
            break
    result: dict = {"samples": samples, "passes": passes, "setup_s": setup}
    if tracer is not None:
        traced = [s for s in samples if s["traced"]]
        untraced, with_trace = median_per_op([s for s in samples if not s["traced"]]), median_per_op(traced)
        overhead = sum(with_trace.values()) / sum(untraced[op] for op in with_trace) - 1
        speed = PROBE_REF_S / statistics.median(s["probe_s"] for s in traced)
        result["layers"] = tracer.metrics(len(traced), overhead, speed)
        tracer.write(Path(plan["spans_path"]), {"workload": plan["workload"], "seed": plan["seed"]})
        result["anchors"] = [
            {"label": a["label"], "latency_s": latency, **outcome}
            for a in plan["anchors"]
            for latency, outcome in [run_one(a["argv"], cap_s)]
        ]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
