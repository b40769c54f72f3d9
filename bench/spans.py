"""Tracing from outside the program: wrap the names ``ccgplan`` modules call.

A span is recorded at each layer boundary the CLI crosses: the ``cli.main``
call the harness makes, the lexicon readers and ``parse_all`` as ``cli``
calls them, the searches ``parse_all`` runs, and the renderers ``cli``
calls (including the ``to_json`` calls of its sort key). Spans are rows of
``[name, start, end, parent, sentence, leaf_s]`` kept in memory and written
out when the run ends.

The rule-instance functions run hundreds of thousands of times per
sentence, and ``parse_category``, ``print_category`` and ``attach_words``
are called per category or per tree, so these leaf calls are not spans:
each adds its count to a counter and, where timed, its duration to the
``leaf_s`` of the span it runs in. A span's self time is its duration
minus its child spans and its timed leaf calls.

``Tracer`` patches on ``__enter__`` and restores every name on
``__exit__``, so code after the ``with`` block runs unpatched.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import Counter
from pathlib import Path

import ccgplan.cli
import ccgplan.engine
import ccgplan.lexicon
import ccgplan.render

NAME, START, END, PARENT, SENTENCE, LEAF_S = range(6)

# (module, attribute, span name)
SPAN_SITES = (
    (ccgplan.cli, "load_lexicon", "lexicon.load_lexicon"),
    (ccgplan.cli, "tag_with_lexicon", "lexicon.tag_with_lexicon"),
    (ccgplan.cli, "ingest_supertags", "lexicon.ingest_supertags"),
    (ccgplan.engine, "enumerate_parses", "engine.enumerate_parses"),
    (ccgplan.engine, "best_effort", "engine.best_effort"),
    (ccgplan.cli, "to_ascii", "render.to_ascii"),
    (ccgplan.cli, "to_json", "render.to_json"),
    (ccgplan.cli, "to_dot", "render.to_dot"),
)
# (module, attribute, counter, timed)
LEAF_SITES = (
    (ccgplan.engine, "binary_instances", "rules.binary", True),
    (ccgplan.engine, "unary_instances", "rules.unary", True),
    (ccgplan.engine, "ternary_instances", "rules.ternary", True),
    (ccgplan.lexicon, "parse_category", "categories.parse", True),
    (ccgplan.render, "print_category", "categories.print", False),
    (ccgplan.engine, "attach_words", "trees.attach", False),
)
PARSE_ALL_SITE = (ccgplan.cli, "parse_all")


def patched_sites():
    """Every (module, attribute) pair a ``Tracer`` replaces."""
    sites = [(m, a) for m, a, _ in SPAN_SITES] + [(m, a) for m, a, _, _ in LEAF_SITES]
    return sites + [PARSE_ALL_SITE]


class Tracer:
    def __init__(self):
        self.names: list[str] = ["cli.main", "engine.parse_all.strict", "engine.parse_all.best-effort"]
        self.spans: list[list] = []
        self.stack = [-1]
        self.sentence = -1
        # counter name -> [calls, calls with a non-empty result, seconds]
        self.leaves: dict[str, list] = {}
        self.strict_attempts = 0
        self.strict_hits = 0
        self.combos = 0
        self.parses = 0
        self.render_bytes = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name in SPAN_SITES:
                self._patch(module, attr, self._span_wrapper(getattr(module, attr), self._name_id(name)))
            for module, attr, counter, timed in LEAF_SITES:
                stat = self.leaves.setdefault(counter, [0, 0, 0.0])
                self._patch(module, attr, self._leaf_wrapper(getattr(module, attr), stat, timed))
            self._patch(*PARSE_ALL_SITE, self._parse_all_wrapper(getattr(*PARSE_ALL_SITE)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- recording -----------------------------------------------------

    def _open(self, name_id: int) -> list:
        row = [name_id, 0.0, 0.0, self.stack[-1], self.sentence, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(row)
        row[START] = time.perf_counter()
        return row

    def _close(self, row: list) -> None:
        row[END] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn, name_id: int):
        counts_bytes = self.names[name_id].startswith("render.")

        def traced(*args, **kwargs):
            row = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(row)
            if counts_bytes:
                self.render_bytes += len(out.encode("utf-8"))
            return out

        return traced

    def _leaf_wrapper(self, fn, stat: list, timed: bool):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if not timed:
            def counted(*args):
                stat[0] += 1
                return fn(*args)

            return counted

        def timed_leaf(*args):
            started = clock()
            out = fn(*args)
            elapsed = clock() - started
            stat[0] += 1
            if out:
                stat[1] += 1
            stat[2] += elapsed
            spans[stack[-1]][LEAF_S] += elapsed
            return out

        return timed_leaf

    def _parse_all_wrapper(self, fn):
        def traced(ts, cfg, goal):
            strict = goal.mode == "strict"
            row = self._open(1 if strict else 2)
            try:
                result = fn(ts, cfg, goal)
            finally:
                self._close(row)
            if strict:
                self.strict_attempts += 1
                self.strict_hits += bool(result)
                self.combos += math.prod(len(tok.candidates) for tok in ts.tokens)
                self.parses += len(result)
            else:
                self.parses += len(result[1])
            return result

        return traced

    @contextlib.contextmanager
    def sentence_span(self, sentence: int):
        """The root ``cli.main`` span of one sentence."""
        self.sentence = sentence
        row = self._open(0)
        try:
            yield
        finally:
            self._close(row)
            self.sentence = -1

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for row in self.spans:
            if row[PARENT] >= 0:
                covered[row[PARENT]] += row[END] - row[START]
        totals = dict.fromkeys(self.names, 0.0)
        for row, child in zip(self.spans, covered):
            totals[self.names[row[NAME]]] += row[END] - row[START] - child - row[LEAF_S]
        return totals

    def metrics(self, sentences: int, overhead_frac: float, speed: float = 1.0) -> dict[str, float]:
        """Per-layer metrics; times and counts are means per sentence.

        Times are multiplied by ``speed``, the caller's factor from wall
        time to calibrated time.
        """
        own = {name: t * speed for name, t in self.self_times().items()}
        per = 1.0 / sentences

        def total(prefix: str) -> float:
            return sum(v for k, v in own.items() if k.startswith(prefix))

        leaf = self.leaves
        rules = [leaf[k] for k in ("rules.binary", "rules.unary", "rules.ternary")]
        calls = Counter(self.names[row[NAME]] for row in self.spans)
        searches = calls["engine.enumerate_parses"] + calls["engine.best_effort"]
        render_calls = sum(n for name, n in calls.items() if name.startswith("render."))
        main_s = speed * sum(row[END] - row[START] for row in self.spans if row[NAME] == 0)
        return {
            "lexicon.ingest_s": total("lexicon.") * per,
            "lexicon.rungs_per_sentence": calls["lexicon.ingest_supertags"] * per,
            "lexicon.combos": self.combos / self.strict_attempts if self.strict_attempts else 0.0,
            "engine.strict_s": (own["engine.parse_all.strict"] + own.get("engine.enumerate_parses", 0.0)) * per,
            "engine.best_effort_s": (own["engine.parse_all.best-effort"] + own.get("engine.best_effort", 0.0)) * per,
            "engine.searches": searches * per,
            "engine.strict_hit_ratio": self.strict_hits / self.strict_attempts if self.strict_attempts else 0.0,
            "engine.parses": self.parses * per,
            "rules.binary_calls": leaf["rules.binary"][0] * per,
            "rules.binary_hit_ratio": leaf["rules.binary"][1] / leaf["rules.binary"][0] if leaf["rules.binary"][0] else 0.0,
            "rules.unary_calls": leaf["rules.unary"][0] * per,
            "rules.ternary_calls": leaf["rules.ternary"][0] * per,
            "rules.s": sum(stat[2] for stat in rules) * speed * per,
            "categories.parse_calls": leaf["categories.parse"][0] * per,
            "categories.parse_s": leaf["categories.parse"][2] * speed * per,
            "categories.print_calls": leaf["categories.print"][0] * per,
            "trees.attach_calls": leaf["trees.attach"][0] * per,
            "render.s": total("render.") * per,
            "render.calls": render_calls * per,
            "render.bytes_out": self.render_bytes * per,
            "cli.self_s": own["cli.main"] * per,
            "trace.sentence_s": main_s * per,
            "trace.overhead_frac": overhead_frac,
        }

    def write(self, path: Path, meta: dict) -> None:
        doc = {**meta, "names": self.names, "fields": ["name", "start", "end", "parent", "sentence", "leaf_s"],
               "spans": self.spans, "leaves": self.leaves}
        path.write_text(json.dumps(doc), encoding="utf-8")
