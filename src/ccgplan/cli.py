"""Command-line front end: parse, check, and compare subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .categories import CategoryError
from .engine import ParseGoal, parse_all
from .lexicon import (
    LexiconError,
    SupertagError,
    TaggedSentence,
    ingest_supertags,
    load_lexicon,
    parse_lexicon_line,
    tag_with_lexicon,
)
from .oracle import ChartLimitError, chart_parse_all
from .render import to_ascii, to_dot, to_json
from .rules import RuleConfig, RuleConfigError, load_rule_config
from .trees import DerivationTree

DEFAULT_CUTOFFS = (0.075, 0.03, 0.01)

_EXT = {"ascii": "txt", "json": "json", "dot": "dot"}


class CliError(Exception):
    """User-facing failure; the CLI exits 1 with the message."""


@dataclasses.dataclass
class RunReport:
    mode: str
    residue: int
    parses: int
    paths: tuple[str, ...]
    wall: float
    cutoff: float | None = None

    def summary(self) -> str:
        line = f"mode={self.mode} residue={self.residue} parses={self.parses} wall={self.wall:.3f}s"
        if self.cutoff is not None:
            line += f" cutoff={self.cutoff:g}"
        return line


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc


def _build_config(args) -> RuleConfig:
    cfg = RuleConfig()
    if getattr(args, "rules", None):
        try:
            cfg = load_rule_config(_read_text(args.rules, "rule config"), cfg)
        except RuleConfigError as exc:
            raise CliError(f"{args.rules}: {exc}") from exc
    overrides = {}
    if getattr(args, "normalize", None) is not None:
        overrides["normalize"] = args.normalize == "on"
    if getattr(args, "max_steps", None) is not None:
        overrides["max_steps"] = args.max_steps
    if overrides:
        try:
            cfg = dataclasses.replace(cfg, **overrides)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    return cfg


def _parse_cutoffs(text: str) -> tuple[float, ...]:
    try:
        cutoffs = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad cutoff list {text!r}") from exc
    if not cutoffs or any(not 0.0 < c <= 1.0 for c in cutoffs):
        raise CliError("cutoffs must lie in (0, 1]")
    return cutoffs


def _tagged_from_lexicon(args) -> TaggedSentence:
    lex = load_lexicon(_read_text(args.lexicon, "lexicon"))
    words = args.words.split()
    if not words:
        raise CliError("no tokens in --words")
    return tag_with_lexicon(words, lex)


def _strict_parses(ts: TaggedSentence, cfg: RuleConfig, engine: str, target_goal: ParseGoal):
    if engine == "oracle":
        return chart_parse_all(ts, cfg, target_goal)
    return parse_all(ts, cfg, target_goal)


def _best_effort(ts: TaggedSentence, cfg: RuleConfig, engine: str):
    goal = ParseGoal.best_effort()
    if engine == "oracle":
        return chart_parse_all(ts, cfg, goal)
    return parse_all(ts, cfg, goal)


def _render_documents(parses, fmt: str) -> list[str]:
    docs = []
    # the sort key holds each tree's JSON document, so JSON reuses it
    for key, entry in sorted(((_sort_key(entry), entry) for entry in parses), key=lambda keyed: keyed[0]):
        if fmt == "ascii":
            docs.append(to_ascii(entry))
        elif fmt == "json":
            if isinstance(entry, tuple):
                docs.append(json.dumps([json.loads(doc) for doc in key], indent=2, sort_keys=True))
            else:
                docs.append(key[0])
        else:
            docs.append(to_dot(entry))
    return docs


def _sort_key(entry):
    if isinstance(entry, tuple):
        return tuple(to_json(t) for t in entry)
    return (to_json(entry),)


def _emit(docs: list[str], fmt: str, out_dir: str | None) -> tuple[str, ...]:
    if out_dir is None:
        for k, doc in enumerate(docs, start=1):
            print(f"# parse {k} of {len(docs)}")
            print(doc)
            print()
        return ()
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, doc in enumerate(docs, start=1):
        path = directory / f"parse_{k:04d}.{_EXT[fmt]}"
        path.write_text(doc + "\n", encoding="utf-8")
        paths.append(str(path))
    return tuple(paths)


def cmd_parse(args) -> int:
    started = time.perf_counter()
    if bool(args.supertags) == bool(args.lexicon):
        raise CliError("give exactly one input: --lexicon with --words, or --supertags")
    if args.lexicon and args.words is None:
        raise CliError("--lexicon needs --words")
    cfg = _build_config(args)
    if args.engine == "oracle" and cfg.max_steps is not None:
        raise CliError("the oracle has no plan-length bound: drop --max-steps and the max_steps key")
    goal = ParseGoal.strict()
    used_cutoff: float | None = None

    if args.supertags:
        source = _read_text(args.supertags, "supertag file")
        cutoffs = _parse_cutoffs(args.cutoffs)
        ts = None
        strict_result: set[DerivationTree] = set()
        if args.goal in ("strict", "auto"):
            for cutoff in cutoffs:
                ts = ingest_supertags(source, cutoff)
                strict_result = _strict_parses(ts, cfg, args.engine, goal)
                used_cutoff = cutoff
                if strict_result:
                    break
        if ts is None:
            ts = ingest_supertags(source, cutoffs[-1])
            used_cutoff = cutoffs[-1]
    else:
        ts = _tagged_from_lexicon(args)
        strict_result = _strict_parses(ts, cfg, args.engine, goal) if args.goal in ("strict", "auto") else set()

    if strict_result:
        docs = _render_documents(strict_result, args.format)
        paths = _emit(docs, args.format, args.out)
        report = RunReport("strict", 1, len(docs), paths, time.perf_counter() - started, used_cutoff)
        print(report.summary())
        for p in report.paths:
            print(p)
        return 0

    if args.goal == "strict":
        report = RunReport("strict", len(ts.tokens), 0, (), time.perf_counter() - started, used_cutoff)
        print("no strict parse")
        print(report.summary())
        return 2

    residue, forests = _best_effort(ts, cfg, args.engine)
    docs = _render_documents(forests, args.format)
    paths = _emit(docs, args.format, args.out)
    report = RunReport("best-effort", residue, len(docs), paths, time.perf_counter() - started, used_cutoff)
    print(report.summary())
    for p in report.paths:
        print(p)
    return 2


def cmd_check(args) -> int:
    if not args.lexicon and not args.rules:
        raise CliError("nothing to check: give --lexicon and/or --rules")
    clean = True
    if args.lexicon:
        source = _read_text(args.lexicon, "lexicon")
        any_entry = False
        for lineno, line in enumerate(source.splitlines(), start=1):
            try:
                if parse_lexicon_line(line) is not None:
                    any_entry = True
            except LexiconError as exc:
                clean = False
                print(f"{args.lexicon}:{lineno}: {exc}")
        if not any_entry:
            clean = False
            print(f"{args.lexicon}: lexicon has no entries")
    if args.rules:
        source = _read_text(args.rules, "rule config")
        try:
            load_rule_config(source)
        except RuleConfigError as exc:
            clean = False
            print(f"{args.rules}: {exc}")
    if clean:
        print("ok")
    return 0 if clean else 1


def cmd_compare(args) -> int:
    if bool(args.supertags) == bool(args.lexicon):
        raise CliError("give exactly one input: --lexicon with --words, or --supertags")
    if args.supertags:
        cutoffs = _parse_cutoffs(args.cutoffs)
        ts = ingest_supertags(_read_text(args.supertags, "supertag file"), cutoffs[0])
    else:
        ts = _tagged_from_lexicon(args)
    cfg = _build_config(args)
    if cfg.max_steps is None:
        # wide enough for any tree the oracle can build
        cfg = dataclasses.replace(cfg, max_steps=2 * len(ts.tokens) + 1)
    if args.goal == "strict":
        goal = ParseGoal.strict()
        plan_side = parse_all(ts, cfg, goal)
        chart_side = chart_parse_all(ts, cfg, goal)
    else:
        plan_residue, plan_side = parse_all(ts, cfg, ParseGoal.best_effort())
        chart_residue, chart_side = chart_parse_all(ts, cfg, ParseGoal.best_effort())
        if plan_residue != chart_residue:
            print(f"residue differs: plan={plan_residue} oracle={chart_residue}")
            return 1
    if plan_side == chart_side:
        print(f"engines agree: {len(plan_side)} parses")
        return 0
    print(f"engines disagree: plan={len(plan_side)} oracle={len(chart_side)}")
    for entry in sorted(plan_side - chart_side, key=_sort_key):
        print("only plan engine:")
        print(to_ascii(entry))
    for entry in sorted(chart_side - plan_side, key=_sort_key):
        print("only oracle:")
        print(to_ascii(entry))
    return 1


def _add_input_flags(sub: argparse.ArgumentParser, with_cutoffs: bool = True) -> None:
    sub.add_argument("--lexicon", help="lexicon file (word<TAB>category per line)")
    sub.add_argument("--words", help="pre-tokenized sentence, space separated")
    sub.add_argument("--supertags", help="supertagger output file (one sentence)")
    sub.add_argument("--rules", help="rule configuration file")
    sub.add_argument("--max-steps", type=int, dest="max_steps", help="plan length bound (default: length + 2)")
    sub.add_argument("--normalize", choices=["on", "off"], help="normal-form filtering (default on)")
    if with_cutoffs:
        sub.add_argument(
            "--cutoffs",
            default=",".join(str(c) for c in DEFAULT_CUTOFFS),
            help="supertag cutoff ladder, tried in order until a strict parse appears",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccgplan", description="CCG parsing by canonical plan search")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("parse", help="parse a sentence and render its derivations")
    _add_input_flags(p)
    p.add_argument("--goal", choices=["strict", "best-effort", "auto"], default="auto")
    p.add_argument("--format", choices=["ascii", "json", "dot"], default="ascii")
    p.add_argument("--out", help="directory for one document per parse (default: stdout)")
    p.add_argument("--engine", choices=["plan", "oracle"], default="plan")
    p.set_defaults(func=cmd_parse)

    c = commands.add_parser("check", help="validate lexicon and rule-config files")
    c.add_argument("--lexicon")
    c.add_argument("--rules")
    c.set_defaults(func=cmd_check)

    d = commands.add_parser("compare", help="diff plan-engine and oracle results")
    _add_input_flags(d)
    d.add_argument("--goal", choices=["strict", "best-effort"], default="strict")
    d.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, LexiconError, SupertagError, CategoryError, RuleConfigError, ChartLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
