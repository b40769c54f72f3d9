"""Command-line front end: parse, check, and compare subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
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

DEFAULT_CUTOFFS = (0.075, 0.03, 0.01)

_EXT = {"ascii": "txt", "json": "json", "dot": "dot"}
_DOCUMENT_NAME = re.compile(r"parse_\d{4,}\.(txt|json|dot)")


class CliError(Exception):
    """User-facing failure; the CLI exits 1 with the message."""


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc


def _build_config(args) -> RuleConfig:
    cfg = RuleConfig()
    if args.rules:
        try:
            cfg = load_rule_config(_read_text(args.rules, "rule config"), cfg)
        except RuleConfigError as exc:
            raise CliError(f"{args.rules}: {exc}") from exc
    overrides = {}
    if args.normalize is not None:
        overrides["normalize"] = args.normalize == "on"
    if args.max_steps is not None:
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


def _check_input(args) -> None:
    if bool(args.supertags) == bool(args.lexicon):
        raise CliError("give exactly one input: --lexicon with --words, or --supertags")
    if args.lexicon and args.words is None:
        raise CliError("--lexicon needs --words")


def _sentences(args):
    """The supertag cutoff ladder and a reader from a cutoff to the tagged
    sentence; lexicon input has the single cutoff None."""
    if args.lexicon:
        return (None,), lambda _cutoff: _tagged_from_lexicon(args)
    source = _read_text(args.supertags, "supertag file")
    return _parse_cutoffs(args.cutoffs), lambda cutoff: ingest_supertags(source, cutoff)


def _search(ts: TaggedSentence, cfg: RuleConfig, engine: str, goal: ParseGoal):
    return (chart_parse_all if engine == "oracle" else parse_all)(ts, cfg, goal)


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


def _emit(docs: list[str], fmt: str, out_dir: str | None) -> list[str]:
    if out_dir is None:
        for k, doc in enumerate(docs, start=1):
            print(f"# parse {k} of {len(docs)}")
            print(doc)
            print()
        return []
    out = Path(out_dir)
    paths = [out / f"parse_{k:04d}.{_EXT[fmt]}" for k in range(1, len(docs) + 1)]
    try:
        # a directory keeps no document of an earlier run, only other files
        if out.is_dir():
            for old in out.iterdir():
                if _DOCUMENT_NAME.fullmatch(old.name):
                    old.unlink()
        if docs:
            out.mkdir(parents=True, exist_ok=True)
        for path, doc in zip(paths, docs):
            path.write_text(doc + "\n", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write parses to {out_dir!r}: {exc}") from exc
    return [str(path) for path in paths]


def _finish(args, started: float, cutoff: float | None, mode: str, residue: int, parses) -> int:
    """Emit the parses, then the summary line and the paths written; the exit code."""
    docs = _render_documents(parses, args.format)
    if not docs:
        print("no strict parse")
    paths = _emit(docs, args.format, args.out)
    summary = f"mode={mode} residue={residue} parses={len(docs)} wall={time.perf_counter() - started:.3f}s"
    print(summary if cutoff is None else f"{summary} cutoff={cutoff:g}")
    for path in paths:
        print(path)
    return 0 if mode == "strict" and docs else 2


def cmd_parse(args) -> int:
    started = time.perf_counter()
    _check_input(args)
    cfg = _build_config(args)
    if args.engine == "oracle" and cfg.max_steps is not None:
        raise CliError("the oracle has no plan-length bound: drop --max-steps and the max_steps key")
    cutoffs, read = _sentences(args)
    if args.goal == "best-effort":
        ts = read(cutoffs[-1])
    else:
        # widen the candidate sets rung by rung until a strict parse appears
        for cutoff in cutoffs:
            ts = read(cutoff)
            trees = _search(ts, cfg, args.engine, ParseGoal.strict())
            if trees:
                return _finish(args, started, cutoff, "strict", 1, trees)
        if args.goal == "strict":
            return _finish(args, started, cutoff, "strict", len(ts.tokens), ())
    residue, forests = _search(ts, cfg, args.engine, ParseGoal.best_effort())
    return _finish(args, started, cutoffs[-1], "best-effort", residue, forests)


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
    _check_input(args)
    cutoffs, read = _sentences(args)
    ts = read(cutoffs[0])
    cfg = _build_config(args)
    if cfg.max_steps is None:
        # wide enough for any tree the oracle can build
        cfg = dataclasses.replace(cfg, max_steps=2 * len(ts.tokens) + 1)
    goal = ParseGoal.strict() if args.goal == "strict" else ParseGoal.best_effort()
    # the oracle first: its length guard fails at once, the plan search may take minutes
    chart_side = _search(ts, cfg, "oracle", goal)
    plan_side = _search(ts, cfg, "plan", goal)
    if args.goal == "best-effort":
        (chart_residue, chart_side), (plan_residue, plan_side) = chart_side, plan_side
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


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lexicon", help="lexicon file (word<TAB>category per line)")
    sub.add_argument("--words", help="pre-tokenized sentence, space separated")
    sub.add_argument("--supertags", help="supertagger output file (one sentence)")
    sub.add_argument("--rules", help="rule configuration file")
    sub.add_argument("--max-steps", type=int, dest="max_steps", help="plan length bound (default: length + 2)")
    sub.add_argument("--normalize", choices=["on", "off"], help="normal-form filtering (default on)")
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
