"""Command-line front end: parse, check, and compare subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import time
from pathlib import Path

from .engine import ParseGoal, parse_all
from .lexicon import (
    DEFAULT_CUTOFFS,
    LexiconError,
    TaggedSentence,
    ingest_supertags,
    load_lexicon,
    parse_lexicon_line,
    tag_with_lexicon,
)
from .oracle import chart_parse_all
from .render import to_ascii, to_dot, to_json
from .rules import RuleConfig, RuleConfigError, load_rule_config

# each output format and the extension of its documents under ``--out``
_EXT = {"ascii": "txt", "json": "json", "dot": "dot"}
_DOCUMENT_NAME = re.compile(r"parse_\d{4,}\.(" + "|".join(_EXT.values()) + ")")


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
            cfg = load_rule_config(_read_text(args.rules, "rule config"))
        except RuleConfigError as exc:
            raise CliError(f"{args.rules}: {exc}") from exc
    overrides = {}
    if args.normalize is not None:
        overrides["normalize"] = args.normalize == "on"
    if args.max_steps is not None:
        overrides["max_steps"] = args.max_steps
    return dataclasses.replace(cfg, **overrides)


def _parse_cutoffs(text: str) -> tuple[float, ...]:
    try:
        cutoffs = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad cutoff list {text!r}") from exc
    if not cutoffs or any(not 0.0 < c <= 1.0 for c in cutoffs):
        raise CliError("cutoffs must lie in (0, 1]")
    # a larger cutoff keeps a subset of a smaller one's candidates, so a
    # rung that does not widen the last can find no new strict parse
    if any(a <= b for a, b in zip(cutoffs, cutoffs[1:])):
        raise CliError("cutoffs must strictly decrease")
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
    if args.supertags and args.words is not None:
        raise CliError("--words needs --lexicon")


def _sentences(args):
    """The supertag cutoff ladder and a reader from a cutoff to the tagged
    sentence; lexicon input has the single cutoff None, though its
    ``--cutoffs`` must still be a valid list."""
    cutoffs = _parse_cutoffs(args.cutoffs)
    if args.lexicon:
        return (None,), lambda _cutoff: _tagged_from_lexicon(args)
    source = _read_text(args.supertags, "supertag file")
    return cutoffs, lambda cutoff: ingest_supertags(source, cutoff)


def _strict_rung(cutoffs, read, search):
    """Widen the candidate sets rung by rung until one of the strict
    searches finds a parse: that rung's cutoff, sentence and ``search``
    results, or the last rung's if no rung has a parse."""
    for cutoff in cutoffs:
        ts = read(cutoff)
        results = search(ts)
        if any(results):
            break
    return cutoff, ts, results


def _render_documents(parses, fmt: str) -> list[str]:
    """Each parse's document, in the order of their JSON documents."""
    keyed = sorted(((_sort_key(entry), entry) for entry in parses), key=lambda pair: pair[0])
    if fmt == "json":
        return [key for key, _ in keyed]
    render = to_ascii if fmt == "ascii" else to_dot
    return [render(entry) for _, entry in keyed]


def _sort_key(entry) -> str:
    """A tree's or a forest's JSON document: the order the CLI prints in."""
    return to_json(entry)


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
    cutoffs, read = _sentences(args)
    if args.goal == "best-effort":
        cutoff, ts = cutoffs[-1], read(cutoffs[-1])
    else:
        cutoff, ts, (trees,) = _strict_rung(
            cutoffs, read, lambda ts: (parse_all(ts, cfg, ParseGoal.strict()),)
        )
        if trees or args.goal == "strict":
            return _finish(args, started, cutoff, "strict", 1 if trees else len(ts.tokens), trees)
    residue, forests = parse_all(ts, cfg, ParseGoal.best_effort())
    return _finish(args, started, cutoff, "best-effort", residue, forests)


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
    cfg = _build_config(args)
    cutoffs, read = _sentences(args)
    goal = ParseGoal.strict() if args.goal == "strict" else ParseGoal.best_effort()

    def both(ts: TaggedSentence):
        # wide enough for any tree the oracle can build
        wide = cfg if cfg.max_steps is not None else dataclasses.replace(cfg, max_steps=2 * len(ts.tokens) + 1)
        # the oracle first: its length guard fails at once, the plan search may take minutes
        return chart_parse_all(ts, wide, goal), parse_all(ts, wide, goal)

    # on the rung ``parse`` answers on
    if args.goal == "strict":
        _, _, (chart_side, plan_side) = _strict_rung(cutoffs, read, both)
    else:
        (chart_residue, chart_side), (plan_residue, plan_side) = both(read(cutoffs[-1]))
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
        help="supertag cutoff ladder, strictly decreasing, tried in order until a strict parse appears",
    )


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``CliError``, so it exits 1 like any other
    and never 2, the code of a best-effort answer; subcommands inherit it."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ccgplan", description="CCG parsing by canonical plan search")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("parse", help="parse a sentence and render its derivations")
    _add_input_flags(p)
    p.add_argument("--goal", choices=["strict", "best-effort", "auto"], default="auto")
    p.add_argument("--format", choices=list(_EXT), default="ascii")
    p.add_argument("--out", help="directory for one document per parse (default: stdout)")
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


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        code = args.func(args)
        # a closed stdout must fail here, not in the interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send what is still buffered
        # to devnull, so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
