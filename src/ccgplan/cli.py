"""Command-line front end: parse, check, and compare subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import re
import sys
import time
from pathlib import Path

from .engine import ParseGoal, parse_all
from .lexicon import (
    LexiconError,
    TaggedSentence,
    ingest_supertags,
    load_lexicon,
    parse_lexicon_line,
    prune,
    tag_with_lexicon,
)
from .oracle import chart_parse_all
from .render import to_ascii, to_dot, to_json
from .rules import RuleConfig, RuleConfigError, load_rule_config

# each output format and the extension of its documents under ``--out``
_EXT = {"ascii": "txt", "json": "json", "dot": "dot"}
_DOCUMENT_NAME = re.compile(r"parse_\d{4,}\.(" + "|".join(_EXT.values()) + ")")

# the default supertag cutoff ladder, tried rung by rung until a strict parse appears
DEFAULT_CUTOFFS = (0.075, 0.03, 0.01)


class CliError(Exception):
    """User-facing failure; the CLI exits 1 with the message."""


def _read_text(path: str, what: str) -> str:
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # become part of the first word or key
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
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


def _check_input(args) -> None:
    if bool(args.supertags) == bool(args.lexicon):
        raise CliError("give exactly one input: --lexicon with --words, or --supertags")
    if args.lexicon and args.words is None:
        raise CliError("--lexicon needs --words")
    if args.supertags and args.words is not None:
        raise CliError("--words needs --lexicon")


def _rungs(args) -> list[tuple[float | None, TaggedSentence]]:
    """The cutoff ladder as (cutoff, sentence) rungs, widest last, each pruned
    from one read of every candidate; lexicon input is the one rung of cutoff
    None, though its ``--cutoffs`` must still be a valid list."""
    cutoffs = _parse_cutoffs(args.cutoffs)
    if args.lexicon:
        lex = load_lexicon(_read_text(args.lexicon, "lexicon"))
        words = args.words.split()
        if not words:
            raise CliError("no tokens in --words")
        return [(None, tag_with_lexicon(words, lex))]
    every = ingest_supertags(_read_text(args.supertags, "supertag file"))
    return [(cutoff, prune(every, cutoff)) for cutoff in cutoffs]


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


def _answer(rungs, cfg: RuleConfig, goal: str, engine):
    """``engine``'s answer on the cutoff ladder, as (cutoff, mode, residue,
    entries): the first rung with a strict parse; under ``goal`` strict, the
    last rung's miss; else best-effort on the widest rung."""
    if goal != "best-effort":
        # widen the candidate sets rung by rung until a strict parse appears
        for cutoff, ts in rungs:
            trees = engine(ts, cfg, ParseGoal.strict())
            if trees:
                break
        if trees or goal == "strict":
            return cutoff, "strict", 1 if trees else len(ts.tokens), trees
    cutoff, ts = rungs[-1]
    return cutoff, "best-effort", *engine(ts, cfg, ParseGoal.best_effort())


def cmd_parse(args) -> int:
    started = time.perf_counter()
    _check_input(args)
    cfg = _build_config(args)
    rungs = _rungs(args)
    return _finish(args, started, *_answer(rungs, cfg, args.goal, parse_all))


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
    rungs = _rungs(args)
    if cfg.max_steps is None:
        # wide enough for any tree the oracle builds; every rung has the same words
        cfg = dataclasses.replace(cfg, max_steps=2 * len(rungs[0][1].tokens) + 1)
    # the oracle first: its length guard fails at once, the plan search may take minutes
    chart_cutoff, _, chart_residue, chart_side = _answer(rungs, cfg, args.goal, chart_parse_all)
    plan_cutoff, _, plan_residue, plan_side = _answer(rungs, cfg, args.goal, parse_all)
    if plan_side != chart_side:
        print(f"engines disagree: plan={len(plan_side)} oracle={len(chart_side)}")
        for side, only in (("plan engine", plan_side - chart_side), ("oracle", chart_side - plan_side)):
            for doc in _render_documents(only, "ascii"):
                print(f"only {side}:\n{doc}")
        return 1
    for what, plan, chart in (("cutoff", plan_cutoff, chart_cutoff), ("residue", plan_residue, chart_residue)):
        if plan != chart:
            print(f"{what} differs: plan={plan} oracle={chart}")
            return 1
    print(f"engines agree: {len(plan_side)} parses")
    return 0


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
    # A command creates no reference cycles, so reference counting frees all
    # it allocates, and a pass of the cyclic collector would only walk the
    # search's memo and the answer trees. The collector is paused for the
    # command, and restored as it was on any exit.
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
