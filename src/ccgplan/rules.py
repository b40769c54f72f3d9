"""Combinator kinds, rule configuration, parse goals, and rule-instance computation.

Binary schemas (l r => output):
    >    A/B  B      => A
    <    B    A\\B    => A
    >B   A/B  B/C    => A/C
    <B   B\\C  A\\B    => A\\C
    <Bx  B/C  A\\B    => A/C
    <Sx  B/C  (A\\B)/C => A/C

Unary schemas (raising to a target B):
    >T   A => B/(B\\A)
    <T   A => B\\(B/A)

Ternary schema:
    &    X conj X => X
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal, NamedTuple

from .categories import Atom, Category, CategoryError, Functor, bwd, fwd, parse_category, print_category


class CombinatorKind(Enum):
    """A combinator: its JSON name (the value), rule symbol, arity, and
    whether it runs by default."""

    FWD_APPL = "FwdAppl", ">", 2, True
    BWD_APPL = "BwdAppl", "<", 2, True
    FWD_COMP = "FwdComp", ">B", 2, True
    BWD_COMP = "BwdComp", "<B", 2, True
    FWD_RAISE = "FwdRaise", ">T", 1, True
    BWD_RAISE = "BwdRaise", "<T", 1, True
    BWD_XCOMP = "BwdXComp", "<Bx", 2, False
    BWD_XSUBST = "BwdXSubst", "<Sx", 2, False
    COORD = "Coord", "&", 3, False

    def __new__(cls, value: str, symbol: str, arity: int, on_by_default: bool):
        member = object.__new__(cls)
        member._value_ = value
        member.symbol = symbol
        member.arity = arity
        member.on_by_default = on_by_default
        return member

    # identity hashing, in C: ``Enum.__hash__`` is Python code, and trees
    # hash their combinators each time they enter a set
    __hash__ = object.__hash__


RAISE_KINDS = frozenset(k for k in CombinatorKind if k.arity == 1)
_BINARY_KINDS = tuple(k for k in CombinatorKind if k.arity == 2)
DEFAULT_RULES = frozenset(k for k in CombinatorKind if k.on_by_default)

DEFAULT_RAISE_TARGETS = (
    parse_category("S"),
    parse_category(r"S\NP"),
    parse_category(r"(S\NP)/NP"),
)

_NP = Atom("NP")
_CONJ = Atom("conj")


class RuleConfigError(ValueError):
    """Raised for a malformed rule-configuration file."""


@dataclass(frozen=True)
class RuleConfig:
    """Which combinators run, raise targets, normalization, plan bound.

    ``max_steps`` of None means "derive from the sentence": length + 2.
    """

    enabled: frozenset[CombinatorKind] = DEFAULT_RULES
    raise_targets: tuple[Category, ...] = DEFAULT_RAISE_TARGETS
    normalize: bool = True
    max_steps: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "enabled", frozenset(self.enabled))
        if not all(isinstance(k, CombinatorKind) for k in self.enabled):
            raise ValueError("enabled must hold only CombinatorKind members")
        if not all(isinstance(t, (Atom, Functor)) for t in self.raise_targets):
            raise ValueError("raise_targets must hold only categories")
        targets = []
        for t in self.raise_targets:
            if t not in targets:
                targets.append(t)
        targets.sort(key=print_category)
        object.__setattr__(self, "raise_targets", tuple(targets))
        if not self.enabled:
            raise ValueError("at least one combinator must be enabled")
        if self.enabled & RAISE_KINDS and not self.raise_targets:
            raise ValueError("raise_targets must be non-empty when a raise rule is enabled")
        if self.max_steps is not None:
            if type(self.max_steps) is not int:
                raise ValueError(f"max_steps must be an int, got {self.max_steps!r}")
            if self.max_steps < 1:
                raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class ParseGoal:
    """Strict: reduce to a single ``target`` category. Best-effort, a
    ``target`` of None: reach the fewest residual categories, then
    enumerate all optima."""

    target: Category | None

    def __post_init__(self):
        if self.target is not None and not isinstance(self.target, (Atom, Functor)):
            raise ValueError(f"a goal's target must be a category or None, got {self.target!r}")

    @property
    def mode(self) -> Literal["strict", "best-effort"]:
        return "best-effort" if self.target is None else "strict"

    @classmethod
    def strict(cls, target: Category = Atom("S")) -> "ParseGoal":
        if target is None:
            raise ValueError("a strict goal needs a target category")
        return cls(target)

    @classmethod
    def best_effort(cls) -> "ParseGoal":
        return cls(None)


class RuleInstance(NamedTuple):
    """A rule applying to the caller's inputs: its combinator and output."""

    kind: CombinatorKind
    output: Category


def unary_instances(c: Category, cfg: RuleConfig) -> list[RuleInstance]:
    """Type-raising instances for one category.

    With normalization on, raising is restricted to the NP atom; with it
    off, any category may be raised (still only to the configured targets).
    """
    if cfg.normalize and c != _NP:
        return []
    out = []
    for kind in (CombinatorKind.FWD_RAISE, CombinatorKind.BWD_RAISE):
        if kind not in cfg.enabled:
            continue
        for b in cfg.raise_targets:
            out.append(RuleInstance(kind, _raise_output(kind, c, b)))
    return out


def _raise_output(kind: CombinatorKind, c: Category, target: Category) -> Category:
    """``c`` raised to ``target``: B/(B\\c) forward, B\\(B/c) backward."""
    if kind is CombinatorKind.FWD_RAISE:
        return fwd(target, bwd(target, c))
    return bwd(target, fwd(target, c))


def binary_instances(l: Category, r: Category, cfg: RuleConfig) -> list[RuleInstance]:
    """All enabled binary instances matching the pair, in the order of the kinds' rows."""
    out = []
    for kind in _BINARY_KINDS:
        if kind not in cfg.enabled:
            continue
        output = _binary_output(kind, l, r)
        if output is not None:
            out.append(RuleInstance(kind, output))
    return out


def _binary_output(kind: CombinatorKind, l: Category, r: Category) -> Category | None:
    if kind is CombinatorKind.FWD_APPL:
        if isinstance(l, Functor) and l.forward and l.arg == r:
            return l.result
    elif kind is CombinatorKind.BWD_APPL:
        if isinstance(r, Functor) and not r.forward and r.arg == l:
            return r.result
    elif kind is CombinatorKind.FWD_COMP:
        if isinstance(l, Functor) and l.forward and isinstance(r, Functor) and r.forward and l.arg == r.result:
            return fwd(l.result, r.arg)
    elif kind is CombinatorKind.BWD_COMP:
        if isinstance(l, Functor) and not l.forward and isinstance(r, Functor) and not r.forward and r.arg == l.result:
            return bwd(r.result, l.arg)
    elif kind is CombinatorKind.BWD_XCOMP:
        if isinstance(l, Functor) and l.forward and isinstance(r, Functor) and not r.forward and r.arg == l.result:
            return fwd(r.result, l.arg)
    elif kind is CombinatorKind.BWD_XSUBST:
        if (
            isinstance(l, Functor)
            and l.forward
            and isinstance(r, Functor)
            and r.forward
            and r.arg == l.arg
            and isinstance(r.result, Functor)
            and not r.result.forward
            and r.result.arg == l.result
        ):
            return fwd(r.result.result, l.arg)
    return None


def ternary_instances(l: Category, m: Category, r: Category, cfg: RuleConfig) -> list[RuleInstance]:
    """Coordination: X conj X => X, when enabled."""
    if CombinatorKind.COORD not in cfg.enabled:
        return []
    output = _coord_output(l, m, r)
    return [] if output is None else [RuleInstance(CombinatorKind.COORD, output)]


def _coord_output(l: Category, m: Category, r: Category) -> Category | None:
    return l if m == _CONJ and l == r else None


def valid_instance(kind: CombinatorKind, inputs: tuple[Category, ...], output: Category) -> bool:
    """Check an instance against its schema by re-substitution."""
    if len(inputs) != kind.arity:
        return False
    if kind in RAISE_KINDS:
        # any target: a raise is checked against the target it names
        return isinstance(output, Functor) and output == _raise_output(kind, inputs[0], output.result)
    if kind is CombinatorKind.COORD:
        return _coord_output(*inputs) == output
    return _binary_output(kind, *inputs) == output


def blocked(
    kind: CombinatorKind,
    left_producer: CombinatorKind | None,
    right_producer: CombinatorKind | None,
    cfg: RuleConfig,
) -> bool:
    """Whether a rule may not consume inputs built by these producers.

    In both modes a raise never consumes a raise; without that bound raise
    towers would never end. With normalization on, a forward application
    may not consume, on its left, something built by forward composition
    (N3: compose-then-apply rewrites to apply-apply) or, when backward
    application is enabled, by forward raising (N1: raise-then-apply
    rewrites to the plain backward application; without ``<`` that
    rewrite does not exist, and the ban would drop the reading). Forward
    composition may not consume a forward-composition result on its left
    (N2: branching normalization). Backward rules mirror these on the
    right side. The one other ban, N4 (raise only NP), limits which raises
    exist at all, so ``unary_instances`` applies it.
    """
    if kind in RAISE_KINDS:
        return left_producer in RAISE_KINDS
    if not cfg.normalize:
        return False
    if kind is CombinatorKind.FWD_APPL:
        if left_producer is CombinatorKind.FWD_RAISE:
            return CombinatorKind.BWD_APPL in cfg.enabled
        return left_producer is CombinatorKind.FWD_COMP
    if kind is CombinatorKind.BWD_APPL:
        if right_producer is CombinatorKind.BWD_RAISE:
            return CombinatorKind.FWD_APPL in cfg.enabled
        return right_producer is CombinatorKind.BWD_COMP
    if kind is CombinatorKind.FWD_COMP:
        return left_producer is CombinatorKind.FWD_COMP
    if kind is CombinatorKind.BWD_COMP:
        return right_producer is CombinatorKind.BWD_COMP
    return False


def kind_from_name(name: str) -> CombinatorKind:
    """Resolve a rule name: symbol (``>B``), value (``FwdComp``), or member name."""
    text = name.strip()
    for kind in CombinatorKind:
        if text == kind.symbol or text.lower() in (kind.value.lower(), kind.name.lower()):
            return kind
    raise RuleConfigError(f"unknown rule name {text!r}")


def load_rule_config(text: str) -> RuleConfig:
    """Parse a ``key = value`` configuration; a missing key keeps its default.

    Keys: rules (comma list of kind names), raise_targets (comma list of
    category expressions), normalize (on/off), max_steps (integer). A key
    may appear at most once.
    """
    fields: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RuleConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in seen:
                raise RuleConfigError(f"repeated key {key!r}")
            seen.add(key)
            if key == "rules":
                fields["enabled"] = frozenset(kind_from_name(n) for n in value.split(","))
            elif key == "raise_targets":
                fields["raise_targets"] = tuple(parse_category(n.strip()) for n in value.split(","))
            elif key == "normalize":
                if value not in ("on", "off"):
                    raise RuleConfigError("normalize must be 'on' or 'off'")
                fields["normalize"] = value == "on"
            elif key == "max_steps":
                fields["max_steps"] = int(value)
            else:
                raise RuleConfigError(f"unknown key {key!r}")
        except (RuleConfigError, CategoryError, ValueError) as exc:
            raise RuleConfigError(f"line {lineno}: {exc}") from exc
    try:
        return RuleConfig(**fields)
    except ValueError as exc:
        raise RuleConfigError(str(exc)) from exc
