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
from operator import attrgetter, itemgetter
from typing import Literal, NamedTuple, Sequence

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

    def __repr__(self) -> str:
        # ``enabled`` in row order: kinds hash by identity, so a frozenset
        # of them iterates in an order that changes from process to process
        enabled = ", ".join([repr(k) for k in CombinatorKind if k in self.enabled])
        return (
            f"RuleConfig(enabled=frozenset({{{enabled}}}), raise_targets={self.raise_targets!r}, "
            f"normalize={self.normalize!r}, max_steps={self.max_steps!r})"
        )


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


def _slash(c: Category) -> bool | None:
    """True for a forward functor, False for a backward one, None for an atom."""
    return c.forward if c.__class__ is Functor else None


def _self(c: Category) -> Category:
    return c


_arg = attrgetter("arg")
_result = attrgetter("result")

# The one statement in code of each binary schema in the module docstring:
# the slash its (left, right) inputs need, as ``_slash`` gives it (None: any
# category); the part of each input that must be the same category as the
# other's part, by identity, since categories are interned; and its output
# from inputs whose slashes and key parts match, or None if a further
# condition fails. ``binary_instances`` checks one pair against the rows;
# ``joined_instances`` joins lists of variants on the key parts.
_BINARY_SCHEMAS = {
    CombinatorKind.FWD_APPL: (True, None, _arg, _self, lambda l, r: l.result),
    CombinatorKind.BWD_APPL: (None, False, _self, _arg, lambda l, r: r.result),
    CombinatorKind.FWD_COMP: (True, True, _arg, _result, lambda l, r: fwd(l.result, r.arg)),
    CombinatorKind.BWD_COMP: (False, False, _result, _arg, lambda l, r: bwd(r.result, l.arg)),
    CombinatorKind.BWD_XCOMP: (True, False, _result, _arg, lambda l, r: fwd(r.result, l.arg)),
    CombinatorKind.BWD_XSUBST: (
        True,
        True,
        _arg,
        _arg,
        lambda l, r: (
            fwd(r.result.result, l.arg) if _slash(r.result) is False and r.result.arg is l.result else None
        ),
    ),
}

# (kind, left key, right key, output) of the binary kinds whose slashes fit,
# by the (left, right) inputs' ``_slash``, in row order
_BINARY_BY_SLASHES = {
    (ls, rs): tuple(
        (kind, lkey, rkey, output)
        for kind in CombinatorKind
        if kind.arity == 2
        for left, right, lkey, rkey, output in [_BINARY_SCHEMAS[kind]]
        if left in (None, ls) and right in (None, rs)
    )
    for ls in (True, False, None)
    for rs in (True, False, None)
}


def binary_instances(l: Category, r: Category, cfg: RuleConfig) -> list[RuleInstance]:
    """All enabled binary instances matching the pair, in the order of the kinds' rows."""
    out = []
    for kind, lkey, rkey, output in _BINARY_BY_SLASHES[_slash(l), _slash(r)]:
        if kind in cfg.enabled and lkey(l) is rkey(r):
            c = output(l, r)
            if c is not None:
                out.append(RuleInstance(kind, c))
    return out


def _binary_output(kind: CombinatorKind, l: Category, r: Category) -> Category | None:
    for k, lkey, rkey, output in _BINARY_BY_SLASHES[_slash(l), _slash(r)]:
        if k is kind:
            return output(l, r) if lkey(l) is rkey(r) else None
    return None


def joined_instances(
    variants: Sequence[Sequence[Category]], cfg: RuleConfig
) -> list[tuple[tuple[int, ...], CombinatorKind, Category]]:
    """Every enabled instance over one variant of each input, for two
    inputs, or three under coordination, as (variant index per input,
    combinator, output category): what ``binary_instances`` or
    ``ternary_instances`` returns for each combination of variants, in the
    order of ``itertools.product`` over the variant lists and then of the
    kinds' rows.

    Each schema is one hash join: the right variants whose slash fits are
    indexed by the schema's key part, and each left variant whose slash
    fits looks its own key part up, so combinations whose parts differ are
    never tried."""
    if len(variants) == 3:
        return _coord_join(*variants, cfg)
    left, right = variants
    left_slashes = [_slash(c) for c in left]
    right_slashes = [_slash(c) for c in right]
    found = []
    for kind in CombinatorKind:
        if kind.arity != 2 or kind not in cfg.enabled:
            continue
        ls, rs, lkey, rkey, output = _BINARY_SCHEMAS[kind]
        index: dict[Category, list[int]] = {}
        for j, c in enumerate(right):
            if rs is None or right_slashes[j] == rs:
                index.setdefault(rkey(c), []).append(j)
        if not index:
            continue
        for i, c in enumerate(left):
            if ls is None or left_slashes[i] == ls:
                for j in index.get(lkey(c), ()):
                    out = output(c, right[j])
                    if out is not None:
                        found.append(((i, j), kind, out))
    # a stable sort: within one combination of variants, the rows stay in order
    found.sort(key=itemgetter(0))
    return found


def _coord_join(left, middle, right, cfg: RuleConfig):
    """``joined_instances`` for X conj X => X: the middle variant is conj,
    and the left variant is the right one."""
    conj = [k for k, c in enumerate(middle) if c is _CONJ] if CombinatorKind.COORD in cfg.enabled else []
    if not conj:
        return []
    index: dict[Category, list[int]] = {}
    for j, c in enumerate(right):
        index.setdefault(c, []).append(j)
    return [
        ((i, k, j), CombinatorKind.COORD, c) for i, c in enumerate(left) for k in conj for j in index.get(c, ())
    ]


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


K = CombinatorKind

# The normal form, one row per clause: its name; the rule it restricts; the
# input it looks at (a raise's one input is its left); the producers banned
# there; whether it holds only with normalization on; and the rule that must
# be enabled for it to hold, or None. N1's raise-then-apply rewrites to the
# plain application the other way, so without that rule N1 would drop the
# reading. N2x: a backward composition is never the primary functor (right
# input) of crossed composition (Eisner 1996). N4 (raise only NP) limits
# which raises exist at all, so ``unary_instances`` applies it.
_BANS = (
    ("raise bound", K.FWD_RAISE, "left", RAISE_KINDS, False, None),
    ("raise bound", K.BWD_RAISE, "left", RAISE_KINDS, False, None),
    ("N1", K.FWD_APPL, "left", frozenset({K.FWD_RAISE}), True, K.BWD_APPL),
    ("N1", K.BWD_APPL, "right", frozenset({K.BWD_RAISE}), True, K.FWD_APPL),
    ("N2", K.FWD_COMP, "left", frozenset({K.FWD_COMP}), True, None),
    ("N2", K.BWD_COMP, "right", frozenset({K.BWD_COMP}), True, None),
    ("N2x", K.BWD_XCOMP, "right", frozenset({K.BWD_COMP}), True, None),
    ("N3", K.FWD_APPL, "left", frozenset({K.FWD_COMP}), True, None),
    ("N3", K.BWD_APPL, "right", frozenset({K.BWD_COMP}), True, None),
)
_BANS_BY_KIND = {kind: tuple(row for row in _BANS if row[1] is kind) for kind in CombinatorKind}


def blocked(
    kind: CombinatorKind,
    left_producer: CombinatorKind | None,
    right_producer: CombinatorKind | None,
    cfg: RuleConfig,
) -> bool:
    """Whether a rule may not consume inputs built by these producers: some
    row of ``_BANS`` for the rule bans the producer of the input it looks at."""
    for _, _, side, producers, normalize_only, needs in _BANS_BY_KIND[kind]:
        producer = left_producer if side == "left" else right_producer
        if producer in producers and (cfg.normalize or not normalize_only) and (needs is None or needs in cfg.enabled):
            return True
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
