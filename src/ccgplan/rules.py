"""Combinator kinds, rule configuration, and rule-instance computation.

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

from dataclasses import dataclass, replace
from enum import Enum

from .categories import Atom, Category, CategoryError, Functor, bwd, fwd, parse_category, print_category


class CombinatorKind(Enum):
    FWD_APPL = "FwdAppl"
    BWD_APPL = "BwdAppl"
    FWD_COMP = "FwdComp"
    BWD_COMP = "BwdComp"
    FWD_RAISE = "FwdRaise"
    BWD_RAISE = "BwdRaise"
    BWD_XCOMP = "BwdXComp"
    BWD_XSUBST = "BwdXSubst"
    COORD = "Coord"

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]

    @property
    def arity(self) -> int:
        if self in RAISE_KINDS:
            return 1
        if self is CombinatorKind.COORD:
            return 3
        return 2


_SYMBOLS = {
    CombinatorKind.FWD_APPL: ">",
    CombinatorKind.BWD_APPL: "<",
    CombinatorKind.FWD_COMP: ">B",
    CombinatorKind.BWD_COMP: "<B",
    CombinatorKind.FWD_RAISE: ">T",
    CombinatorKind.BWD_RAISE: "<T",
    CombinatorKind.BWD_XCOMP: "<Bx",
    CombinatorKind.BWD_XSUBST: "<Sx",
    CombinatorKind.COORD: "&",
}

RAISE_KINDS = frozenset({CombinatorKind.FWD_RAISE, CombinatorKind.BWD_RAISE})

DEFAULT_RULES = frozenset(
    {
        CombinatorKind.FWD_APPL,
        CombinatorKind.BWD_APPL,
        CombinatorKind.FWD_COMP,
        CombinatorKind.BWD_COMP,
        CombinatorKind.FWD_RAISE,
        CombinatorKind.BWD_RAISE,
    }
)

DEFAULT_RAISE_TARGETS = (
    parse_category("S"),
    parse_category(r"S\NP"),
    parse_category(r"(S\NP)/NP"),
)

_NP = Atom("NP")


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
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class RuleInstance:
    kind: CombinatorKind
    inputs: tuple[Category, ...]
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
            if kind is CombinatorKind.FWD_RAISE:
                out.append(RuleInstance(kind, (c,), fwd(b, bwd(b, c))))
            else:
                out.append(RuleInstance(kind, (c,), bwd(b, fwd(b, c))))
    return out


def binary_instances(l: Category, r: Category, cfg: RuleConfig) -> list[RuleInstance]:
    """All enabled binary instances matching the pair, in fixed kind order."""
    out = []
    for kind in (
        CombinatorKind.FWD_APPL,
        CombinatorKind.BWD_APPL,
        CombinatorKind.FWD_COMP,
        CombinatorKind.BWD_COMP,
        CombinatorKind.BWD_XCOMP,
        CombinatorKind.BWD_XSUBST,
    ):
        if kind not in cfg.enabled:
            continue
        output = _binary_output(kind, l, r)
        if output is not None:
            out.append(RuleInstance(kind, (l, r), output))
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
    if CombinatorKind.COORD in cfg.enabled and m == Atom("conj") and l == r:
        return [RuleInstance(CombinatorKind.COORD, (l, m, r), l)]
    return []


def valid_instance(kind: CombinatorKind, inputs: tuple[Category, ...], output: Category) -> bool:
    """Check an instance against its schema by re-substitution."""
    if len(inputs) != kind.arity:
        return False
    if kind in RAISE_KINDS:
        (c,) = inputs
        if not isinstance(output, Functor) or not isinstance(output.arg, Functor):
            return False
        if kind is CombinatorKind.FWD_RAISE:
            return (
                output.forward
                and not output.arg.forward
                and output.arg.result == output.result
                and output.arg.arg == c
            )
        return (
            not output.forward
            and output.arg.forward
            and output.arg.result == output.result
            and output.arg.arg == c
        )
    if kind is CombinatorKind.COORD:
        l, m, r = inputs
        return m == Atom("conj") and l == r and output == l
    return _binary_output(kind, *inputs) == output


def normal_form_blocked(
    kind: CombinatorKind,
    left_producer: CombinatorKind | None,
    right_producer: CombinatorKind | None,
) -> bool:
    """Normal-form restriction on which producer may feed which rule.

    A forward application may not consume, on its left, something built by
    forward raising (raise-then-apply rewrites to the plain application) or
    by forward composition (compose-then-apply rewrites to apply-apply);
    forward composition may not consume a forward-composition result on its
    left (branching normalization). Backward rules mirror these on the
    right side. Callers gate this on their normalize switch.
    """
    if kind is CombinatorKind.FWD_APPL:
        return left_producer in (CombinatorKind.FWD_RAISE, CombinatorKind.FWD_COMP)
    if kind is CombinatorKind.BWD_APPL:
        return right_producer in (CombinatorKind.BWD_RAISE, CombinatorKind.BWD_COMP)
    if kind is CombinatorKind.FWD_COMP:
        return left_producer is CombinatorKind.FWD_COMP
    if kind is CombinatorKind.BWD_COMP:
        return right_producer is CombinatorKind.BWD_COMP
    return False


def kind_from_name(name: str) -> CombinatorKind:
    """Resolve a rule name: symbol (``>B``), value (``FwdComp``), or member name."""
    text = name.strip()
    for kind, sym in _SYMBOLS.items():
        if text == sym:
            return kind
    for kind in CombinatorKind:
        if text.lower() in (kind.value.lower(), kind.name.lower()):
            return kind
    raise RuleConfigError(f"unknown rule name {name.strip()!r}")


def load_rule_config(text: str, base: RuleConfig | None = None) -> RuleConfig:
    """Parse a ``key = value`` configuration, overriding ``base`` (defaults).

    Keys: rules (comma list of kind names), raise_targets (comma list of
    category expressions), normalize (on/off), max_steps (integer).
    """
    base = base or RuleConfig()
    fields: dict[str, object] = {}
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
        return replace(base, **fields)
    except ValueError as exc:
        raise RuleConfigError(str(exc)) from exc
