"""CCG parsing as canonical plan search.

Sentences become sequences of position-annotated categories; combinator
instances act on adjacent positions; enumeration finds every derivation
denoted by a canonical concurrent plan, with declarative normal-form bans
removing spurious duplicates. A brute-force chart parser cross-checks the
engine, and derivations render as text, JSON, or DOT.
"""

from .asr import Action, AnnotatedCategory, Asr, Plan, step
from .categories import (
    Atom,
    Category,
    CategoryError,
    Functor,
    bwd,
    fwd,
    parse_category,
    print_category,
)
from .engine import (
    ParseGoal,
    applicable_actions,
    banned,
    best_effort,
    canonical_plan,
    effective_max_steps,
    enumerate_parses,
    parse_all,
    replay_plan,
)
from .lexicon import (
    Candidate,
    LexiconError,
    SupertagError,
    TaggedSentence,
    Token,
    ingest_supertags,
    initial_asrs,
    load_lexicon,
    tag_with_lexicon,
)
from .oracle import ChartLimitError, chart_parse_all
from .render import to_ascii, to_dot, to_json, tree_from_json
from .rules import (
    CombinatorKind,
    RuleConfig,
    RuleConfigError,
    RuleInstance,
    binary_instances,
    kind_from_name,
    load_rule_config,
    ternary_instances,
    unary_instances,
)
from .trees import DerivationTree, Leaf, Node, attach_words, check_tree, leaves

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AnnotatedCategory",
    "Asr",
    "Atom",
    "Candidate",
    "Category",
    "CategoryError",
    "ChartLimitError",
    "CombinatorKind",
    "DerivationTree",
    "Functor",
    "Leaf",
    "LexiconError",
    "Node",
    "ParseGoal",
    "Plan",
    "RuleConfig",
    "RuleConfigError",
    "RuleInstance",
    "SupertagError",
    "TaggedSentence",
    "Token",
    "applicable_actions",
    "attach_words",
    "banned",
    "best_effort",
    "binary_instances",
    "bwd",
    "canonical_plan",
    "chart_parse_all",
    "check_tree",
    "effective_max_steps",
    "enumerate_parses",
    "fwd",
    "ingest_supertags",
    "initial_asrs",
    "kind_from_name",
    "leaves",
    "load_lexicon",
    "load_rule_config",
    "parse_all",
    "parse_category",
    "print_category",
    "replay_plan",
    "step",
    "tag_with_lexicon",
    "ternary_instances",
    "to_ascii",
    "to_dot",
    "to_json",
    "tree_from_json",
    "unary_instances",
]
