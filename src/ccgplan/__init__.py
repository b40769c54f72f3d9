"""CCG parsing as canonical plan search.

A sentence's categories are reduced by combinator instances on adjacent
constituents. ``parse_all`` is the one parse call. Under a strict goal it
finds, over each candidate combination, every derivation whose canonical
concurrent plan reaches the target within the step bound, with normal-form
bans removing spurious duplicates; under best-effort it builds one chart
over every candidate. ``canonical_plan`` rebuilds a tree's plan. A chart
parser cross-checks the search, and derivations render as text, JSON, or DOT.
"""

from types import ModuleType as _ModuleType

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
    Action,
    ParseGoal,
    Plan,
    canonical_plan,
    effective_max_steps,
    parse_all,
)
from .lexicon import (
    Candidate,
    LexiconError,
    SupertagError,
    TaggedSentence,
    Token,
    ingest_supertags,
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

# every public name imported above, so each export is listed once
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
