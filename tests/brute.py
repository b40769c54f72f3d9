"""Brute-force search over canonical concurrent plans.

Transcribes the concurrent-plan semantics directly: every non-empty set of
pairwise disjoint applicable actions is a candidate step; a consumed
position must be untouched initial material or have been produced by the
previous step; an action after step 0 must consume something produced at
the previous step unless all of its inputs are initial. No memoization,
no packing: this is the slow reference the engine is checked against.
"""

from ccgplan import (
    Action,
    Leaf,
    Node,
    ParseGoal,
    Plan,
    RuleConfig,
    effective_max_steps,
)
from planning import Asr, applicable_actions, step


def _disjoint_subsets(actions):
    subsets = []

    def extend(index, chosen, used):
        if index == len(actions):
            if chosen:
                subsets.append(tuple(chosen))
            return
        extend(index + 1, chosen, used)
        action = actions[index]
        positions = set(action.positions)
        if not positions & used:
            chosen.append(action)
            extend(index + 1, chosen, used | positions)
            chosen.pop()

    extend(0, [], set())
    return subsets


def _admissible(action: Action, state: Asr) -> bool:
    stamps = [state.last_affected.get(p, 0) for p in action.positions]
    if any(0 < t < state.time for t in stamps):
        return False  # produced earlier and not consumed immediately: dead
    if state.time >= 1 and all(t == 0 for t in stamps):
        return True  # works entirely on initial material
    return state.time == 0 or any(t == state.time for t in stamps)


def _build_node(action: Action, trees):
    return Node(action.kind, action.output, tuple(trees[p] for p in action.positions))


def concurrent_plans(cats, cfg: RuleConfig, goal: ParseGoal):
    """Yield (plan, final state, forest) for every canonical plan endpoint
    from the time-0 state of ``cats`` at positions 1..n.

    For a strict goal only endpoints reducing to the single target
    category are yielded; for best-effort every endpoint is.
    """
    initial = Asr.initial(cats)
    limit = effective_max_steps(cfg, len(initial.items))
    results = []

    def endpoint(state, steps, trees):
        forest = tuple(trees[item.pos] for item in state.items)
        if goal.mode == "strict":
            if len(state.items) == 1 and state.items[0].cat == goal.target:
                results.append((Plan(tuple(steps)), state, forest))
        else:
            results.append((Plan(tuple(steps)), state, forest))

    def explore(state, steps, trees):
        endpoint(state, steps, trees)
        if state.time >= limit:
            return
        actions = [a for a in applicable_actions(state, cfg) if _admissible(a, state)]
        for subset in _disjoint_subsets(actions):
            new_trees = dict(trees)
            for action in subset:
                new_trees[action.positions[0]] = _build_node(action, trees)
                for p in action.positions[1:]:
                    del new_trees[p]
            explore(step(state, frozenset(subset)), steps + [frozenset(subset)], new_trees)

    leaves = {item.pos: Leaf(None, item.cat, item.pos) for item in initial.items}
    explore(initial, [], leaves)
    return results


def brute_strict_trees(cats, cfg, goal):
    return {forest[0] for _, _, forest in concurrent_plans(cats, cfg, goal)}


def brute_best_effort(cats, cfg):
    endpoints = concurrent_plans(cats, cfg, ParseGoal.best_effort())
    best = min(len(forest) for _, _, forest in endpoints)
    return best, {forest for _, _, forest in endpoints if len(forest) == best}
