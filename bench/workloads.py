"""The three benchmark workloads, built from a seed.

A workload is a list of solves. Each solve names a problem, its epsilon and
its inputs as serialized text, so that the program under test sees only the
text a user would hand to `treecontract solve`. Why each workload was chosen
is recorded in BENCHMARK.json and bench/README.md.
"""

from treecontract import oracles, serialize_tree

# Sizes are chosen so that one pass over a workload takes a few seconds on a
# 2-core host, which lets one run time several passes and report a median.
N_TREE = 1 << 13
N_ISO = 1 << 12
EXPR_CHARS = 8000


class Solve:
    """One solver call: `texts` are tree files for tree problems, `expr` the
    expression for `eval`."""

    __slots__ = ("sid", "problem", "epsilon", "texts", "expr")

    def __init__(self, sid, problem, epsilon, texts=(), expr=None):
        self.sid = sid
        self.problem = problem
        self.epsilon = epsilon
        self.texts = tuple(texts)
        self.expr = expr


def _expression(seed, chars):
    """Sum of parenthesized random expressions, cut at the first term that
    reaches `chars` characters so every seed does about the same work."""
    terms, length, i = [], 0, 0
    while length < chars:
        term = "(" + oracles.random_expression(seed * 100003 + i,
                                               max_depth=6) + ")"
        terms.append(term)
        length += len(term) + 1
        i += 1
    return "+".join(terms)


def _wide(seed):
    mwm = oracles.with_edge_weights(oracles.random_tree(N_TREE, seed), seed)
    mwis = oracles.with_vertex_weights(oracles.caterpillar(N_TREE), seed)
    return [Solve("mwm/random", "mwm", 0.5, [serialize_tree(mwm)]),
            Solve("mwis/caterpillar", "mwis", 0.5, [serialize_tree(mwis)]),
            Solve("height/star", "height", 0.5,
                  [serialize_tree(oracles.star(N_TREE))])]


def _deep(seed):
    return [Solve("height/random", "height", 0.25,
                  [serialize_tree(oracles.random_tree(N_TREE, seed))]),
            Solve("sum/path", "sum", 0.25,
                  [serialize_tree(oracles.path(N_TREE))]),
            Solve("height/star", "height", 0.25,
                  [serialize_tree(oracles.star(N_TREE))])]


def _pipelines(seed):
    left = oracles.random_tree(N_ISO, seed)
    right = oracles.relabeled_copy(left, seed)
    return [Solve("eval/sum-of-terms", "eval", 0.5,
                  expr=_expression(seed, EXPR_CHARS)),
            Solve("matching/broom", "matching", 0.5,
                  [serialize_tree(oracles.broom(N_TREE))]),
            Solve("iso/random-pair", "iso", 0.5,
                  [serialize_tree(left), serialize_tree(right)])]


WORKLOADS = {"wide": _wide, "deep": _deep, "pipelines": _pipelines}
