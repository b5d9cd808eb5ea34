"""Shared fixtures: canonical instances reused across the test modules."""

from __future__ import annotations

import pytest

from planar_mssp import build, build_graph, gen_grid, mssp, normalize

# verdict lines queued by the acceptance tests; printed after capture
# ends so they are visible in every pytest run
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def schedule_children(nodes: list) -> list[list[int]]:
    """Each node's children's positions in a preorder list of schedule nodes:
    a node's parent is the last node before it one level up."""
    below: list[list[int]] = [[] for _ in nodes]
    last_at: dict[int, int] = {}
    for c, node in enumerate(nodes):
        if c:
            below[last_at[node.level - 1]].append(c)
        last_at[node.level] = c
    return below


_left_first_schedule = mssp._schedule


def right_first_schedule(n: int):
    """mssp._schedule(n)'s nodes in right-first preorder: each node, then
    its children's subtrees, the right child's first, and each node's
    children listed in that order."""
    nodes = list(_left_first_schedule(n))
    below = schedule_children(nodes)
    stack = [0]
    while stack:
        p = stack.pop()
        node = nodes[p]
        yield node._replace(children=node.children[::-1])
        stack += below[p]


def build_right_first(norm, **options):
    """build(norm, **options), each node's children built right first.

    build, its descent plans and trace() read the schedule through
    mssp._schedule, so the right-first preorder is swapped in there.
    """
    schedule, mssp._schedule = mssp._schedule, right_first_schedule
    try:
        return build(norm, **options)
    finally:
        mssp._schedule = schedule


class CountingDict(dict):
    """A dict that counts its lookups by [] and get() in CountingDict.lookups."""

    lookups = 0

    def __getitem__(self, key):
        CountingDict.lookups += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        CountingDict.lookups += 1
        return dict.get(self, key, default)


@pytest.fixture
def counted_lookups(monkeypatch):
    """Oracles built or loaded under this fixture hold CountingDict vertex ->
    node dicts, one per block (mssp._tree_indexes wrapped). Returns
    counted(call, *args): call's result and the lookups it made in them."""
    indexes = mssp._tree_indexes
    monkeypatch.setattr(mssp, "_tree_indexes", lambda c: list(map(CountingDict, indexes(c))))

    def counted(call, *args):
        before = CountingDict.lookups
        result = call(*args)
        return result, CountingDict.lookups - before

    return counted


# One-way triangle: arcs 0->1 (5), 1->2 (7), 0->2 (4). Two faces of
# length three; the face walking 0,1,2 makes vertex 2 a dead end seen
# from itself and vertex 1 unable to reach 0.
TRI_ONEWAY_SLOTS = [
    (0, 1, 0, 0, 5, None),
    (1, 2, 1, 0, 7, None),
    (0, 2, 1, 1, 4, None),
]

# Two triangles sharing vertex 0 (a cut vertex). The unbounded face's
# walk has length six and visits vertex 0 twice.
BOWTIE_SLOTS = [
    (0, 1, 0, 0, 1, 1),
    (1, 2, 1, 0, 1, 1),
    (2, 0, 1, 3, 1, 1),
    (0, 3, 2, 0, 1, 1),
    (3, 4, 1, 0, 1, 1),
    (4, 0, 1, 1, 1, 1),
]


@pytest.fixture(scope="session")
def grid3():
    return gen_grid(3, seed=1)


@pytest.fixture(scope="session")
def norm3(grid3):
    g, outer = grid3
    return normalize(g, outer, seed=1)


@pytest.fixture(scope="session")
def oracle3(norm3):
    return build(norm3, instrument=True)


@pytest.fixture(scope="session")
def grid5():
    return gen_grid(5, seed=3)


@pytest.fixture(scope="session")
def norm5(grid5):
    g, outer = grid5
    return normalize(g, outer, seed=3)


@pytest.fixture(scope="session")
def oracle5(norm5):
    return build(norm5)


@pytest.fixture
def tri_oneway():
    return build_graph(3, TRI_ONEWAY_SLOTS)


@pytest.fixture
def bowtie():
    return build_graph(5, BOWTIE_SLOTS)
