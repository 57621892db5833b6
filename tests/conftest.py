import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from tpcore import QueryContext, TemporalGraph

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")



@pytest.fixture(autouse=True, scope="session")
def private_graph_cache(tmp_path_factory):
    """Point the command line's graph cache at a directory of this session,
    so that neither the suite nor its child processes write to ~/.cache."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


CHAIN3 = [("q", "a", 1), ("a", "b", 2)]
TRI = [("q", "a", 1), ("q", "b", 1), ("a", "b", 2)]
EDGE1 = [("q", "a", 1)]


@pytest.fixture
def chain3():
    return TemporalGraph.from_triples(CHAIN3)


@pytest.fixture
def tri():
    return TemporalGraph.from_triples(TRI)


@pytest.fixture
def edge1():
    return TemporalGraph.from_triples(EDGE1)


class CountedReads(list):
    """A list that adds each indexed read to a shared one-item counter."""

    def __init__(self, items, counter):
        super().__init__(items)
        self.counter = counter

    def __getitem__(self, i):
        self.counter[0] += 1
        return super().__getitem__(i)


def ctx_for(graph, label="q", alpha=0.2):
    return QueryContext.single(graph.index[label], alpha)


def random_temporal_graph(rng: random.Random, n_max=12, m_max=40, t_max=20) -> TemporalGraph:
    """Seeded random temporal multigraph; always has at least one edge."""
    n = rng.randint(2, n_max)
    triples = []
    for _ in range(rng.randint(1, m_max)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        triples.append((f"v{u}", f"v{v}", rng.randint(1, t_max)))
    if not triples:
        triples = [("v0", "v1", 1)]
    return TemporalGraph.from_triples(triples)


def random_query(rng: random.Random, graph: TemporalGraph) -> int:
    return rng.randrange(graph.n)


@st.composite
def graph_strategy(draw, n_max=8, m_max=20, t_max=10):
    """Hypothesis strategy for small temporal graphs."""
    n = draw(st.integers(2, n_max))
    raw = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, t_max)),
        min_size=1, max_size=m_max))
    triples = [(f"v{u}", f"v{v}", t) for u, v, t in raw if u != v]
    if not triples:
        triples = [("v0", "v1", 1)]
    return TemporalGraph.from_triples(triples)
