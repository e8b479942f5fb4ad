import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples, so tier-1's outcome and time do not
# depend on the draw; a test's own @settings keep their other values.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

from lprl import construction
from lprl.construction import ConstructionCache
from lprl.seqspace import ExpLadder


@pytest.fixture(scope="session")
def ladder02():
    return ExpLadder(0.0, 2.0)


@pytest.fixture(scope="session")
def cache02(ladder02):
    """One shared (a=0, q=2) cache; nodes are pure so sharing is safe."""
    return ConstructionCache(ladder02)


@pytest.fixture
def fresh_nodes():
    """Forget every configuration's root, and so the process-wide node memo,
    so that the test builds every node. A cache binds its root when it is
    made, so a test's caches must be made after this has run."""
    construction._root.cache_clear()


@pytest.fixture
def counted(monkeypatch, fresh_nodes):
    """Every (parent, key) that ``_extend_node`` builds, from an empty memo;
    a key is the binary digits of 1 and the built node's string."""
    built = []
    extend_node = construction._extend_node
    monkeypatch.setattr(construction, "_extend_node",
                        lambda *args: built.append(args[1:3]) or extend_node(*args))
    return built
