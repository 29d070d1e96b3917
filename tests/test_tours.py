"""The one Euler-tour forest: both of its users reach the same steps."""

from matroid_mcmc import build_oracle, dyn_graph, tours
from matroid_mcmc.matroids import ForestOracle

from conftest import REPO_ROOT, TRIANGLE_EDGES, imported_names, spec_of


def test_tours_imports_no_package_module():
    """tours is a leaf: it takes nothing from the rest of the package."""
    path = REPO_ROOT / "src" / "matroid_mcmc" / "tours.py"
    names = list(imported_names(path))
    assert not [n for n in names if n.startswith((".", "matroid_mcmc"))], names


def test_forest_and_hdt_tree_deletes_reach_the_one_cut(monkeypatch):
    """A ForestOracle delete of a tree element and an HDT tree-edge delete
    both cut through tours.cut; a non-tree delete cuts nothing."""
    calls = []
    cut = tours.cut

    def recorded(arc, twin, splay, join):
        calls.append(splay.__module__)
        cut(arc, twin, splay, join)

    monkeypatch.setattr(tours, "cut", recorded)
    oracle = build_oracle(spec_of({"variant": "graphic",
                                   "edges": [list(e) for e in TRIANGLE_EDGES]}))
    assert isinstance(oracle, ForestOracle)
    oracle.insert(0)
    oracle.insert(1)
    oracle.insert(2)  # closes the triangle: an extra, not a tree element
    oracle.delete(2)
    assert calls == []
    oracle.delete(0)
    assert calls == ["matroid_mcmc.tours"]

    g = dyn_graph(3, backend="hdt")
    for key, (u, v) in enumerate(TRIANGLE_EDGES):
        g.insert_edge(key, u, v)
    g.delete_edge(2)  # joined 0 and 2 already: a non-tree edge
    g.delete_edge(0)
    assert calls == ["matroid_mcmc.tours", "matroid_mcmc.dyncon"]
    assert g.component_count() == 2
