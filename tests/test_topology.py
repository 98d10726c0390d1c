import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drls.errors import TopologyError
from drls.topology import (
    GEOMETRIC_ATTEMPTS,
    Topology,
    algebraic_connectivity,
    from_edges,
    laplacian,
    random_geometric,
    read_edge_list,
    write_edge_list,
)


def test_adjacency_must_be_square():
    with pytest.raises(TopologyError, match="square"):
        Topology(np.zeros((2, 3)))


def test_adjacency_must_have_a_sensor():
    with pytest.raises(TopologyError, match="need at least one sensor, got J=0"):
        Topology(np.zeros((0, 0), dtype=int))


def test_adjacency_entries_must_be_binary():
    with pytest.raises(TopologyError, match="0 or 1"):
        Topology(np.array([[0, 2], [2, 0]]))


def test_adjacency_must_be_symmetric():
    with pytest.raises(TopologyError, match="symmetric"):
        Topology(np.array([[0, 1], [0, 0]]))


def test_no_self_loops():
    with pytest.raises(TopologyError, match="self-loop"):
        Topology(np.array([[1, 1], [1, 0]]))


def test_disconnected_graph_rejected():
    adj = np.zeros((4, 4), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    with pytest.raises(TopologyError, match="not connected"):
        Topology(adj)


def test_connectivity_follows_a_path_of_any_length():
    """Reachability spreads one hop per sweep, so a path that visits the
    sensors out of order is found connected end to end, and a ninth sensor
    off the path is found unreached."""
    order = [0, 7, 3, 6, 1, 5, 2, 4]
    top = from_edges(8, [tuple(sorted(pair)) for pair in zip(order, order[1:])])
    assert len(top.edges()) == 7
    with pytest.raises(TopologyError, match="not connected"):
        from_edges(9, [tuple(sorted(pair)) for pair in zip(order, order[1:])])


def test_single_sensor_is_a_valid_network():
    top = from_edges(1, [])
    assert top.J == 1
    assert top.edges() == []


def test_path_laplacian_oracle():
    top = from_edges(3, [(0, 1), (1, 2)])
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert_allclose(laplacian(top), expected)
    # eigenvalues of the path Laplacian are 0, 1, 3
    assert algebraic_connectivity(top) == pytest.approx(1.0)


def test_two_node_connectivity():
    top = from_edges(2, [(0, 1)])
    assert algebraic_connectivity(top) == pytest.approx(2.0)


def test_algebraic_connectivity_needs_two_sensors():
    with pytest.raises(TopologyError):
        algebraic_connectivity(from_edges(1, []))


def test_random_geometric_radius_rule():
    """A connected first draw is kept: its points, rebuilt from the seed,
    are joined exactly when they lie within the radius."""
    j, radius, seed = 6, 0.5, 3
    pos = np.random.default_rng(seed).uniform(0.0, 1.0, size=(j, 2))
    expected = [(a, b) for a in range(j) for b in range(a + 1, j)
                if math.dist(pos[a], pos[b]) <= radius]
    assert 0 < len(expected) < j * (j - 1) // 2
    assert random_geometric(j, radius, seed).edges() == expected


def test_random_geometric_deterministic():
    a = random_geometric(9, 0.5, seed=42)
    b = random_geometric(9, 0.5, seed=42)
    assert_array_equal(a.adjacency, b.adjacency)
    c = random_geometric(9, 0.5, seed=43)
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_random_geometric_full_radius_gives_complete_graph():
    top = random_geometric(5, 1.5, seed=0)
    assert_array_equal(top.adjacency, 1 - np.eye(5, dtype=int))


def test_random_geometric_gives_up_eventually():
    # radius too small for 10 sensors to ever connect
    with pytest.raises(TopologyError, match=f"after {GEOMETRIC_ATTEMPTS} attempts"):
        random_geometric(10, 1e-6, seed=0)


def test_random_geometric_parameter_validation():
    with pytest.raises(TopologyError):
        random_geometric(0, 0.5, seed=0)
    with pytest.raises(TopologyError):
        random_geometric(3, -1.0, seed=0)
    with pytest.raises(TopologyError, match="radius must be positive, got 0.0"):
        random_geometric(3, 0.0, seed=0)
    with pytest.raises(TopologyError, match="radius must be positive"):
        random_geometric(3, float("nan"), seed=0)


def test_from_edges_validation():
    for j in (0, -1):
        with pytest.raises(TopologyError, match="need at least one sensor"):
            from_edges(j, [])
    with pytest.raises(TopologyError, match="out of range"):
        from_edges(3, [(0, 3)])
    with pytest.raises(TopologyError, match="self-loop"):
        from_edges(3, [(1, 1)])
    with pytest.raises(TopologyError, match="duplicate"):
        from_edges(3, [(0, 1), (1, 0), (1, 2)])


def test_edge_list_roundtrip(tmp_path):
    top = random_geometric(6, 0.8, seed=1)
    path = tmp_path / "net.txt"
    write_edge_list(top, path)
    back = read_edge_list(path)
    assert_array_equal(back.adjacency, top.adjacency)


def test_edge_list_accepts_comments_and_blanks(tmp_path):
    """'#' opens a comment at the start of a line or after whitespace, as in configs."""
    path = tmp_path / "net.txt"
    path.write_text("# a comment\n3  # sensors\n\n0 1\t# first edge\n1 2\n")
    top = read_edge_list(path)
    assert top.J == 3
    assert top.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("", "empty"),
        ("abc\n0 1\n", "sensor count"),
        ("3\n0 1 2\n", "expected 'i j'"),
        ("3\n0 x\n", "integers"),
        ("3\n1 0\n", "i < j"),
        ("0\n", "need at least one sensor"),
        ("3\n0 1\n0 5\n", "out of range"),
        ("3\n0 1\n0 1\n1 2\n", "duplicate edge"),
        ("4\n0 1\n2 3\n", "not connected"),
    ],
)
def test_edge_list_parse_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(TopologyError, match=fragment) as exc:
        read_edge_list(path)
    assert "bad.txt" in str(exc.value)


def test_edge_list_error_names_line_number(tmp_path):
    """The line named is the file line: comment and blank lines count."""
    path = tmp_path / "bad.txt"
    path.write_text("3\n# edges\n\n0 1\n0 1 9\n")
    with pytest.raises(TopologyError, match=r"bad\.txt:5: expected 'i j', got '0 1 9'"):
        read_edge_list(path)
