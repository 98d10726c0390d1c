import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drls.errors import TopologyError
from drls.topology import (
    Topology,
    algebraic_connectivity,
    from_edges,
    from_positions,
    laplacian,
    random_geometric,
    read_edge_list,
    scaled_laplacian,
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
    assert top.n_links == 14
    with pytest.raises(TopologyError, match="not connected"):
        from_edges(9, [tuple(sorted(pair)) for pair in zip(order, order[1:])])


def test_single_sensor_is_a_valid_network():
    top = from_edges(1, [])
    assert top.J == 1
    assert top.n_links == 0
    assert top.edges() == []


def test_triangle_link_tables():
    """The directed-link table of K_3, fully enumerated."""
    top = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert_array_equal(top.degrees, [2, 2, 2])
    assert_array_equal(top.link_owner, [0, 0, 1, 1, 2, 2])
    assert_array_equal(top.link_peer, [1, 2, 0, 2, 0, 1])
    assert_array_equal(top.link_start, [0, 2, 4, 6])
    assert_array_equal(top.link_flip, [2, 4, 0, 5, 1, 3])


def test_link_flip_is_an_involution():
    top = random_geometric(8, 0.6, seed=3)
    flip = top.link_flip
    assert_array_equal(flip[flip], np.arange(top.n_links))
    assert_array_equal(top.link_owner[flip], top.link_peer)
    assert_array_equal(top.link_peer[flip], top.link_owner)


def test_neighbors_sorted_and_consistent_with_links():
    """Each owner's segment of the link table lists its neighbors in the
    adjacency, ascending, and the degrees count them."""
    top = random_geometric(7, 0.7, seed=5)
    for j in range(top.J):
        nbrs = [k for k in range(top.J) if top.adjacency[j, k]]
        lo, hi = top.link_start[j], top.link_start[j + 1]
        assert_array_equal(top.link_peer[lo:hi], nbrs)
        assert (top.link_owner[lo:hi] == j).all()
        assert top.degrees[j] == len(nbrs)


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


def test_scaled_laplacian_structure():
    top = from_edges(2, [(0, 1)])
    out = scaled_laplacian(top, c=4.0, p=2)
    lap = laplacian(top)
    assert_allclose(out, 2.0 * np.kron(lap, np.eye(2)))
    # PSD with nullspace of dimension exactly p
    w = np.linalg.eigvalsh(out)
    assert (w > -1e-12).all()
    assert int(np.sum(np.abs(w) < 1e-10)) == 2


def test_scaled_laplacian_rejects_bad_parameters():
    top = from_edges(2, [(0, 1)])
    with pytest.raises(TopologyError, match="positive"):
        scaled_laplacian(top, c=0.0, p=1)
    with pytest.raises(TopologyError, match=">= 1"):
        scaled_laplacian(top, c=1.0, p=0)


def test_from_positions_validates_shape():
    with pytest.raises(TopologyError, match=r"\(J, 2\)"):
        from_positions(np.zeros((3, 3)), 0.5)


@pytest.mark.parametrize("positions, radius, fragment", [
    ([[0.0, 0.0], [0.3, 0.0]], 0.0, "radius must be positive, got 0.0"),
    ([[0.0, 0.0], [0.3, 0.0]], -1.0, "radius must be positive, got -1.0"),
    ([[0.0, 0.0], [0.3, 0.0]], np.nan, "radius must be positive, got nan"),
    ([[0.0, 0.0], [np.nan, 0.0]], 0.5, "positions must be finite"),
    ([[0.0, np.inf], [0.3, 0.0]], 0.5, "positions must be finite"),
    ([[np.nan, 0.0]], 0.5, "positions must be finite"),
])
def test_from_positions_refuses_bad_input(positions, radius, fragment):
    """A bad radius or position is named as such, not as a disconnected
    graph, and a lone sensor cannot store a NaN position."""
    with pytest.raises(TopologyError, match=fragment):
        from_positions(np.array(positions), radius)


def test_from_positions_radius_rule():
    pos = np.array([[0.0, 0.0], [0.3, 0.0], [1.0, 0.0]])
    top = from_positions(pos, 0.7)
    assert top.edges() == [(0, 1), (1, 2)]


def test_random_geometric_deterministic():
    a = random_geometric(9, 0.5, seed=42)
    b = random_geometric(9, 0.5, seed=42)
    assert_array_equal(a.adjacency, b.adjacency)
    assert_allclose(a.positions, b.positions)
    c = random_geometric(9, 0.5, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def test_random_geometric_full_radius_gives_complete_graph():
    top = random_geometric(5, 1.5, seed=0)
    assert_array_equal(top.adjacency, 1 - np.eye(5, dtype=int))


def test_random_geometric_gives_up_eventually():
    # radius too small for 10 sensors to ever connect
    with pytest.raises(TopologyError, match="attempts"):
        random_geometric(10, 1e-6, seed=0, max_attempts=5)


def test_random_geometric_parameter_validation():
    with pytest.raises(TopologyError):
        random_geometric(0, 0.5, seed=0)
    with pytest.raises(TopologyError):
        random_geometric(3, -1.0, seed=0)
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
    assert back.positions is None


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
