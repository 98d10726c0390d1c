"""
Ad hoc network topologies.

A topology is an undirected, connected graph over sensors 0..J-1 with no
self-loops: each sensor exchanges only with its one-hop neighbours.

Edge-list file format: first line is the sensor count J, then one line
"i j" per undirected edge with 0 <= i < j < J. Comments and blank lines
are as in config files (``content_lines``), and errors name file lines.
"""

import re

import numpy as np

from .errors import TopologyError


class Topology:
    """Undirected connected sensor graph.

    Attributes
    ----------
    adjacency : ndarray
        (J, J) symmetric 0/1 matrix with zero diagonal.
    degrees : ndarray
        (J,) neighbor counts.
    """

    def __init__(self, adjacency):
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise TopologyError(f"adjacency must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise TopologyError("need at least one sensor, got J=0")
        if not np.isin(a, (0, 1)).all():
            raise TopologyError("adjacency entries must be 0 or 1")
        a = a.astype(np.int64)
        if (a != a.T).any():
            raise TopologyError("adjacency must be symmetric")
        if np.diagonal(a).any():
            raise TopologyError("self-loops are not allowed")
        self.adjacency = a
        self.J = a.shape[0]

        # sensors reachable from sensor 0, grown one hop at a time
        reach, grown = None, np.arange(self.J) == 0
        while not np.array_equal(reach, grown):
            reach, grown = grown, grown | a[grown].any(axis=0)
        if not reach.all():
            raise TopologyError("graph is not connected")

        self.degrees = a.sum(axis=1)

    def edges(self):
        """Undirected edges as (i, j) pairs with i < j, sorted."""
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(self.adjacency)))]


#: point draws `random_geometric` makes before it gives up on a connected graph
GEOMETRIC_ATTEMPTS = 1000


def random_geometric(j, radius, seed):
    """Connected random geometric graph on the unit square.

    Draws J points uniformly and connects pairs within `radius` (Euclidean),
    resampling until the graph is connected. Deterministic for a given seed.

    Raises TopologyError when no connected graph is found within
    GEOMETRIC_ATTEMPTS draws.
    """
    if j < 1:
        raise TopologyError(f"need at least one sensor, got J={j}")
    if not radius > 0:
        raise TopologyError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(seed)
    for _ in range(GEOMETRIC_ATTEMPTS):
        pos = rng.uniform(0.0, 1.0, size=(j, 2))
        adj = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2) <= radius
        np.fill_diagonal(adj, False)
        try:
            return Topology(adj)
        except TopologyError:
            # the only refusal drawn points can meet: the graph is not connected
            continue
    raise TopologyError(
        f"no connected geometric graph after {GEOMETRIC_ATTEMPTS} attempts "
        f"(J={j}, radius={radius})"
    )


def from_edges(j, edges):
    """Topology from an explicit undirected edge list."""
    if j < 1:
        raise TopologyError(f"need at least one sensor, got J={j}")
    adj = np.zeros((j, j), dtype=np.int64)
    for i, (a, b) in enumerate(edges):
        if not (0 <= a < j and 0 <= b < j):
            raise TopologyError(f"edge {i} = ({a}, {b}) out of range for J={j}")
        if a == b:
            raise TopologyError(f"edge {i} = ({a}, {b}) is a self-loop")
        if adj[a, b]:
            raise TopologyError(f"duplicate edge ({a}, {b})")
        adj[a, b] = adj[b, a] = 1
    return Topology(adj)


def laplacian(top):
    """Graph Laplacian L = D - A as float64."""
    return np.diag(top.degrees).astype(np.float64) - top.adjacency.astype(np.float64)


def algebraic_connectivity(top):
    """Second-smallest Laplacian eigenvalue (positive iff connected)."""
    if top.J < 2:
        raise TopologyError("algebraic connectivity needs J >= 2")
    return float(np.sort(np.linalg.eigvalsh(laplacian(top)))[1])


def write_edge_list(top, path):
    """Write the edge-list text format (header J, then one 'i j' per edge)."""
    lines = [str(top.J)]
    lines += [f"{i} {j}" for i, j in top.edges()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_text(path, what, error):
    """The text of a UTF-8 file; a failed read raises `error` naming the
    `what` file it could not read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} file {path} is not UTF-8 text: {exc}") from exc


def content_lines(text):
    """Yield (file line number, content) for each line holding more than a
    comment or blanks. '#' opens a comment at the start of a line or after
    whitespace only, so a value such as a file path may contain one."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if line:
            yield ln, line


def read_edge_list(path):
    """Parse the edge-list text format back into a Topology."""
    lines = content_lines(read_text(path, "edge-list", TopologyError))
    _, first = next(lines, (None, None))
    if first is None:
        raise TopologyError(f"{path}: empty edge-list file")
    try:
        j = int(first)
    except ValueError:
        raise TopologyError(f"{path}: first line must be the sensor count, got {first!r}")
    edges = []
    for n, ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise TopologyError(f"{path}:{n}: expected 'i j', got {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise TopologyError(f"{path}:{n}: expected integers, got {ln!r}")
        if not a < b:
            raise TopologyError(f"{path}:{n}: edges must satisfy i < j, got ({a}, {b})")
        edges.append((a, b))
    try:
        return from_edges(j, edges)
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc
