"""
Ad hoc network topologies.

A topology is an undirected, connected graph over sensors 0..J-1 with no
self-loops. The communication pattern of the estimators is captured by a
table of *directed links*: every undirected edge {i, j} contributes the two
entries (i, j) and (j, i). The table is grouped by owner with peers in
ascending order, which fixes the ordering of every stacked per-link
quantity in the package (multipliers, receiver-noise vectors, the noise
mixing matrices of the analysis module).

Edge-list file format: first line is the sensor count J, then one line
"i j" per undirected edge with 0 <= i < j < J.
"""

import numpy as np

from .errors import TopologyError


class Topology:
    """Undirected connected sensor graph plus derived link tables.

    Attributes
    ----------
    adjacency : ndarray
        (J, J) symmetric 0/1 matrix with zero diagonal.
    positions : ndarray or None
        (J, 2) unit-square coordinates when geometric, else None.
    neighbors : list of ndarray
        Per-sensor neighbor ids, ascending.
    degrees : ndarray
        (J,) neighbor counts.
    link_owner, link_peer : ndarray
        (D,) directed-link table, grouped by owner with peers ascending;
        entry k is the link owned by `link_owner[k]` toward `link_peer[k]`.
        D = sum of degrees = twice the edge count.
    link_start : ndarray
        (J+1,) segment offsets of each owner's group in the table.
    link_flip : ndarray
        (D,) index of the opposite direction of each entry.
    """

    def __init__(self, adjacency, positions=None):
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise TopologyError(f"adjacency must be square, got shape {a.shape}")
        if not np.isin(a, (0, 1)).all():
            raise TopologyError("adjacency entries must be 0 or 1")
        a = a.astype(np.int64)
        if (a != a.T).any():
            raise TopologyError("adjacency must be symmetric")
        if np.diagonal(a).any():
            raise TopologyError("self-loops are not allowed")
        self.adjacency = a
        self.J = a.shape[0]
        self.positions = None if positions is None else np.asarray(positions, dtype=np.float64)

        self.neighbors = [np.flatnonzero(a[j]) for j in range(self.J)]
        self.degrees = a.sum(axis=1)
        if not _is_connected(self.neighbors):
            raise TopologyError("graph is not connected")

        owner = np.repeat(np.arange(self.J), self.degrees)
        peer = np.concatenate(self.neighbors)
        self.link_owner = owner
        self.link_peer = peer
        self.link_start = np.concatenate(([0], np.cumsum(self.degrees)))
        # sorted by (peer, owner), entry k is the link (link_peer[k], link_owner[k])
        self.link_flip = np.lexsort((owner, peer))
        self.n_links = owner.size

    def edges(self):
        """Undirected edges as (i, j) pairs with i < j, sorted."""
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(self.adjacency)))]


def _is_connected(neighbors):
    j = len(neighbors)
    if j == 1:
        return True
    seen = np.zeros(j, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for w in neighbors[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(int(w))
    return bool(seen.all())


def from_positions(positions, radius):
    """Topology whose edges join points within `radius` (Euclidean)."""
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise TopologyError(f"positions must be (J, 2), got {pos.shape}")
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    adj = (d <= radius).astype(np.int64)
    np.fill_diagonal(adj, 0)
    return Topology(adj, positions=pos)


def random_geometric(j, radius, seed, max_attempts=1000):
    """Connected random geometric graph on the unit square.

    Draws J points uniformly and connects pairs within `radius`, resampling
    until the graph is connected. Deterministic for a given seed.

    Raises TopologyError when no connected graph is found within
    `max_attempts` draws.
    """
    if j < 1:
        raise TopologyError(f"need at least one sensor, got J={j}")
    if not radius > 0:
        raise TopologyError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        pos = rng.uniform(0.0, 1.0, size=(j, 2))
        try:
            return from_positions(pos, radius)
        except TopologyError:
            continue
    raise TopologyError(
        f"no connected geometric graph after {max_attempts} attempts "
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


def scaled_laplacian(top, c, p):
    """(c/2) * (L kron I_p): the consensus coupling operator on stacked states.

    Positive semidefinite with nullspace of dimension exactly p when the
    topology is connected.
    """
    if c <= 0:
        raise TopologyError(f"consensus step c must be positive, got {c}")
    if p < 1:
        raise TopologyError(f"regressor length p must be >= 1, got {p}")
    return 0.5 * c * np.kron(laplacian(top), np.eye(p))


def write_edge_list(top, path):
    """Write the edge-list text format (header J, then one 'i j' per edge)."""
    lines = [str(top.J)]
    lines += [f"{i} {j}" for i, j in top.edges()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path):
    """Parse the edge-list text format back into a Topology."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = [ln.strip() for ln in fh]
    except OSError as exc:
        raise TopologyError(f"cannot read edge-list file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise TopologyError(f"edge-list file {path} is not UTF-8 text: {exc}") from exc
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines:
        raise TopologyError(f"{path}: empty edge-list file")
    try:
        j = int(lines[0])
    except ValueError:
        raise TopologyError(f"{path}: first line must be the sensor count, got {lines[0]!r}")
    edges = []
    for n, ln in enumerate(lines[1:], start=2):
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
    return from_edges(j, edges)
