"""Independent reference implementations used to cross-check the
package. Everything here favors obviousness over speed: dense
adjacency matrices, exhaustive enumeration, exact rational arithmetic.
Nothing imports from cubeperc internals beyond constructors.
"""

import itertools
from collections import deque
from fractions import Fraction


def bit_count(x: int) -> int:
    return bin(x).count("1")


def dense_adjacency(d: int):
    """Full n x n hypercube adjacency matrix as lists of 0/1."""
    n = 1 << d
    return [[1 if bit_count(u ^ v) == 1 else 0 for v in range(n)] for u in range(n)]


def flood_fill_components(adj, retained):
    """Component sizes of the induced subgraph, by matrix-row BFS.

    adj: dense 0/1 matrix; retained: iterable of vertex indices.
    Returns a sorted list of component sizes.
    """
    alive = set(retained)
    seen = set()
    sizes = []
    for start in sorted(alive):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        size = 0
        while queue:
            v = queue.popleft()
            size += 1
            row = adj[v]
            for u in alive:
                if row[u] and u not in seen:
                    seen.add(u)
                    queue.append(u)
        sizes.append(size)
    return sorted(sizes)


def flood_fill_labels(adj, retained):
    """Map vertex -> component id, ids ordered by smallest member."""
    alive = set(retained)
    seen = set()
    labels = {}
    cid = 0
    for start in sorted(alive):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            labels[v] = cid
            row = adj[v]
            for u in alive:
                if row[u] and u not in seen:
                    seen.add(u)
                    queue.append(u)
        cid += 1
    return labels


def rational_binomial_tail(m: int, q: Fraction, k: int) -> Fraction:
    """P[Bin(m, q) >= k] summed exactly in rational arithmetic."""
    import math

    q = Fraction(q)
    total = Fraction(0)
    for j in range(k, m + 1):
        total += math.comb(m, j) * q**j * (1 - q) ** (m - j)
    return total


def sphere2_bruteforce(d: int, v: int):
    return {u for u in range(1 << d) if bit_count(u ^ v) == 2}


def two_paths(d: int, u: int, v: int) -> int:
    """Number of length-2 paths u - w - v in Q^d."""
    count = 0
    for w in range(1 << d):
        if bit_count(w ^ u) == 1 and bit_count(w ^ v) == 1:
            count += 1
    return count


def cherries_by_path_enumeration(d: int, S, W) -> int:
    """Count unordered 2-paths (s, w, s') with s, s' in S, w in W."""
    S = set(S)
    count = 0
    for w in W:
        for s1, s2 in itertools.combinations(sorted(S), 2):
            if bit_count(s1 ^ w) == 1 and bit_count(s2 ^ w) == 1:
                count += 1
    return count


def external_neighborhood_bruteforce(d: int, S):
    S = set(S)
    out = set()
    for v in range(1 << d):
        if v in S:
            continue
        if any(bit_count(v ^ s) == 1 for s in S):
            out.add(v)
    return out


def connected_in(adjacency, vertices) -> bool:
    """adjacency: callable v -> iterable of neighbors."""
    verts = set(vertices)
    if not verts:
        return False
    start = next(iter(verts))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adjacency(v):
            if u in verts and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(verts)


def spanning_trees_by_edge_subsets(vertices, edges) -> int:
    """Count spanning trees by trying every (k-1)-subset of edges."""
    verts = list(vertices)
    k = len(verts)
    if k == 1:
        return 1
    count = 0
    for subset in itertools.combinations(edges, k - 1):
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            count += 1
    return count


def tree_subgraph_count(neighbor_fn, n: int, k: int) -> int:
    """Total k-vertex tree subgraphs by combinations + edge subsets."""
    total = 0
    for verts in itertools.combinations(range(n), k):
        vset = set(verts)
        edges = [
            (u, v)
            for u, v in itertools.combinations(verts, 2)
            if v in neighbor_fn(u)
        ]
        if not connected_in(lambda x: [b for a, b in edges if a == x] + [a for a, b in edges if b == x], vset):
            continue
        total += spanning_trees_by_edge_subsets(verts, edges)
    return total


def check_squid_loop(cube, giant_region, candidates, epsilon: float, C: float):
    """Per-candidate squid check, one candidate and one vertex at a time.

    Returns the reports as dicts in ViolationReport.to_dict() form and
    raises ValueError with the message the checker uses for the first
    bad candidate; `cube` supplies neighbors() and its range check.
    """
    d = cube.d
    region = {int(v) for v in giant_region}
    deprived_bound = epsilon**2 * d / 40.0
    report_bound = epsilon * d / 10.0
    size_cap = C * d
    reports = []
    for i, cand in enumerate(candidates):
        verts = [int(v) for v in cand]
        if not verts:
            raise ValueError(f"candidate {i} is empty")
        if len(verts) != len(set(verts)):
            raise ValueError(f"candidate {i} has repeated vertices")
        if len(verts) > size_cap:
            raise ValueError(f"candidate {i} has {len(verts)} vertices, above C*d = {size_cap}")
        member = set(verts)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for u in cube.neighbors(v):
                if u in member and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(member):
            raise ValueError(f"candidate {i} is not connected")
        deprived = 0
        for v in verts:
            inside = sum(1 for u in cube.neighbors(v) if u in region)
            if inside < deprived_bound:
                deprived += 1
        if deprived >= report_bound:
            reports.append(
                {
                    "checker": "squid",
                    "witness": {"candidate_index": i, "size": len(verts), "min_vertex": min(verts)},
                    "measured": float(deprived),
                    "threshold": report_bound,
                }
            )
    return reports


def _hypercube_components(d: int, alive):
    """Components of Q^d induced on `alive`, as sets, by smallest member."""
    alive = set(alive)
    seen = set()
    comps = []
    for start in sorted(alive):
        if start in seen:
            continue
        seen.add(start)
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for i in range(d):
                u = v ^ (1 << i)
                if u in alive and u not in seen:
                    seen.add(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(comp)
    return comps


def merge_reports_bruteforce(d: int, epsilon: float, r1, r2):
    """Two-round merge reports by flood fill over Python sets.

    r1, r2: the vertices retained in each round. The round-one giant is
    the largest component of r1 (ties to the smaller minimum member);
    T is the giant with its neighbors, M the vertices outside T with at
    least eps^2*d/200 neighbors in T. Returns one dict per component B
    of the union outside T, by smallest member, holding the MergeReport
    fields: B merges iff round two retains a T-neighbor of B, and the
    merge is consistent iff a merged B ends in the giant's final
    component and an unmerged B ends as a component of its own.
    """
    n = 1 << d

    def nbrs(v):
        return [v ^ (1 << i) for i in range(d)]

    r1, r2 = set(r1), set(r2)
    union = r1 | r2
    giant = max(_hypercube_components(d, r1), key=lambda c: (len(c), -min(c)))
    t = giant | {u for v in giant for u in nbrs(v)}
    threshold = epsilon**2 * d / 200.0
    m = {v for v in range(n) if v not in t and sum(u in t for u in nbrs(v)) >= threshold}
    final_of = {}
    for comp in _hypercube_components(d, union):
        for v in comp:
            final_of[v] = comp
    giant_final = final_of[min(giant)]
    reports = []
    for cid, b in enumerate(_hypercube_components(d, union - t)):
        nt = {u for v in b for u in nbrs(v) if u in t}
        nt_m = {u for v in b & m for u in nbrs(v) if u in t}
        merged = bool(nt & r2)
        final = final_of[min(b)]
        reports.append(
            {
                "component": cid,
                "min_vertex": min(b),
                "size": len(b),
                "m_size": len(b & m),
                "nt_size": len(nt),
                "nt_m_size": len(nt_m),
                "merged": merged,
                "final_size": len(final),
                "consistent": final is giant_final if merged else len(final) == len(b),
            }
        )
    return reports


def rate_table_loop(reports, c_values, d: int):
    """Merge rate among reports with m_size >= c*d, per c, one report at
    a time; reports are MergeReport rows."""
    rows = []
    for c in c_values:
        eligible = [r for r in reports if r.m_size >= c * d]
        merged = sum(1 for r in eligible if r.merged)
        rows.append(
            {
                "c": float(c),
                "eligible": len(eligible),
                "merged": merged,
                "rate": merged / len(eligible) if eligible else None,
            }
        )
    return rows


def merge_summary_loop(reports, giant_final_size: int):
    """The merge summary of MergeReport rows, one report at a time."""
    return {
        "candidates": len(reports),
        "merged": sum(1 for r in reports if r.merged),
        "consistent": all(r.consistent for r in reports),
        "giant_final_size": giant_final_size,
    }


def label_by_searchsorted(d: int, members):
    """Components of Q^d induced on `members`, coordinate by coordinate.

    For each coordinate i, flips bit i of every member, keeps the
    partners that are larger and retained, and finds their indices with
    searchsorted; scipy's connected_components then labels the edge list,
    and ids are renumbered by first occurrence in sorted member order.
    Returns (vertices, labels, sizes) as int64 arrays.
    """
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    vertices = np.unique(np.asarray(members, dtype=np.int64))
    mask = np.zeros(1 << d, dtype=bool)
    mask[vertices] = True
    rows, cols = [], []
    for i in range(d):
        partner = vertices ^ (1 << i)
        keep = (partner > vertices) & mask[partner]
        rows.append(np.flatnonzero(keep))
        cols.append(np.searchsorted(vertices, partner[keep]))
    m = len(vertices)
    graph = coo_matrix(
        (np.ones(sum(map(len, rows)), dtype=np.int8), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    )
    _, raw = connected_components(graph, directed=False)
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    labels = rank[inverse]
    return vertices, labels, np.bincount(labels, minlength=len(first)).astype(np.int64)
