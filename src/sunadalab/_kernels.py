"""Hot inner-loop kernels of the group layer and the heat traces.

Conventions shared by all kernels:

* group elements are row indices into a lexicographically sorted
  ``(order, degree)`` int32 image matrix, with the identity at index 0;
* ``table[i, j]`` is the index of the composition ``elems[i] ∘ elems[j]``
  (apply j first);
* class indices are assigned in order of each class's minimal element,
  so the identity's class is always class 0.
"""

import numpy as np

# The kernels are plain numpy; perfbench/worker.py records this name in
# each benchmark result.
BACKEND = "numpy"


def _row_index_map(elems):
    """dict mapping each image row (as bytes) to its row index."""
    e = np.ascontiguousarray(elems, dtype=np.int32)
    return {e[i].tobytes(): i for i in range(e.shape[0])}


def mul_table(elems):
    """Composition table for a closed, sorted element matrix."""
    e = np.ascontiguousarray(elems, dtype=np.int32)
    n = e.shape[0]
    lookup = _row_index_map(e)
    table = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        rows = e[a][e]  # rows[b] = elems[a] ∘ elems[b]
        row_bytes = np.ascontiguousarray(rows)
        for b in range(n):
            table[a, b] = lookup[row_bytes[b].tobytes()]
    return table


def closure(table, seed):
    """Indices of the subgroup generated by ``seed`` (identity included)."""
    member = np.zeros(table.shape[0], dtype=bool)
    member[0] = True
    member[seed] = True
    members = np.flatnonzero(member)
    while True:
        member[table[np.ix_(members, members)].ravel()] = True
        grown = np.flatnonzero(member)
        if grown.size == members.size:
            return members
        members = grown


def conjugacy_partition(table, inv):
    """class_of[g] for the relation g ~ x g x^{-1}."""
    n = table.shape[0]
    class_of = np.full(n, -1, dtype=np.int64)
    xs = np.arange(n)
    next_class = 0
    for g in range(n):
        if class_of[g] >= 0:
            continue
        conjugates = table[xs, table[g, inv[xs]]]
        class_of[conjugates] = next_class
        next_class += 1
    return class_of


def heat_sum(eigenvalues, multiplicities, t_grid):
    """Sum_i m_i exp(-lambda_i t) for each t, eigenvalues in ascending order."""
    out = np.empty(len(t_grid), dtype=np.float64)
    for k, t in enumerate(t_grid):
        out[k] = float(np.sum(multiplicities * np.exp(-eigenvalues * t)))
    return out
