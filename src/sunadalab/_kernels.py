"""Hot inner-loop kernels of the group layer and the heat traces.

Conventions shared by all kernels:

* group elements are row indices into a lexicographically sorted
  ``(order, degree)`` int32 image matrix, with the identity at index 0;
* ``table[i, j]`` is the index of the composition ``elems[i] ∘ elems[j]``
  (apply j first);
* class indices are assigned in order of each class's minimal element,
  so the identity's class is always class 0;
* a right coset Hx of a subgroup is named by its least element, its
  label, so H itself is coset 0.  Since (Hx)s = H(xs), right
  multiplication maps cosets to cosets, and the subgroup closure walks
  labels rather than elements.
"""

import numpy as np

# The kernels are plain numpy; perfbench/worker.py records this name in
# each benchmark result.
BACKEND = "numpy"


def mul_table(elems, gens, lookup):
    """Composition table for a closed, sorted element matrix.

    ``gens`` are the indices of elements that generate the group.  Only
    their rows are looked up; the rest follow by a breadth-first search
    from the identity, because left multiplication by s ∘ x is left
    multiplication by x followed by s: ``table[s∘x] = table[s][table[x]]``.
    ``lookup`` maps each int32 image row, as bytes, to its index.
    """
    e = np.ascontiguousarray(elems, dtype=np.int32)
    n = e.shape[0]
    # gen_rows[k][b] = index of elems[gens[k]] ∘ elems[b]
    gen_rows = [
        np.array([lookup[row.tobytes()] for row in e[s][e]], dtype=np.int32)
        for s in gens
    ]
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    queue = [0]
    for x in queue:  # the queue grows while it is walked
        for row in gen_rows:
            y = row[x]
            if not reached[y]:
                reached[y] = True
                table[y] = row[table[x]]
                queue.append(y)
    if len(queue) < n:
        raise ValueError(f"generators reach {len(queue)} of {n} elements")
    return table


def right_cosets(table, H, gens):
    """The right cosets of H = <gens>, given as H's sorted element indices.

    Returns one plain record ``(label, lab, succ, order)``: ``label[x]``
    is the least element of Hx, which names that coset, as an array and
    as the list ``lab``; ``succ[k][l]`` is the label of H(l s) for the
    k-th generator s of H, one list per generator; ``order`` is |H|.
    ``closure`` only reads the record, so one record serves every
    closure <H, g>.
    """
    label = table[H].min(axis=0)
    succ = label[table[:, gens]].T.tolist()
    return label, label.tolist(), succ, len(H)


def closure(table, gens, cosets=None, limit=None):
    """Sorted indices of the subgroup generated by ``gens`` (identity included).

    Coset extension (Dimino's algorithm) on coset labels.  ``cosets`` is
    the ``right_cosets`` record of H = <gens[:k]>, k its number of
    generators; K = <gens> is a union of right cosets Hx of H.  Since
    (Hx)s = H(xs), the coset with label l goes to H(l s), whose label is
    ``lab[table[l, s]]``, for each added generator s in ``gens[k:]``,
    and to the cosets ``succ[j][l]`` under the generators of H.  The
    cosets reached from H itself (label 0) make a union of right cosets
    that contains H and is closed under right multiplication by every
    generator, which is K.  One breadth-first walk over labels adds all
    of ``gens[k:]``; the enumerator adds one, and without ``cosets`` the
    walk starts from the trivial subgroup, whose cosets are the elements.

    Once the subgroup being built has more than ``limit`` elements the
    kernel stops and returns an empty array.
    """
    limit = table.shape[0] if limit is None else limit
    if cosets is None:
        cosets = right_cosets(table, np.zeros(1, dtype=np.int64), [])
    label, lab, succ, order = cosets
    new = [int(s) for s in gens[len(succ):]]
    reached = bytearray(table.shape[0])
    reached[0] = 1
    queue = [0]
    for l in queue:  # the queue grows while it is walked
        for s in new:
            m = lab[table[l, s]]
            if not reached[m]:
                reached[m] = 1
                queue.append(m)
        for row in succ:
            m = row[l]
            if not reached[m]:
                reached[m] = 1
                queue.append(m)
        if order * len(queue) > limit:
            return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.frombuffer(reached, dtype=bool)[label])


def conjugacy_partition(table, inv):
    """class_of[g] for the relation g ~ x g x^{-1}, and the representative
    of each class: its least element, the first one the scan meets."""
    n = table.shape[0]
    class_of = np.full(n, -1, dtype=np.int64)
    xs = np.arange(n)
    reps = []
    for g in range(n):
        if class_of[g] < 0:
            class_of[table[xs, table[g, inv]]] = len(reps)
            reps.append(g)
    return class_of, reps


def heat_sum(eigenvalues, multiplicities, t_grid):
    """Sum_i m_i exp(-lambda_i t) for each t, eigenvalues in ascending order."""
    out = np.empty(len(t_grid), dtype=np.float64)
    for k, t in enumerate(t_grid):
        out[k] = float(np.sum(multiplicities * np.exp(-eigenvalues * t)))
    return out
