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


def closure(table, gens, base=None, limit=None):
    """Sorted indices of the subgroup generated by ``gens`` (identity included).

    Coset extension (Dimino's algorithm): K = <H, g> is kept as a union of
    right cosets Hx, starting from H.  Each coset representative x is
    multiplied on the right by each generator s of K; since (Hx)s = H(xs),
    a product outside K adds its whole coset in one ``table[H, xs]``
    gather.  A union of right cosets of H that contains H and is closed
    under right multiplication by the generators is K.

    With ``base`` (the element indices of the subgroup generated by
    ``gens[:-1]``) only the last generator is added; without it the generators are added one at a
    time from the trivial subgroup.  Once the subgroup being built has
    more than ``limit`` elements the kernel stops and returns an empty
    array.
    """
    gens = np.asarray(gens, dtype=np.int64)
    limit = table.shape[0] if limit is None else limit
    if base is not None:
        return _extend(table, np.asarray(base, dtype=np.int64), gens, limit)
    members = np.zeros(1, dtype=np.int64)
    for k in range(gens.size):
        members = _extend(table, members, gens[: k + 1], limit)
        if members.size == 0:
            break
    return members


def _extend(table, H, gens, limit):
    """<H, gens[-1]> for H = <gens[:-1]>, or an empty array past ``limit``."""
    member = np.zeros(table.shape[0], dtype=bool)
    member[H] = True
    reps = [0]
    for x in reps:  # the representatives grow while they are walked
        for y in table[x, gens].tolist():
            if not member[y]:
                member[table[H, y]] = True
                reps.append(y)
        if H.size * len(reps) > limit:
            return np.empty(0, dtype=np.int64)
    return np.flatnonzero(member)


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
