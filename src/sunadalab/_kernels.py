"""Hot inner-loop kernels with two interchangeable backends.

Every kernel exists twice: a numba ``@njit`` version and a pure-numpy
version.  The active backend is chosen once at import time from the
``SUNADALAB_BACKEND`` environment variable (``numba`` or ``numpy``);
the default is numba when it is importable, numpy otherwise.  Both
implementations are kept importable side by side so the test suite can
assert parity and ``benchmarks/bench_kernels.py`` can time them against
each other.

Conventions shared by all kernels:

* group elements are row indices into a lexicographically sorted
  ``(order, degree)`` int32 image matrix, with the identity at index 0;
* ``table[i, j]`` is the index of the composition ``elems[i] ∘ elems[j]``
  (apply j first);
* class indices are assigned in order of each class's minimal element,
  so the identity's class is always class 0.
"""

import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # numba is the optional ``numba`` extra
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap(args[0]) if args and callable(args[0]) else wrap


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------

def _row_index_map(elems):
    """dict mapping each image row (as bytes) to its row index."""
    e = np.ascontiguousarray(elems, dtype=np.int32)
    return {e[i].tobytes(): i for i in range(e.shape[0])}


def mul_table_numpy(elems):
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


def closure_numpy(table, seed):
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


def conjugacy_partition_numpy(table, inv):
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


def heat_sum_numpy(eigenvalues, multiplicities, t_grid):
    """Sum_i m_i exp(-lambda_i t) for each t, eigenvalues in ascending order."""
    out = np.empty(len(t_grid), dtype=np.float64)
    for k, t in enumerate(t_grid):
        out[k] = float(np.sum(multiplicities * np.exp(-eigenvalues * t)))
    return out


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

@njit(cache=True)
def _find_row(elems, row):
    """Binary search for ``row`` in the lexicographically sorted ``elems``."""
    lo, hi = 0, elems.shape[0]
    d = elems.shape[1]
    while lo < hi:
        mid = (lo + hi) // 2
        cmp = 0
        for k in range(d):
            if elems[mid, k] < row[k]:
                cmp = -1
                break
            if elems[mid, k] > row[k]:
                cmp = 1
                break
        if cmp < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit(cache=True)
def mul_table_numba(elems):
    n, d = elems.shape
    table = np.empty((n, n), dtype=np.int32)
    row = np.empty(d, dtype=np.int32)
    for a in range(n):
        for b in range(n):
            for k in range(d):
                row[k] = elems[a, elems[b, k]]
            table[a, b] = _find_row(elems, row)
    return table


@njit(cache=True)
def closure_numba(table, seed):
    n = table.shape[0]
    member = np.zeros(n, dtype=np.bool_)
    stack = np.empty(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    member[0] = True
    order[0] = 0
    count = 1
    top = 0
    stack[top] = 0
    top += 1
    for s in seed:
        if not member[s]:
            member[s] = True
            order[count] = s
            count += 1
            stack[top] = s
            top += 1
    while top > 0:
        top -= 1
        x = stack[top]
        for i in range(count):
            y = order[i]
            for z in (table[x, y], table[y, x]):
                if not member[z]:
                    member[z] = True
                    order[count] = z
                    count += 1
                    stack[top] = z
                    top += 1
    return np.sort(order[:count])


@njit(cache=True)
def conjugacy_partition_numba(table, inv):
    n = table.shape[0]
    class_of = np.full(n, -1, dtype=np.int64)
    next_class = 0
    for g in range(n):
        if class_of[g] >= 0:
            continue
        for x in range(n):
            class_of[table[x, table[g, inv[x]]]] = next_class
        next_class += 1
    return class_of


@njit(cache=True)
def heat_sum_numba(eigenvalues, multiplicities, t_grid):
    out = np.empty(len(t_grid), dtype=np.float64)
    for k in range(len(t_grid)):
        acc = 0.0
        for i in range(len(eigenvalues)):
            acc += multiplicities[i] * np.exp(-eigenvalues[i] * t_grid[k])
        out[k] = acc
    return out


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

def _pick_backend():
    choice = os.environ.get("SUNADALAB_BACKEND", "").strip().lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not _HAVE_NUMBA:
            raise ImportError("SUNADALAB_BACKEND=numba but numba is not importable")
        return "numba"
    if choice:
        raise ValueError(f"unknown SUNADALAB_BACKEND={choice!r} (want 'numba' or 'numpy')")
    return "numba" if _HAVE_NUMBA else "numpy"


BACKEND = _pick_backend()

if BACKEND == "numba":
    mul_table = mul_table_numba
    closure = closure_numba
    conjugacy_partition = conjugacy_partition_numba
    heat_sum = heat_sum_numba
else:
    mul_table = mul_table_numpy
    closure = closure_numpy
    conjugacy_partition = conjugacy_partition_numpy
    heat_sum = heat_sum_numpy
