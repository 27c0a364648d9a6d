"""Span tracer that measures sunadalab's layers from outside the package.

``Tracer.install`` replaces public functions with timing wrappers.  A
module that imported a function by name holds its own reference, so the
wrapper is put in place of every reference any sunadalab module holds
(for example ``gassmann.subgroups_of_order`` as well as
``permgrp.subgroups_of_order``).  A function that no longer exists reads
as absent and its metrics as zero; that is not an error.

Each call records a span (name, start, end, parent span, pass id).  The
spans stay in memory until ``dump`` writes them out, and self time is
computed from them: a span's duration minus the durations of its
direct children.
"""

import functools
import importlib
import json
import sys
import tracemalloc
from time import perf_counter

# (span name, module, attribute).  The span names are the per-layer
# metric prefixes; each layer is a package module.
WRAPPED = (
    ("permgrp.generate_group", "sunadalab.permgrp", "generate_group"),
    ("permgrp.table", "sunadalab._kernels", "mul_table"),
    ("permgrp.closure", "sunadalab._kernels", "closure"),
    ("permgrp.conjugacy_classes", "sunadalab.permgrp", "conjugacy_classes"),
    ("permgrp.subgroups_of_order", "sunadalab.permgrp", "subgroups_of_order"),
    ("permgrp.all_subgroups", "sunadalab.permgrp", "all_subgroups"),
    ("permgrp.are_conjugate_subgroups", "sunadalab.permgrp", "are_conjugate_subgroups"),
    ("chartab.character_table", "sunadalab.chartab", "character_table"),
    ("chartab.permutation_character", "sunadalab.chartab", "permutation_character"),
    ("gassmann.gassmann_search", "sunadalab.gassmann", "gassmann_search"),
    ("gassmann.triple_report", "sunadalab.gassmann", "triple_report"),
    ("quotspec.gspace", "sunadalab.quotspec", "gspace"),
    ("quotspec.cayley_graph", "sunadalab.quotspec", "cayley_graph"),
    ("quotspec.invariant_spectrum", "sunadalab.quotspec", "invariant_spectrum"),
    ("quotspec.quotient_graph", "sunadalab.quotspec", "quotient_graph"),
    ("quotspec.isotypic_multiplicities", "sunadalab.quotspec", "isotypic_multiplicities"),
    ("quotspec.sunada_identity_check", "sunadalab.quotspec", "sunada_identity_check"),
    ("quotspec.donnelly_support", "sunadalab.quotspec", "donnelly_support"),
    ("quotspec.perturb_invariant_weights", "sunadalab.quotspec", "perturb_invariant_weights"),
    # quotspec reaches LAPACK through the numpy.linalg attributes
    ("quotspec.eigh", "numpy.linalg", "eigh"),
    ("quotspec.eigh", "numpy.linalg", "eigvalsh"),
    ("heatkit.heat_trace", "sunadalab.heatkit", "heat_trace"),
    ("heatkit.rect_torus_spectrum", "sunadalab.heatkit", "rect_torus_spectrum"),
    ("heatkit.constant_term_estimate", "sunadalab.heatkit", "constant_term_estimate"),
    ("heatkit.singularity_audibility_report", "sunadalab.heatkit", "singularity_audibility_report"),
    ("cli.main", "sunadalab.cli", "main"),
)

# cli.main spans are named after the subcommand in argv[0]
CLI_SUBCOMMANDS = ("group-info", "gassmann", "sunada", "heat")


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "sunadalab" or name.startswith("sunadalab.")
    ]


def span_names():
    """Every span name the tracer can report, in a stable order."""
    names = []
    for name, _, _ in WRAPPED:
        if name == "cli.main":
            names.extend(f"cli.{sub}" for sub in CLI_SUBCOMMANDS)
        elif name not in names:
            names.append(name)
    return names


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id]
        self.pass_id = 0
        self.sums = {}  # counters summed over calls
        self.peaks = {}  # counters kept as their largest value
        self.absent = []
        self._stack = []
        self._closure_results = set()

    def add(self, key, value):
        self.sums[key] = self.sums.get(key, 0) + value

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    def install(self):
        for name, module_name, attr in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, fn)
            setattr(module, attr, wrapper)
            for holder in package_modules():
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)

    def _wrap(self, name, fn):
        observe = {
            "permgrp.closure": self._count_distinct_closure,
            "quotspec.eigh": self._count_eigh_n3,
        }.get(name)
        measure_alloc = name == "quotspec.isotypic_multiplicities"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0]}" if argv else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([span_name, 0.0, 0.0, parent, self.pass_id])
            self._stack.append(index)
            alloc = measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if alloc:
                    self.peak(name + ".alloc_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count_distinct_closure(self, args, result):
        # distinct subgroups found, keyed by the group's table object
        key = (id(args[0]), result.tobytes())
        if key not in self._closure_results:
            self._closure_results.add(key)
            self.add("permgrp.closure.distinct", 1)

    def _count_eigh_n3(self, args, result):
        n = args[0].shape[0]
        self.add("quotspec.eigh.n3", n**3)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "sums": self.sums, "peaks": self.peaks, "absent": self.absent},
                fh,
            )

    def merge(self, path):
        """Add the spans and counters another process dumped, under the
        current pass id."""
        with open(path, encoding="utf-8") as fh:
            other = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent, _ in other["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, self.pass_id])
        for key, value in other["sums"].items():
            self.add(key, value)
        for key, value in other["peaks"].items():
            self.peak(key, value)
        self.absent.extend(a for a in other["absent"] if a not in self.absent)

    def layer_metrics(self, passes):
        """Per-pass totals of every span name, plus the derived counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: [0.0, 0.0, 0] for name in span_names()}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            acc = totals.get(name)
            if acc is None:  # e.g. a subcommand that has no metric of its own
                continue
            acc[0] += end - start
            acc[1] += end - start - children
            acc[2] += 1
        metrics = {}
        for name, (total, self_time, calls) in totals.items():
            metrics[f"{name}.total_s"] = (total / passes, "s")
            metrics[f"{name}.self_s"] = (self_time / passes, "s")
            metrics[f"{name}.calls"] = (calls / passes, "count")
        closures = totals["permgrp.closure"][2]
        distinct = self.sums.get("permgrp.closure.distinct", 0)
        metrics["permgrp.subgroups_per_closure"] = (distinct / closures if closures else 0.0, "ratio")
        metrics["quotspec.eigh.n3"] = (self.sums.get("quotspec.eigh.n3", 0) / passes, "count")
        metrics["quotspec.isotypic_multiplicities.alloc_peak_mb"] = (
            self.peaks.get("quotspec.isotypic_multiplicities.alloc_peak_mb", 0.0),
            "MB",
        )
        return metrics
