"""Per-layer tracing from outside the library.

The tracer replaces module-level bindings of chosen p1covers functions
(and a few methods) with wrappers that record one span per call: the
label, the label of the enclosing span, the inclusive duration and the
self time (duration minus the spans nested in it). Spans stay in memory
as per-(parent, label) aggregates; nothing is written until `metrics()`.

A library function is wrapped where another module calls it, not where
it is defined, so a span marks a call that crosses from one module into
another. The census stages are private helpers of `census.py`; they are
wrapped in that module's namespace, which delimits the stages without
editing the library. `uninstall()` restores every binding.
"""

from __future__ import annotations

import sys
import time

from p1covers import cartier as _cartier
from p1covers import census as _census
from p1covers import cover as _cover
from p1covers import deform as _deform
from p1covers import family as _family
from p1covers import field as _field
from p1covers import poly as _poly

ROOT = "bench"

# (defining module, function name, label, where the binding is replaced):
# "importers" = every other p1covers module, the package itself included;
# "census" = the census module only; "everywhere" = the defining module too
FUNCTIONS = [
    (_poly, "raw_gcd", "poly.raw_gcd", "importers"),
    # the discriminant stage of the census scan, not reported per call
    (_poly, "raw_mul", "poly.raw_mul", "census"),
    (_poly, "raw_sub", "poly.raw_sub", "census"),
    (_poly, "raw_deriv", "poly.raw_deriv", "census"),
    (_poly, "raw_monic", "poly.raw_monic", "census"),
    (_poly, "raw_rank", "poly.raw_rank", "importers"),
    (_poly, "raw_sqf_list", "poly.raw_sqf_list", "importers"),
    # raw_ddf is only ever called from inside poly, by the root finder
    (_poly, "raw_ddf", "poly.raw_ddf", "everywhere"),
    (_poly, "roots_with_multiplicity", "poly.roots", "importers"),
    (_cover, "_raw_normalize", "cover.raw_normalize", "importers"),
    (_deform, "_tangent_columns_raw", "deform.tangent_columns", "importers"),
    (_deform, "tangent_dim", "deform.tangent_dim", "importers"),
    (_deform, "brute_force_tangent", "deform.brute_force_tangent", "importers"),
    (_deform, "lift_deformation", "deform.lift_deformation", "importers"),
    (_cartier, "operator_matrix", "cartier.operator_matrix", "importers"),
    (_cartier, "kernel_T", "cartier.kernel_T", "importers"),
    (_cartier, "image_T", "cartier.image_T", "importers"),
    (_family, "wild_family", "family.wild_family", "importers"),
    (_family, "verify_family", "family.verify_family", "importers"),
    (_census, "census_by_disc", "census.census_by_disc", "importers"),
]

# census stages: private helpers, wrapped in the census namespace only
CENSUS_STAGES = [
    ("_scan_chunk", "census.scan"),
    ("_tangent_dim_raw", "census.tangent"),
    ("_length_structure", "census.length_structure"),
    ("_materialize_divisor", "census.points"),
    ("_count_galois_orbits", "census.orbits"),
    ("_merge_tables", "census.merge"),
]

METHODS = [
    (_cover.Cover, "discriminant", "cover.discriminant"),
    (_cover.Cover, "differential_lengths", "cover.differential_lengths"),
    (_cover.Cover, "equivalent", "cover.equivalent"),
    (_cover.Cover, "normalize", "cover.normalize"),
]
TABLES = (_field.FieldSpec, "_build_tables", "field.tables")

# boundaries that never reach another wrapped call
LEAVES = {"poly.raw_gcd", "poly.raw_mul", "poly.raw_sub", "poly.raw_deriv",
          "poly.raw_monic", "poly.raw_rank", "poly.raw_sqf_list", "poly.raw_ddf",
          "deform.tangent_columns"}

DISC_LABELS = ("poly.raw_mul", "poly.raw_sub", "poly.raw_deriv", "poly.raw_monic")


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "p1covers" or name.startswith("p1covers."))]


class Tracer:
    """Installs span wrappers; aggregates spans by (parent label, label)."""

    def __init__(self):
        self.spans = {}            # (parent label, label) -> [calls, busy_s, self_s]
        self.counts = {}           # named counters observed at boundaries
        self._stack = [[ROOT, 0.0]]
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def _wrap(self, label, fn, observe=None, leaf=False):
        """A span wrapper. A leaf calls no other wrapped function, so it
        needs no frame of its own and its self time is its duration."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def record(parent, dt, inner):
            parent[1] += dt
            key = (parent[0], label)
            agg = spans.get(key)
            if agg is None:
                agg = spans[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - inner

        def leaf_span(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            record(stack[-1], clock() - t0, 0.0)
            if observe is not None:
                observe(stack[-1][0], args, result)
            return result

        def span(*args, **kwargs):
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(stack[-1], dt, frame[1])
            if observe is not None:
                observe(stack[-1][0], args, result)
            return result

        return leaf_span if leaf else span

    # -- boundary observers ----------------------------------------------------

    def _obs_gcd(self, parent, args, result):
        if parent == "census.scan" and len(result) > 1:
            self._count("census.coprime_rejects")

    def _obs_sub(self, parent, args, result):
        if parent == "census.scan" and not result:
            self._count("census.inseparable_rejects")

    def _obs_normalize(self, parent, args, result):
        if result[0] is not args[0]:
            self._count("cover.raw_normalize.extended")

    def _obs_points(self, parent, args, result):
        if result[1]:
            self._count("census.points.split")

    # -- installation --------------------------------------------------------

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self, scope="all"):
        """scope "all" wraps every boundary (a census must then run in one
        process: pool workers cannot receive the wrappers); "tables" wraps
        the field table builds only, and a later install() adds the rest."""
        if scope in ("tables", "all") and not self._undo:
            cls, name, label = TABLES
            self._patch(cls, name, self._wrap(label, cls.__dict__[name]))
        if scope == "tables":
            return self
        observers = {"poly.raw_gcd": self._obs_gcd, "poly.raw_sub": self._obs_sub,
                     "cover.raw_normalize": self._obs_normalize,
                     "census.points": self._obs_points}
        modules = _library_modules()
        for home, name, label, where in FUNCTIONS:
            original = getattr(home, name)
            wrapped = self._wrap(label, original, observers.get(label),
                                 leaf=label in LEAVES)
            targets = {"importers": [m for m in modules if m is not home],
                       "census": [_census], "everywhere": modules}[where]
            for mod in targets:
                if mod.__dict__.get(name) is original:
                    self._patch(mod, name, wrapped)
        for name, label in CENSUS_STAGES:
            self._patch(_census, name, self._wrap(label, getattr(_census, name),
                                                  observers.get(label)))
        for cls, name, label in METHODS:
            self._patch(cls, name, self._wrap(label, cls.__dict__[name]))
        self._patch(_deform, "_first_order_residual",
                    self._counting(_deform._first_order_residual))
        return self

    def _counting(self, fn):
        """Counts calls made by the brute-force oracle: one per trial."""
        stack = self._stack
        counts = self.counts

        def counted(*args):
            if stack[-1][0] == "deform.brute_force_tangent":
                counts["deform.oracle_trials"] = counts.get("deform.oracle_trials", 0) + 1
            return fn(*args)

        return counted

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- read-out ------------------------------------------------------------

    def calls(self, label, parent=None):
        return sum(a[0] for (par, lab), a in self.spans.items()
                   if lab == label and (parent is None or par == parent))

    def busy(self, label, parent=None):
        """Inclusive time of the outermost spans with this label."""
        return sum(a[1] for (par, lab), a in self.spans.items()
                   if lab == label and par != label and (parent is None or par == parent))

    def self_time(self, label):
        return sum(a[2] for (par, lab), a in self.spans.items() if lab == label)

    def metrics(self):
        """Per-layer metrics from the recorded spans, as {name: (value, unit)}."""
        out = {}
        scan = "census.scan"
        candidates = self.calls("poly.raw_gcd", scan)
        classes = self.calls("poly.raw_monic", scan)
        for name, value in [
                ("census.candidates", candidates),
                ("census.coprime_rejects", self.counts.get("census.coprime_rejects", 0)),
                ("census.inseparable_rejects",
                 self.counts.get("census.inseparable_rejects", 0)),
                ("census.classes", classes),
                ("census.records", self.calls("census.length_structure")),
                ("census.orbit_candidates", self.calls("poly.raw_gcd", "census.orbits")),
                ("census.points.split", self.counts.get("census.points.split", 0))]:
            out[name] = (value, "count")
        out["census.class_yield"] = (classes / candidates if candidates else 0.0, "ratio")
        out["census.scan.self_s"] = (self.self_time(scan), "s")
        out["census.coprime.calls"] = (candidates, "count")
        out["census.coprime.busy_s"] = (self.busy("poly.raw_gcd", scan), "s")
        out["census.disc.calls"] = (self.calls("poly.raw_sub", scan), "count")
        out["census.disc.busy_s"] = (sum(self.busy(l, scan) for l in DISC_LABELS), "s")
        stage_labels = [label for _, label in CENSUS_STAGES if label != scan]
        for label in stage_labels + LAYER_LABELS:
            out[label + ".calls"] = (self.calls(label), "count")
            out[label + ".busy_s"] = (self.busy(label), "s")
        out["cover.raw_normalize.extended"] = (
            self.counts.get("cover.raw_normalize.extended", 0), "count")
        out["deform.oracle_trials"] = (self.counts.get("deform.oracle_trials", 0), "count")
        out["field.tables.built"] = out.pop("field.tables.calls")
        return out


# boundaries reported as layer metrics; the other wrapped calls only feed
# the census stage figures
LAYER_LABELS = [
    "cover.raw_normalize", "cover.discriminant", "cover.differential_lengths",
    "cover.equivalent", "cover.normalize",
    "deform.tangent_columns", "deform.tangent_dim", "deform.brute_force_tangent",
    "deform.lift_deformation",
    "poly.raw_gcd", "poly.raw_rank", "poly.raw_sqf_list", "poly.raw_ddf", "poly.roots",
    "cartier.operator_matrix", "cartier.kernel_T", "cartier.image_T",
    "family.wild_family", "family.verify_family",
    "field.tables",
]
