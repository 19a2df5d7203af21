"""Spans around calls into the octavib layers, recorded from outside the package.

The tracer replaces public module-level functions and public methods of the
package with thin wrappers (module attributes and class attributes; nothing
in the package source changes).  Each call records one span

    (op id, span id, parent span id, name, start, end, self time)

in memory, except that the memoized methods in ``KEYED`` are traced only on
an argument key the wrapper has not seen before.  The package caches every
key they compute, so a repeated key is a cache hit: it is counted (for the
miss ratio) but neither timed nor recorded, and its few hundred nanoseconds
stay in the caller's self time.  They are called millions of times; a span
per hit cost hundreds of megabytes and doubled the traced op time.  Self
time is the span's duration minus the time covered by its direct child
spans.  Spans are written out once, when the run ends.

Op id 0 is set-up (and warm-up ops); timed ops have ids from 1.  Per-function
counts, cache hits, classes and bytes cover the timed ops only, and set-up
self time is summed per layer apart from them.

Only functions that do a measurable amount of work per call are wrapped;
tiny hot helpers (group element encode/decode/multiply, float formatting)
would cost more to trace than they take, and their time shows up as self
time of the wrapped caller.
"""

import os
import sys
import time

# (metric name, module, attribute path inside the module)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("force_field.find_equilibrium", "force_field", "find_equilibrium"),
    ("force_field.hessian_blocks", "force_field", "hessian_blocks"),
    ("force_field.gradient", "force_field", "gradient"),
    ("spectral.spectrum_at_equilibrium", "spectral", "spectrum_at_equilibrium"),
    ("spectral.numeric_spectrum", "spectral", "numeric_spectrum"),
    ("spectral.assign_eigenspaces", "spectral", "assign_eigenspaces"),
    ("spectral.to_json", "spectral", "SpectrumReport.to_json"),
    ("group_core.catalog", "group_core", "catalog"),
    ("group_core.action_matrix_18", "group_core", "action_matrix_18"),
    ("orbit_o2.graph_classes", "orbit_o2", "graph_classes"),
    ("orbit_o2.maximal_orbit_types", "orbit_o2", "maximal_orbit_types"),
    ("orbit_o2.pin_reference_labels", "orbit_o2", "pin_reference_labels"),
    ("orbit_o2.basic_degree", "orbit_o2", "basic_degree"),
    ("orbit_o2.mode_cover", "orbit_o2", "mode_cover"),
    ("orbit_o2.find_class", "orbit_o2", "TemporalOctahedralRing.find_class"),
    ("orbit_o2.register_cover", "orbit_o2", "TemporalOctahedralRing.register_cover"),
    ("orbit_o2.candidate_subtypes", "orbit_o2", "TemporalOctahedralRing.candidate_subtypes"),
    ("orbit_o2.fixed_cosets", "orbit_o2", "TemporalOctahedralRing.fixed_cosets"),
    ("orbit_o2.fixed_dim", "orbit_o2", "TemporalOctahedralRing.fixed_dim"),
    ("orbit_o2.is_conjugate", "orbit_o2", "ConcreteSubgroup.is_conjugate"),
    ("orbit_o2.weyl_order", "orbit_o2", "ConcreteSubgroup.weyl_order"),
    ("burnside.multiply_generators", "burnside", "BurnsideRing.multiply_generators"),
    ("burnside.mul", "burnside", "BurnsideElement.__mul__"),
    ("burnside.pi0_truncate", "burnside", "BurnsideRing.pi0_truncate"),
    ("bifurcation.critical_set", "bifurcation", "critical_set"),
    ("bifurcation.engine_from_spectrum", "bifurcation", "engine_from_spectrum"),
    ("bifurcation.report", "bifurcation", "InvariantEngine.report"),
    ("bifurcation.degree", "bifurcation", "InvariantEngine.degree"),
    ("bifurcation.maximal_classes", "bifurcation", "InvariantEngine.maximal_classes"),
    ("bifurcation.invariant_full", "bifurcation", "InvariantEngine.invariant_full"),
    ("bifurcation.maximal_terms", "bifurcation", "InvariantEngine.maximal_terms"),
    ("bifurcation.fast_coefficient", "bifurcation", "InvariantEngine.fast_coefficient"),
    ("modes.workshop_init", "modes", "ModeWorkshop.__init__"),
    ("modes.types_for", "modes", "ModeWorkshop.types_for"),
    ("modes.fixed_pairs", "modes", "ModeWorkshop.fixed_pairs"),
    ("modes.build_mode", "modes", "ModeWorkshop.build_mode"),
    ("modes.verify_symmetry", "modes", "ModeWorkshop.verify_symmetry"),
    ("modes.nonlinear_residual", "modes", "ModeWorkshop.nonlinear_residual"),
    ("modes.export_trajectory", "modes", "export_trajectory"),
    ("modes.read_trajectory", "modes", "read_trajectory"),
    ("modes.mode_manifest", "modes", "mode_manifest"),
    ("accel.gradient", "accel", "gradient"),
    ("_serialize.dumps", "_serialize", "dumps"),
)

LAYERS = (
    "cli", "force_field", "spectral", "group_core", "orbit_o2", "burnside",
    "bifurcation", "modes", "accel", "_serialize",
)

# miss_ratio = new argument keys / calls, for these memoized methods
KEYED = ("orbit_o2.fixed_cosets", "burnside.multiply_generators")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.op = 0  # 0 while setting up, then the id of the running op
        self.spans = []  # (op id, span id, parent id, name, start, end, self time)
        self.keys = {name: set() for name in KEYED}
        self.hits = {name: [0] for name in KEYED}  # cache hits in timed ops
        self.classes = set()
        self.bytes_computed = 0
        self.bytes_written = 0
        self.full_reports = 0
        self.agreements = 0
        self._stack = []
        self._next_id = 1
        self._patches = []  # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------
    def install(self):
        if self._patches:
            return
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "octavib" or name.startswith("octavib.")
        }
        for name, module, path in TARGETS:
            mod = mods[f"octavib.{module}"]
            *owner_path, attr = path.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if owner_path:
                self._patch(owner, attr, original, wrapper)
                continue
            # a function imported by name into other modules is bound there too
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, name, fn):
        keys = self.keys.get(name)
        hits = self.hits.get(name)
        post = self._post_hooks().get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if keys is not None:
                key = args[1:]
                if key in keys:
                    # a cache hit: counted, its time left to the caller
                    if tracer.op:
                        hits[0] += 1
                    return fn(*args, **kwargs)
                keys.add(key)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                spans.append(
                    (tracer.op, sid, parent[0] if parent else 0, name, t0, t1, dur - frame[1])
                )
            if post is not None and tracer.op:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _post_hooks(self):
        def classes(args, result):
            self.classes.update(result)

        def gradient_bytes(args, result):
            self.bytes_computed += args[0].nbytes + result.nbytes

        def csv_bytes(args, result):
            self.bytes_written += os.path.getsize(result)

        def manifest_bytes(args, result):
            self.bytes_written += len(result.encode()) + 1  # written with "\n"

        def agreement(args, result):
            if result.invariant is not None:
                self.full_reports += 1
                self.agreements += bool(result.agreement())

        return {
            "orbit_o2.graph_classes": classes,
            "orbit_o2.maximal_orbit_types": classes,
            "accel.gradient": gradient_bytes,
            "modes.export_trajectory": csv_bytes,
            "modes.mode_manifest": manifest_bytes,
            "bifurcation.report": agreement,
        }

    # -- results -----------------------------------------------------------
    def summary(self):
        """JSON-ready per-function counts of the timed ops and per-layer self times.

        A span of a ``KEYED`` method is a new key, so its timed-op spans are
        the misses; its calls are those plus the cache hits.
        """
        functions = {name: {"calls": 0, "self_s": 0.0} for name, _, _ in TARGETS}
        op_self = {layer: 0.0 for layer in LAYERS}
        setup_self = {layer: 0.0 for layer in LAYERS}
        for op, _, _, name, _, _, own in self.spans:
            layer = name.split(".")[0]
            if op == 0:
                setup_self[layer] += own
                continue
            op_self[layer] += own
            functions[name]["calls"] += 1
            functions[name]["self_s"] += own
        misses = {name: functions[name]["calls"] for name in KEYED}
        for name, (n,) in self.hits.items():
            functions[name]["calls"] += n
        return {
            "functions": functions,
            "misses": misses,
            "classes": sorted(self.classes),
            "bytes_computed": self.bytes_computed,
            "bytes_written": self.bytes_written,
            "full_reports": self.full_reports,
            "agreements": self.agreements,
            "op_self_s": op_self,
            "setup_self_s": setup_self,
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        """Write every span as CSV; times in seconds from the first span."""
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_s,end_s,self_s\n")
            for op, sid, parent, name, t0, t1, own in self.spans:
                fh.write(
                    f"{op},{sid},{parent},{name},{t0 - base:.9f},{t1 - base:.9f},{own:.9f}\n"
                )
