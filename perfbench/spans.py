"""Spans around the calls into each weldfcs layer, recorded from outside.

Each layer's public functions are wrapped where the pipeline looks them up
(a module global or a class attribute), so the program itself is unchanged.
A span holds its name, start, end, parent span and the ln Psi row it
serves; counts are taken at the same boundaries.  Spans stay in memory and
are written out once, at the end of the run.  A layer whose wrapped name
has been renamed or removed is reported as absent and left unwrapped.
"""

from __future__ import annotations

import importlib
import json
import time

# layer -> [(module, attribute path, kind)]; kind is "func" or "property"
TARGETS = {
    "cli": [("weldfcs.cli", "main", "func")],
    "cli.write": [("weldfcs.cli", "_write_json", "func"),
                  ("weldfcs.cli", "_write_csv", "func")],
    "fcs": [("weldfcs.cli", "psi_infinite", "func"),
            ("weldfcs.cli", "psi_finite", "func")],
    "profile.xi": [("weldfcs.profile", "XiField.__call__", "func")],
    "flows": [("weldfcs.fcs", "_line_flow_family", "func"),
              ("weldfcs.fcs", "flow_family", "func")],
    "cylinder_weld.solve": [("weldfcs.fcs", "solve_cylinder", "func")],
    "cylinder_weld.assemble": [("weldfcs.cylinder_weld", "assemble_sigma",
                                "func")],
    "cylinder_weld.reconstruct": [
        ("weldfcs.cylinder_weld", "CylinderWeldSolution.xprime", "property"),
        ("weldfcs.cylinder_weld", "CylinderWeldSolution.schwarzian",
         "property")],
    "torus_weld.solve": [("weldfcs.fcs", "solve_Y1", "func")],
    "torus_weld.assemble": [("weldfcs.torus_weld", "assemble_K", "func")],
    "torus_weld.reconstruct": [
        ("weldfcs.torus_weld", "TorusWeldSolution.xprime", "property"),
        ("weldfcs.torus_weld", "TorusWeldSolution.schwarzian", "property")],
    "analysis.counterterm": [("weldfcs.fcs", "counterterm_mover", "func"),
                             ("weldfcs.fcs", "counterterm_finite", "func")],
    "characters.log_character": [("weldfcs.fcs", "log_character", "func")],
    "cache.get": [("weldfcs.cache", "SolveCache.get_scalar", "func")],
    "cache.put": [("weldfcs.cache", "SolveCache.put_scalar", "func")],
}

# per-layer metric -> (span whose self time it sums, or counter name)
TIME_METRICS = {
    "profile.xi_s": "profile.xi",
    "flows.self_s": "flows",
    "cylinder_weld.assemble_s": "cylinder_weld.assemble",
    "cylinder_weld.solve_s": "cylinder_weld.solve",
    "cylinder_weld.reconstruct_s": "cylinder_weld.reconstruct",
    "torus_weld.assemble_s": "torus_weld.assemble",
    "torus_weld.solve_s": "torus_weld.solve",
    "torus_weld.reconstruct_s": "torus_weld.reconstruct",
    "analysis.counterterm_s": "analysis.counterterm",
    "characters.log_character_s": "characters.log_character",
    "fcs.self_s": "fcs",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "cli.write_s": "cli.write",
    "cli.self_s": "cli",
}
COUNT_METRICS = {
    "profile.xi_calls": ("profile.xi", "calls"),
    "flows.calls": ("flows", "calls"),
    "cylinder_weld.nodes": ("cylinder_weld.solve", "calls"),
    "cylinder_weld.matrix_n": ("cylinder_weld.assemble", "matrix_n"),
    "cylinder_weld.lattice_m": ("cylinder_weld.assemble", "lattice_m"),
    "torus_weld.nodes": ("torus_weld.solve", "calls"),
    "torus_weld.matrix_n": ("torus_weld.assemble", "matrix_n"),
    "analysis.counterterm_calls": ("analysis.counterterm", "calls"),
    "cache.hits": ("cache.get", "hits"),
    "cache.misses": ("cache.get", "misses"),
}


def _resolve(module: str, path: str):
    """Owner, attribute name and current value of ``module.path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # a class's own __dict__ holds the property object, not its value
    value = vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    return owner, attr, value


def _note(layer: str, result, counts: dict):
    """Layer-specific counts read off a call's result."""
    if layer == "cylinder_weld.assemble":
        counts["matrix_n"] = max(counts.get("matrix_n", 0),
                                 int(result.sigma.shape[0]))
        counts["lattice_m"] = max(counts.get("lattice_m", 0),
                                  int(result.problem.grid.M))
    elif layer == "torus_weld.assemble":
        counts["matrix_n"] = max(counts.get("matrix_n", 0),
                                 len(result.modes) - 1)
    elif layer == "cache.get":
        key = "misses" if result is None else "hits"
        counts[key] = counts.get(key, 0) + 1


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, row]
        self.rows = []           # row labels, indexed by the spans' row
        self.counts = {}         # layer -> {counter: value}
        self.absent = []
        self._stack = []
        self._row = None
        self._wrappers = {}
        for layer, targets in TARGETS.items():
            try:
                resolved = [(_resolve(m, p), kind) for m, p, kind in targets]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(layer)
                continue
            for (owner, attr, orig), kind in resolved:
                self._wrappers[(owner, attr)] = (
                    orig, self._wrap(layer, orig, kind))

    def _wrap(self, layer: str, orig, kind: str):
        tracer = self
        func = orig.fget if kind == "property" else orig
        is_row = layer == "fcs"

        def wrapped(*args, **kwargs):
            spans = tracer.spans
            parent = tracer._stack[-1] if tracer._stack else -1
            if is_row:
                volume = "infinite" if func.__name__ == "psi_infinite" \
                    else "finite"
                t = args[3] if volume == "finite" else args[2]
                tracer.rows.append(f"t={t!r} lambda={kwargs.get('lam')!r} "
                                   f"{volume}")
                tracer._row = len(tracer.rows) - 1
            idx = len(spans)
            spans.append([layer, time.perf_counter(), None, parent,
                          tracer._row])
            tracer._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._stack.pop()
                spans[idx][2] = time.perf_counter()
                counts = tracer.counts.setdefault(layer, {})
                counts["calls"] = counts.get("calls", 0) + 1
                if is_row:
                    tracer._row = None
            _note(layer, result, counts)
            return result

        wrapped.__name__ = func.__name__
        wrapped.__wrapped__ = func
        return property(wrapped) if kind == "property" else wrapped

    def install(self):
        for (owner, attr), (orig, wrapped) in self._wrappers.items():
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for (owner, attr), (orig, wrapped) in self._wrappers.items():
            setattr(owner, attr, orig)

    def mark(self) -> tuple[int, dict]:
        """Position to measure the next round from."""
        return len(self.spans), json.loads(json.dumps(self.counts))

    def metrics_since(self, mark: tuple[int, dict]) -> dict:
        """Per-layer metrics of the spans and counts recorded after ``mark``."""
        start, counts0 = mark
        spans = self.spans[start:]
        self_time = {}
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(spans):
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0) - child[i]

        def count(layer, key):
            now = self.counts.get(layer, {}).get(key, 0)
            before = counts0.get(layer, {}).get(key, 0)
            return now - before if key not in ("matrix_n", "lattice_m") \
                else now

        out = {}
        for metric, layer in TIME_METRICS.items():
            if layer not in self.absent:
                out[metric] = self_time.get(layer, 0.0)
        for metric, (layer, key) in COUNT_METRICS.items():
            if layer not in self.absent:
                out[metric] = count(layer, key)
        if not {"cylinder_weld.solve", "torus_weld.solve"} & set(self.absent):
            out["fcs.weld_nodes"] = (count("cylinder_weld.solve", "calls")
                                     + count("torus_weld.solve", "calls"))
        if "cache.get" not in self.absent:
            hits = count("cache.get", "hits")
            looked = hits + count("cache.get", "misses")
            out["cache.hit_ratio"] = hits / looked if looked else 0.0
        return out

    def dump(self, path):
        """Write every span, one JSON object a line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, row in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": t0, "end": t1, "parent": parent,
                    "row": None if row is None else self.rows[row]}) + "\n")
