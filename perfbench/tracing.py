"""Per-layer tracing of hermgeo from outside the program.

``Tracer.install`` replaces public functions of the hermgeo modules (and some
``ManifoldChart``, ``Immersion`` and ``FrameSampler`` methods) by wrappers
that record spans and counts; ``Tracer.restore`` puts every original back.
A span keeps its name, start, end, parent span and the index of the CLI
command it belongs to.  Spans stay in memory until ``write`` at the end of
the run.

``expressions.evaluate``, ``differentiate`` and ``substitute`` recurse
through their module global, so their wrapper sees every node: every entry
counts as a node, and only the outermost call opens a span (one per tree).
"""

import json
import sys
import time
from collections import defaultdict

# module -> functions that get one span per call
SPANS = {
    "cli": ["main"],
    "reportio": ["load_manifold_file", "dump_report"],
    "expressions": ["parse"],
    "curvature": ["point_data", "riemann", "christoffel", "curvature_value"],
    "classify": ["classify_chart", "nabla_J_residuals", "constancy_report",
                 "rk_residual"],
    "frames": ["gram_schmidt"],
    "immersions": ["second_fundamental_form", "normal_connection_DH",
                   "codazzi_residuals"],
    "axioms": ["curvature_basis", "functional_row", "proof_identity_residuals",
               "theorem_nullspace_verify", "schouten_nullspace_verify"],
}
RECURSIVE = {"expressions": ["evaluate", "differentiate", "substitute"]}
METHODS = {("curvature", "ManifoldChart"): ["metric_at", "j_at", "dj_at"],
           ("immersions", "Immersion"): ["induced_chart"]}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("expressions.evaluate.trees", "count"),
    ("expressions.evaluate.nodes", "count"),
    ("expressions.evaluate.self_s", "s"),
    ("expressions.evaluate.nodes_per_point", "count"),
    ("expressions.differentiate.nodes", "count"),
    ("expressions.differentiate.self_s", "s"),
    ("expressions.substitute.nodes", "count"),
    ("expressions.substitute.self_s", "s"),
    ("expressions.parse.self_s", "s"),
    ("curvature.point_data.calls", "count"),
    ("curvature.riemann.calls", "count"),
    ("curvature.riemann.self_s", "s"),
    ("curvature.riemann.calls_per_point", "count"),
    ("curvature.christoffel.calls", "count"),
    ("curvature.christoffel.self_s", "s"),
    ("curvature.metric_at.calls", "count"),
    ("curvature.metric_at.self_s", "s"),
    ("curvature.j_at.calls", "count"),
    ("curvature.dj_at.self_s", "s"),
    ("models.embedding_j.calls", "count"),
    ("models.embedding_j.self_s", "s"),
    ("curvature.curvature_value.calls", "count"),
    ("curvature.curvature_value.self_s", "s"),
    ("axioms.curvature_basis.self_s", "s"),
    ("axioms.functional_row.calls", "count"),
    ("axioms.functional_row.self_s", "s"),
    ("axioms.linalg.calls", "count"),
    ("axioms.linalg.self_s", "s"),
    ("axioms.constraint_rows", "count"),
    ("axioms.theorem_nullspace_verify.self_s", "s"),
    ("axioms.schouten_nullspace_verify.self_s", "s"),
    ("axioms.proof_identity_residuals.self_s", "s"),
    ("frames.sample_orthonormal_set.calls", "count"),
    ("frames.sample_orthonormal_set.self_s", "s"),
    ("frames.gram_schmidt.self_s", "s"),
    ("frames.draws", "count"),
    ("frames.accept_ratio", "ratio"),
    ("classify.classify_chart.self_s", "s"),
    ("classify.nabla_J_residuals.self_s", "s"),
    ("classify.constancy_report.self_s", "s"),
    ("classify.rk_residual.self_s", "s"),
    ("immersions.second_fundamental_form.calls", "count"),
    ("immersions.second_fundamental_form.self_s", "s"),
    ("immersions.normal_connection_DH.self_s", "s"),
    ("immersions.codazzi_residuals.self_s", "s"),
    ("immersions.induced_chart.self_s", "s"),
    ("reportio.load_manifold_file.self_s", "s"),
    ("reportio.dump_report.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
]


class _Proxy:
    """Stands in for a module object: attributes come from ``real`` unless
    ``wrap`` returns a replacement for them."""

    def __init__(self, real, wrap):
        self._real = real
        self._wrap = wrap

    def __getattr__(self, name):
        return self._wrap(name, getattr(self._real, name))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, command]
        self.counts = defaultdict(int)
        self.command = None      # shared by every span of one CLI command
        self._stack = []
        self._depth = defaultdict(int)
        self._patches = []       # (owner, attribute, original), install order

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = [name, time.perf_counter(), None, parent, self.command]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def recursive(self, name, fn):
        outer = self.span(name, fn)

        def traced(*args, **kwargs):
            self.counts[name + ".nodes"] += 1
            if self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] += 1
            try:
                return outer(*args, **kwargs)
            finally:
                self._depth[name] -= 1
        return traced

    def _sample_orthonormal_set(self, fn):
        spanned = self.span("frames.sample_orthonormal_set", fn)

        def traced(*args, **kwargs):
            out = spanned(*args, **kwargs)
            self.counts["frames.vectors"] += len(out)
            return out
        return traced

    def _draw(self, fn):
        def traced(sampler, count=1):
            self.counts["frames.draws"] += count
            return fn(sampler, count)
        return traced

    def _embedding_j_fn(self, fn):
        def traced(*args, **kwargs):
            return self.span("models.embedding_j", fn(*args, **kwargs))
        return traced

    def _linalg(self, name, attr):
        return self.span("axioms.linalg", attr) if callable(attr) else attr

    # -- install / restore --------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapped):
        """Point every module global bound to ``original`` at ``wrapped``,
        so calls through ``from x import f`` copies are traced too."""
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"hermgeo.{name}"]
                   for name in ("cli", "reportio", "expressions", "curvature",
                                "classify", "frames", "immersions", "axioms",
                                "models")}
        try:
            for mod, names in SPANS.items():
                for fn_name in names:
                    fn = getattr(modules[mod], fn_name)
                    self._rebind(modules, fn, self.span(f"{mod}.{fn_name}", fn))
            for mod, names in RECURSIVE.items():
                for fn_name in names:
                    fn = getattr(modules[mod], fn_name)
                    self._rebind(modules, fn, self.recursive(f"{mod}.{fn_name}", fn))
            for (mod, cls_name), names in METHODS.items():
                cls = getattr(modules[mod], cls_name)
                for meth in names:
                    self._set(cls, meth, self.span(f"{mod}.{meth}", getattr(cls, meth)))
            frames = modules["frames"]
            fn = frames.sample_orthonormal_set
            self._rebind(modules, fn, self._sample_orthonormal_set(fn))
            self._set(frames.FrameSampler, "draw", self._draw(frames.FrameSampler.draw))
            models = modules["models"]
            self._rebind(modules, models.embedding_j_fn,
                         self._embedding_j_fn(models.embedding_j_fn))
            axioms = modules["axioms"]
            linalg = _Proxy(axioms.scipy.linalg, self._linalg)
            self._set(axioms, "scipy", _Proxy(
                axioms.scipy, lambda name, attr: linalg if name == "linalg" else attr))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_totals(self):
        """{name: (calls, self seconds)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name][0] += 1
            totals[name][1] += (end - start) - covered
        return {k: tuple(v) for k, v in totals.items()}

    def metrics(self, points, constraint_rows, overhead):
        """Every PER_LAYER metric as {name: {"value", "unit"}}.

        ``points`` is the number of chart points the traced commands reported;
        ``constraint_rows`` comes from the certificate reports."""
        totals = self.layer_totals()
        values = {}
        for name, (calls, self_s) in totals.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        values.update(self.counts)
        values["expressions.evaluate.trees"] = values.get("expressions.evaluate.calls", 0)
        per_point = lambda v: v / points if points else 0.0
        values["expressions.evaluate.nodes_per_point"] = per_point(
            values.get("expressions.evaluate.nodes", 0))
        values["curvature.riemann.calls_per_point"] = per_point(
            values.get("curvature.riemann.calls", 0))
        draws = values.get("frames.draws", 0)
        values["frames.accept_ratio"] = values.get("frames.vectors", 0) / draws if draws else 0.0
        values["axioms.constraint_rows"] = constraint_rows
        values["trace.overhead"] = overhead
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER}

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"fields": ["name", "start", "end", "parent", "command"],
               "names": names,
               "spans": [[index[n], s, e, p, c] for n, s, e, p, c in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
