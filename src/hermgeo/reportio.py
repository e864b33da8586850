"""Manifold-definition files and deterministic report serialization.

Manifold files are JSON documents with the fields of ManifoldFile; all
expression strings follow the grammar in expressions.py.  Reports are JSON
with fixed (insertion) key order and floats printed with 17 significant
digits, so identical runs are byte-identical and goldens diff cleanly.
"""

import json
import math

import numpy as np

from . import expressions as ex
from . import immersions as im
from . import models
from .curvature import Embedding, ManifoldChart


class ManifoldFileError(ValueError):
    pass


def _require(cond, msg):
    if not cond:
        raise ManifoldFileError(msg)


def _integer(value, name):
    _require(type(value) is int or type(value) is float and value.is_integer(),
             f"{name} must be an integer, got {value!r}")
    return int(value)


def _names(value, what):
    _require(isinstance(value, list) and all(isinstance(c, str) for c in value)
             and len(set(value)) == len(value), f"{what} must be a list of distinct names")
    return value


def _finite(value, name):
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan  # reported below
    _require(math.isfinite(number), f"{name} must be a finite number, got {value!r}")
    return number


def _square(raw, dim, what):
    _require(isinstance(raw, list) and len(raw) == dim
             and all(isinstance(row, list) and len(row) == dim for row in raw),
             f"{what} must be a dim x dim matrix of expression strings")
    return raw


def _block(data, key, fields):
    block = data.get(key)
    _require(block is None or isinstance(block, dict) and all(f in block for f in fields)
             and isinstance(block["map"], list), f"{key} needs {', '.join(fields)} (map a list)")
    return block


def load_manifold(data):
    """Build (chart, immersion-or-None) from a parsed manifold file dict.
    Equal expression strings share one parsed tree, so one jet per point."""
    _require(isinstance(data, dict), "manifold file must be a JSON object")
    for key in ("name", "dim", "coordinates", "metric"):
        _require(key in data, f"missing field {key!r}")
    coords = _names(data["coordinates"], "coordinates")
    dim = _integer(data["dim"], "dim")
    _require(len(coords) == dim, "dim does not match number of coordinates")
    trees = {}

    def parse(text, symbols):
        _require(isinstance(text, str), f"expression must be a string, got {text!r}")
        if (text, *symbols) not in trees:
            trees[text, *symbols] = ex.parse(text, symbols)
        return trees[text, *symbols]

    raw = _square(data["metric"], dim, "metric")
    try:
        metric = [[parse(e, coords) for e in row] for row in raw]
    except ex.ParseError as exc:
        raise ManifoldFileError(f"metric entry failed to parse: {exc}") from exc

    hint = data.get("domain_hint")
    if hint is not None:
        _require(isinstance(hint, list) and len(hint) == dim
                 and all(isinstance(pair, list) and len(pair) == 2 for pair in hint),
                 "domain_hint needs one [lo, hi] pair per coordinate")
        hint = [tuple(_finite(b, "domain_hint bound") for b in pair) for pair in hint]
        _require(all(lo < hi for lo, hi in hint), "domain_hint needs lo < hi in every pair")

    _check_metric_symmetry(raw, metric, coords, hint)

    jmat = None
    if data.get("complex_structure") is not None:
        jmat = [[parse(e, coords) for e in row]
                for row in _square(data["complex_structure"], dim, "complex_structure")]

    embedding = None
    j_fn = None
    raw_emb = _block(data, "embedding", ("ambient_dim", "map"))
    if raw_emb is not None:
        map_exprs = [parse(s, coords) for s in raw_emb["map"]]
        _require(len(map_exprs) == _integer(raw_emb["ambient_dim"], "ambient_dim"),
                 "embedding map must have ambient_dim components")
        embedding = Embedding(
            ambient_dim=int(raw_emb["ambient_dim"]), map_exprs=map_exprs,
            j_rule=raw_emb.get("j_rule"),
            radius=_finite(raw_emb.get("radius", 1.0), "embedding radius"))
        if embedding.j_rule is not None:
            try:
                j_fn = models.embedding_j_fn(coords, embedding)
            except ValueError as exc:
                raise ManifoldFileError(f"embedding: {exc}") from None

    chart = ManifoldChart(
        name=str(data["name"]), coordinates=coords, metric=metric,
        complex_structure=jmat, complex_structure_fn=j_fn,
        domain_hint=hint, embedding=embedding)

    immersion = None
    raw_imm = _block(data, "immersion", ("coordinates", "map"))
    if raw_imm is not None:
        sub_coords = _names(raw_imm["coordinates"], "immersion coordinates")
        maps = [parse(s, sub_coords) for s in raw_imm["map"]]
        _require(len(maps) == dim, "immersion map needs one component per target coordinate")
        _require(len(sub_coords) < dim, "immersion must drop at least one dimension")
        immersion = im.Immersion(coordinates=sub_coords, target=chart, map_exprs=maps)
    return chart, immersion


def _check_metric_symmetry(raw, metric, coords, hint):
    dim = len(coords)
    rng = np.random.Generator(np.random.PCG64(0))
    points = [sample_point(rng, dim, hint) for _ in range(5)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if raw[i][j] == raw[j][i]:
                continue
            for p in points:
                b = dict(zip(coords, p))
                a, c = ex.evaluate(metric[i][j], b), ex.evaluate(metric[j][i], b)
                _require(abs(a - c) <= 1e-12 * max(1.0, abs(a)),
                         f"metric entries ({i},{j}) and ({j},{i}) disagree")


def sample_point(rng, dim, hint):
    if hint is None:
        return rng.uniform(-0.5, 0.5, size=dim)
    return np.array([rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
                     for lo, hi in hint])


def default_point(dim, hint):
    """Origin of the domain hint (interval midpoints)."""
    if hint is None:
        return np.zeros(dim)
    return np.array([(lo + hi) / 2.0 for lo, hi in hint])


def chart_to_dict(chart):
    doc = {
        "name": chart.name,
        "dim": chart.dim,
        "coordinates": list(chart.coordinates),
        "metric": [[ex.to_string(e) for e in row] for row in chart.metric],
    }
    if chart.complex_structure is not None:
        doc["complex_structure"] = [[ex.to_string(e) for e in row]
                                    for row in chart.complex_structure]
    if chart.domain_hint is not None:
        doc["domain_hint"] = [[lo, hi] for lo, hi in chart.domain_hint]
    if chart.embedding is not None:
        doc["embedding"] = {
            "ambient_dim": chart.embedding.ambient_dim,
            "map": [ex.to_string(e) for e in chart.embedding.map_exprs],
            "j_rule": chart.embedding.j_rule,
            "radius": chart.embedding.radius,
        }
    return doc


def load_manifold_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifoldFileError(f"cannot read manifold file {path}: {exc}") from exc
    return load_manifold(data)


# ---------------------------------------------------------------------------
# deterministic report output

def dump_report(obj):
    """Serialize a report to JSON text with 17-significant-digit floats and
    fixed key order.  A non-finite float raises DomainError: JSON has no
    spelling for it."""
    out = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _write(obj, out, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for idx, (key, value) in enumerate(items):
            out.append("  " * (indent + 1) + json.dumps(str(key)) + ": ")
            _write(value, out, indent + 1)
            out.append(",\n" if idx + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for idx, value in enumerate(obj):
            out.append("  " * (indent + 1))
            _write(value, out, indent + 1)
            out.append(",\n" if idx + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ex.DomainError(f"report value {float(obj)} is not a finite number")
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, indent)
    else:
        out.append(json.dumps(str(obj)))
