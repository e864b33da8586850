"""Manifold-definition files and deterministic report serialization.

Manifold files are JSON documents with the fields of ManifoldFile; all
expression strings follow the grammar in expressions.py.  Reports are JSON
with fixed (insertion) key order, two-space indent and floats printed as
their shortest round-trip repr, so identical runs are byte-identical and
goldens diff cleanly.
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
    """Build (chart, immersion-or-None) from a parsed manifold file dict; nothing
    is evaluated.  The parser reads each distinct string and parenthesized
    group once while its tree is alive and interns its nodes, so a subtree
    repeated across entries (a shared denominator) is one node and gets one
    jet per point."""
    _require(isinstance(data, dict), "manifold file must be a JSON object")
    for key in ("name", "dim", "coordinates", "metric"):
        _require(key in data, f"missing field {key!r}")
    coords = _names(data["coordinates"], "coordinates")
    dim = _integer(data["dim"], "dim")
    _require(dim >= 1, f"dim must be at least 1, got {dim}")
    _require(len(coords) == dim, "dim does not match number of coordinates")

    def parse(text, symbols, field):
        _require(isinstance(text, str), f"expression must be a string, got {text!r}")
        try:
            return ex.parse(text, symbols)
        except ex.ParseError as exc:
            raise ManifoldFileError(f"{field} entry failed to parse: {exc}") from exc

    metric = [[parse(e, coords, "metric") for e in row]
              for row in _square(data["metric"], dim, "metric")]

    hint = data.get("domain_hint")
    if hint is not None:
        _require(isinstance(hint, list) and len(hint) == dim
                 and all(isinstance(pair, list) and len(pair) == 2 for pair in hint),
                 "domain_hint needs one [lo, hi] pair per coordinate")
        hint = [tuple(_finite(b, "domain_hint bound") for b in pair) for pair in hint]
        _require(all(lo < hi for lo, hi in hint), "domain_hint needs lo < hi in every pair")

    jmat = None
    if data.get("complex_structure") is not None:
        jmat = [[parse(e, coords, "complex_structure") for e in row]
                for row in _square(data["complex_structure"], dim, "complex_structure")]

    embedding = None
    j_fn = None
    raw_emb = _block(data, "embedding", ("ambient_dim", "map"))
    if raw_emb is not None:
        map_exprs = [parse(s, coords, "embedding map") for s in raw_emb["map"]]
        _require(len(map_exprs) == _integer(raw_emb["ambient_dim"], "ambient_dim"),
                 "embedding map must have ambient_dim components")
        embedding = Embedding(
            ambient_dim=int(raw_emb["ambient_dim"]), map_exprs=map_exprs,
            j_rule=raw_emb.get("j_rule"),
            radius=_finite(raw_emb.get("radius", 1.0), "embedding radius"))
        if embedding.j_rule is not None:
            try:
                j_fn = models.embedding_j_fn(embedding)
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
        _require(sub_coords, "immersion needs at least one coordinate")
        maps = [parse(s, sub_coords, "immersion map") for s in raw_imm["map"]]
        _require(len(maps) == dim, "immersion map needs one component per target coordinate")
        _require(len(sub_coords) < dim, "immersion must drop at least one dimension")
        immersion = im.Immersion(coordinates=sub_coords, target=chart, map_exprs=maps)
    return chart, immersion


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
    """Serialize a report to JSON text: fixed key order, two-space indent,
    shortest round-trip floats.  A non-finite float raises DomainError: JSON
    has no spelling for it."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_plain) + "\n"
    except ValueError as exc:
        raise ex.DomainError(f"report value: {exc}") from None


def _plain(value):
    """A numpy array or scalar as its ``tolist()`` value, anything else as its str."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else str(value)
