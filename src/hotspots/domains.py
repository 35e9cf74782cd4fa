"""Test-domain generation and JSON persistence.

Curved domains (disk, ellipse) are realized as inscribed polygons sampled at
uniform parameter angles; the O(n^-2) inscribed-chord deficit is folded into
downstream tolerances.  Random convex polygons come from a fixed splitmix64
stream (documented below) so seeds reproduce bit-for-bit on any platform.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace

from . import meshing
from .errors import ParseError, SchemaVersionMismatch
from .geometry import ConvexPolygon, validate

SCHEMA_VERSION = 1
DEFAULT_POLYGONIZATION_N = 512
KINDS = ("disk", "ellipse", "rectangle", "regular_polygon", "random_convex", "explicit")

_RANDOM_JITTER = 0.35  # radial jitter fraction for random_convex
_INT_FIELDS = ("k", "seed", "n", "polygonization_n")
# The vertex-count field of a kind and its least value.
_VERTEX_COUNTS = {"disk": ("polygonization_n", 32), "ellipse": ("polygonization_n", 32),
                  "regular_polygon": ("k", 3), "random_convex": ("n", 3)}
# Kinds sampled at n uniform angles as (a cos t, b sin t): the fields of a, b and n.
_SAMPLED = {"disk": ("radius", "radius", "polygonization_n"),
            "ellipse": ("a", "b", "polygonization_n"),
            "regular_polygon": ("circumradius", "circumradius", "k")}


class SplitMix64:
    """splitmix64 (Steele et al.): state += 0x9E3779B97F4A7C15;
    z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9; z = (z ^ z>>27) *
    0x94D049BB133111EB; return z ^ z>>31.  uniform() maps the top 53 bits
    to [0, 1).  Chosen over platform RNGs so domain seeds are portable.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class DomainSpec:
    """Flat description of a test domain, mirroring the JSON schema.

    Only the fields relevant to ``kind`` are set; see :func:`realize`.
    """

    kind: str
    radius: float | None = None
    a: float | None = None
    b: float | None = None
    length: float | None = None
    width: float | None = None
    k: int | None = None
    circumradius: float | None = None
    seed: int | None = None
    n: int | None = None
    diameter: float | None = None
    vertices: tuple[tuple[float, float], ...] | None = None
    polygonization_n: int | None = None
    warnings: tuple[str, ...] = field(default=(), compare=False)


_KIND_FIELDS = {
    "disk": ("radius", "polygonization_n"),
    "ellipse": ("a", "b", "polygonization_n"),
    "rectangle": ("length", "width"),
    "regular_polygon": ("k", "circumradius"),
    "random_convex": ("seed", "n", "diameter"),
    "explicit": ("vertices",),
}


def _check_spec(spec: DomainSpec) -> DomainSpec:
    if spec.kind not in KINDS:
        raise ParseError(f"field 'kind': unknown value {spec.kind!r}")
    for name in _KIND_FIELDS[spec.kind]:
        if getattr(spec, name) is None:
            if name == "polygonization_n":
                spec = replace(
                    spec,
                    polygonization_n=DEFAULT_POLYGONIZATION_N,
                    warnings=spec.warnings
                    + (f"polygonization_n defaulted to {DEFAULT_POLYGONIZATION_N}",),
                )
                continue
            if name == "diameter":
                spec = replace(spec, diameter=2.0)
                continue
            raise ParseError(f"field '{name}': required for kind {spec.kind!r}")
    for name in ("radius", "a", "b", "length", "width", "circumradius", "diameter"):
        val = getattr(spec, name)
        if val is not None and not (val > 0.0 and math.isfinite(val)):
            raise ParseError(f"field '{name}': must be strictly positive, got {val!r}")
    if spec.kind in _VERTEX_COUNTS:
        # every polygon vertex becomes a mesh vertex
        name, least = _VERTEX_COUNTS[spec.kind]
        count = getattr(spec, name)
        if not least <= count <= meshing.MAX_MESH_SIZE:
            raise ParseError(f"field '{name}': must be in [{least}, {meshing.MAX_MESH_SIZE}], "
                             f"got {count!r}")
    if spec.kind == "ellipse" and spec.a < spec.b:
        raise ParseError("field 'a': semi-axes must satisfy a >= b")
    if spec.kind == "rectangle" and spec.length < spec.width:
        raise ParseError("field 'length': side lengths must satisfy length >= width")
    return spec


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    # Andrew's monotone chain, CCW output.
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) > 1 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) > 1 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def realize(spec: DomainSpec) -> ConvexPolygon:
    """Build the polygon a spec describes.  Deterministic, including
    random_convex (fixed splitmix64 stream)."""
    spec = _check_spec(spec)
    if spec.kind in _SAMPLED:
        a, b, n = (getattr(spec, name) for name in _SAMPLED[spec.kind])
        pts = [
            (a * math.cos(2.0 * math.pi * i / n), b * math.sin(2.0 * math.pi * i / n))
            for i in range(n)
        ]
    elif spec.kind == "rectangle":
        length, width = spec.length, spec.width
        pts = [(0.0, 0.0), (length, 0.0), (length, width), (0.0, width)]
    elif spec.kind == "random_convex":
        rng = SplitMix64(spec.seed)
        big_r = spec.diameter / 2.0
        raw = []
        for _ in range(spec.n):
            theta = 2.0 * math.pi * rng.uniform()
            r = big_r * (1.0 - _RANDOM_JITTER * rng.uniform())
            raw.append((r * math.cos(theta), r * math.sin(theta)))
        pts = _convex_hull(raw)
    else:  # explicit
        pts = list(spec.vertices)
    return validate(pts)


# --- persistence --------------------------------------------------------------

def save_spec(spec: DomainSpec, path) -> None:
    spec = _check_spec(spec)
    doc: dict = {"schema": SCHEMA_VERSION, "kind": spec.kind}
    for name in _KIND_FIELDS[spec.kind]:
        val = getattr(spec, name)
        if name == "vertices":
            val = [list(v) for v in val]
        doc[name] = val
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_spec(path) -> DomainSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    schema = doc.get("schema")
    if not _is_int(schema):  # True and 1.0 compare equal to 1
        raise ParseError(f"field 'schema': expected an integer, got {schema!r}")
    if schema != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected schema {SCHEMA_VERSION}, got {schema!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"field 'kind': unknown value {kind!r}")
    known = {"schema", "kind", *_KIND_FIELDS[kind]}
    for key in doc:
        if key not in known:
            raise ParseError(f"field {key!r}: not valid for kind {kind!r}")
    kwargs = {}
    for name in _KIND_FIELDS[kind]:
        if name not in doc:
            continue
        val = doc[name]
        if name == "vertices":
            if not isinstance(val, list) or not all(
                isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)) for v in val
            ):
                raise ParseError("field 'vertices': expected [[x, y], ...]")
            val = tuple((float(x), float(y)) for x, y in val)
        elif name in _INT_FIELDS:
            if not _is_int(val):
                raise ParseError(f"field '{name}': expected an integer, got {val!r}")
        elif not _is_number(val):
            raise ParseError(f"field '{name}': expected a number, got {val!r}")
        kwargs[name] = val
    return _check_spec(DomainSpec(kind=kind, **kwargs))


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    if _is_int(val):
        return abs(val) <= sys.float_info.max  # a larger int has no float value
    return isinstance(val, float)
