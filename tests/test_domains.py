import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotspots import cli, domains, meshing
from hotspots.errors import ParseError, SchemaVersionMismatch


def test_disk_n4_is_inscribed_square():
    poly = domains.realize(domains.DomainSpec(kind="disk", radius=1.0, polygonization_n=32))
    assert len(poly.vertices) == 32
    poly4 = domains.realize(
        domains.DomainSpec(kind="explicit", vertices=((1, 0), (0, 1), (-1, 0), (0, -1)))
    )
    # n=4 sampling of the unit disk hits exactly these vertices
    sampled = [
        (math.cos(2 * math.pi * i / 4), math.sin(2 * math.pi * i / 4)) for i in range(4)
    ]
    assert np.allclose(sorted(sampled), sorted(map(tuple, poly4.vertices)), atol=1e-15)


def test_ellipse_diameter_deficit():
    poly = domains.realize(domains.DomainSpec(kind="ellipse", a=2.0, b=1.0, polygonization_n=256))
    d, _ = poly.diameter
    eps = 4.0 - d
    assert 0.0 <= eps <= 4.0 * (math.pi / 256) ** 2 / 2 + 1e-12


def test_rectangle_exact():
    poly = domains.realize(domains.DomainSpec(kind="rectangle", length=2.0, width=1.0))
    assert poly.area == pytest.approx(2.0, abs=1e-15)


def test_random_convex_deterministic():
    spec = domains.DomainSpec(kind="random_convex", seed=7, n=20, diameter=2.0)
    a = domains.realize(spec)
    b = domains.realize(spec)
    assert np.array_equal(a.vertices, b.vertices)


def test_generated_polygons_validate_without_drops():
    for n in (64, 128, 256, 512):
        poly = domains.realize(domains.DomainSpec(kind="disk", radius=1.0, polygonization_n=n))
        assert len(poly.vertices) == n


def test_inscribed_area_monotone_and_bounded():
    areas = []
    for n in (64, 128, 256, 512):
        poly = domains.realize(domains.DomainSpec(kind="disk", radius=1.0, polygonization_n=n))
        areas.append(poly.area)
        assert math.pi - poly.area <= math.pi * (2.0 * math.pi**2 / (3.0 * n * n))
    assert areas == sorted(areas)


_NUMBER = st.integers() | st.integers(-2**1100, 2**1100) | st.floats()  # ints beyond float range too
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_SPEC_DOCS = st.sampled_from(domains.KINDS).flatmap(lambda kind: st.fixed_dictionaries(
    {"schema": st.just(1) | st.sampled_from([True, 1.0]), "kind": st.just(kind)},
    optional={name: _NUMBER | _JSON | st.lists(st.lists(_NUMBER, min_size=2, max_size=2))
              for name in domains._KIND_FIELDS[kind]},
))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        spec = domains.DomainSpec(kind="ellipse", a=2.0, b=1.0, polygonization_n=256)
        path = tmp_path / "spec.json"
        domains.save_spec(spec, path)
        assert domains.load_spec(path) == spec

    def test_round_trip_random(self, tmp_path):
        spec = domains.DomainSpec(kind="random_convex", seed=12345, n=17, diameter=3.5)
        path = tmp_path / "spec.json"
        domains.save_spec(spec, path)
        assert domains.load_spec(path) == spec

    def test_unknown_kind_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "kind": "pentagon"}')
        with pytest.raises(ParseError, match="kind"):
            domains.load_spec(path)

    def test_missing_polygonization_defaults_with_warning(self, tmp_path):
        path = tmp_path / "disk.json"
        path.write_text('{"schema": 1, "kind": "disk", "radius": 1.0}')
        spec = domains.load_spec(path)
        assert spec.polygonization_n == 512
        assert spec.warnings

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text('{"schema": 2, "kind": "disk", "radius": 1.0}')
        with pytest.raises(SchemaVersionMismatch):
            domains.load_spec(path)

    @pytest.mark.parametrize("schema", ["true", "1.0", "null", '"1"'])
    def test_schema_must_be_an_integer(self, tmp_path, capsys, schema):
        # true and 1.0 compare equal to 1 but are not schema 1
        path = tmp_path / "spec.json"
        path.write_text(f'{{"schema": {schema}, "kind": "disk", "radius": 1.0}}')
        with pytest.raises(ParseError, match="field 'schema': expected an integer"):
            domains.load_spec(path)
        assert cli.main(["verify", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "schema" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n  "kind": ???}')
        with pytest.raises(ParseError, match="line"):
            domains.load_spec(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"schema": 1, "kind": "disk", "radius": 1.0, "colour": "red"}')
        with pytest.raises(ParseError, match="colour"):
            domains.load_spec(path)

    def test_nonpositive_param_rejected(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text('{"schema": 1, "kind": "disk", "radius": -2.0}')
        with pytest.raises(ParseError, match="radius"):
            domains.load_spec(path)

    @pytest.mark.parametrize("fields, name", [
        ('"kind": "disk", "radius": 1' + "0" * 400, "radius"),
        ('"kind": "explicit", "vertices": [[0, 0], [1, 0], [1' + "0" * 400 + ', 1]]', "vertices"),
    ], ids=["radius", "vertices"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, fields, name):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"schema": 1, {fields}}}')
        with pytest.raises(ParseError, match=f"'{name}'"):
            domains.load_spec(path)

    @pytest.mark.parametrize("coordinate", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_vertex_rejected(self, tmp_path, capsys, coordinate):
        # Python's json reads these; both commands refuse them as input
        path = tmp_path / "inf.json"
        path.write_text('{"schema": 1, "kind": "explicit", '
                        f'"vertices": [[0, 0], [{coordinate}, 0], [0, 1]]}}')
        with pytest.raises(ParseError, match="'vertices'"):
            domains.load_spec(path)
        for command in ("region", "verify"):
            assert cli.main([command, "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
            assert "'vertices'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, fields, name", [
        ("disk", '"radius": 1.0', "polygonization_n"),
        ("ellipse", '"a": 2.0, "b": 1.0', "polygonization_n"),
        ("regular_polygon", '"circumradius": 1.0', "k"),
        ("random_convex", '"seed": 3', "n"),
    ], ids=["disk", "ellipse", "regular_polygon", "random_convex"])
    def test_vertex_count_above_mesh_cap_rejected(self, tmp_path, capsys, kind, fields, name):
        # parsing alone must refuse the count; nothing is realized
        path = tmp_path / "huge.json"
        path.write_text(f'{{"schema": 1, "kind": "{kind}", {fields}, "{name}": 10000000000}}')
        with pytest.raises(ParseError, match=f"'{name}'"):
            domains.load_spec(path)
        assert cli.main(["region", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"'{name}'" in capsys.readouterr().err

    def test_vertex_count_cap_is_the_mesh_cap(self, monkeypatch):
        monkeypatch.setattr(meshing, "MAX_MESH_SIZE", 40)
        spec = domains.DomainSpec(kind="disk", radius=1.0, polygonization_n=40)
        assert domains._check_spec(spec) == spec
        with pytest.raises(ParseError, match="polygonization_n"):
            domains._check_spec(domains.DomainSpec(kind="disk", radius=1.0, polygonization_n=41))

    @settings(max_examples=300, deadline=None)
    @given(_SPEC_DOCS | _JSON)
    def test_random_documents_parse_or_fail_by_name(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            try:
                spec = domains.load_spec(path)
            except (ParseError, SchemaVersionMismatch):
                return
            assert isinstance(spec, domains.DomainSpec)
            assert type(doc["schema"]) is int

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["disk", "ellipse"]),
        st.floats(0.5, 4.0),
        st.integers(32, 700),
    )
    def test_round_trip_property(self, kind, size, n):
        if kind == "disk":
            spec = domains.DomainSpec(kind="disk", radius=size, polygonization_n=n)
        else:
            spec = domains.DomainSpec(kind="ellipse", a=size + 1.0, b=size, polygonization_n=n)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.json"
            domains.save_spec(spec, path)
            loaded = domains.load_spec(path)
            assert loaded == spec
            assert json.loads(path.read_text())["schema"] == 1


def test_splitmix64_reference_stream():
    # first outputs for seed 0 of the documented splitmix64 (portability pin)
    rng = domains.SplitMix64(0)
    assert rng.next_u64() == 16294208416658607535
    rng = domains.SplitMix64(0)
    u = rng.uniform()
    assert 0.0 <= u < 1.0
