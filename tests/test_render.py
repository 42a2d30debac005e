"""SVG scene rendering."""
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from simplexcover import PointSet, SimplexStyle, make_simplex, render_scene_2d
from simplexcover.errors import InputFormatError

F = Fraction
NS = "{http://www.w3.org/2000/svg}"

TRI = make_simplex([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
DOTS = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))


def test_svg_parses_with_expected_elements():
    svg = render_scene_2d(DOTS, [(TRI, SimplexStyle())])
    root = ET.fromstring(svg)
    assert root.tag == f"{NS}svg"
    assert len(root.findall(f"{NS}circle")) == 4
    assert len(root.findall(f"{NS}polygon")) == 1
    assert root.get("viewBox") is not None


def test_y_axis_is_flipped():
    x = PointSet(2, ((0.0, 0.0), (0.0, 3.0)))
    root = ET.fromstring(render_scene_2d(x))
    cys = sorted(float(c.get("cy")) for c in root.findall(f"{NS}circle"))
    assert cys == [-3.0, 0.0]


def test_points_only_scene():
    root = ET.fromstring(render_scene_2d(DOTS))
    assert len(root.findall(f"{NS}circle")) == 4
    assert len(root.findall(f"{NS}polygon")) == 0


def test_polygon_styles_and_labels():
    styled = [
        (TRI, SimplexStyle(stroke="#aaa", label="hull")),
        (TRI, SimplexStyle(fill="#eee")),
    ]
    root = ET.fromstring(render_scene_2d(DOTS, styled))
    polys = root.findall(f"{NS}polygon")
    assert len(polys) == 2
    assert polys[0].get("stroke") == "#aaa"
    assert polys[0].find(f"{NS}title").text == "hull"
    assert polys[1].get("fill") == "#eee"
    assert polys[1].find(f"{NS}title") is None


def test_viewbox_covers_simplices_outside_points():
    far = make_simplex([(F(10), F(10)), (F(12), F(10)), (F(10), F(12))])
    root = ET.fromstring(render_scene_2d(DOTS, [(far, SimplexStyle())]))
    x0, y0, w, h = (float(v) for v in root.get("viewBox").split())
    assert x0 <= 0 and x0 + w >= 12
    assert y0 <= -12 and y0 + h >= 0


def test_writes_file(tmp_path):
    out = tmp_path / "scene.svg"
    svg = render_scene_2d(DOTS, path=str(out))
    assert out.read_text(encoding="utf-8") == svg


def test_rejects_non_planar_input():
    x3 = PointSet(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0))))
    with pytest.raises(ValueError, match="d = 2"):
        render_scene_2d(x3)
    t3 = make_simplex(
        [(F(0),) * 3, (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    )
    with pytest.raises(ValueError, match="planar"):
        render_scene_2d(DOTS, [(t3, SimplexStyle())])


def test_rejects_a_span_past_the_float_range():
    # Each coordinate is a finite float, but their span is not.
    wide = PointSet(2, ((1e308, 0.0), (-1e308, 0.0), (0.0, 1.0)))
    with pytest.raises(InputFormatError, match="the scene's span is not a finite float"):
        render_scene_2d(wide)
