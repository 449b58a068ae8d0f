import pytest

from gelfand.svg import line_plot


def sample_series():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.0, 1.0, 4.0, 9.0]
    return xs, ys, "squares"


def test_deterministic_bytes(tmp_path):
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    line_plot(p1, *sample_series(), xlabel="x", ylabel="y", title="t", vlines=[1.5])
    line_plot(p2, *sample_series(), xlabel="x", ylabel="y", title="t", vlines=[1.5])
    assert p1.read_bytes() == p2.read_bytes()


def test_structure(tmp_path):
    p = tmp_path / "plot.svg"
    line_plot(p, *sample_series(), xlabel="abscissa", ylabel="ordinate",
              title="heading", vlines=[2.5])
    text = p.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "abscissa" in text and "ordinate" in text and "heading" in text
    assert "squares" in text
    assert "<polyline" in text
    assert 'stroke-dasharray="6,4"' in text


def test_nonfinite_points_dropped(tmp_path):
    xs = [0.0, 1.0, float("nan"), 3.0]
    ys = [0.0, float("inf"), 2.0, 3.0]
    p = tmp_path / "plot.svg"
    line_plot(p, xs, ys, "", title="")
    text = p.read_text()
    assert "nan" not in text and "inf" not in text
    # two finite points survive
    assert text.count("<polyline") == 1


def test_no_finite_data_raises(tmp_path):
    nan = float("nan")
    with pytest.raises(ValueError, match="no finite data"):
        line_plot(tmp_path / "x.svg", [nan], [nan], "")
    with pytest.raises(ValueError, match="no finite data"):
        line_plot(tmp_path / "y.svg", [], [], "")


def test_degenerate_ranges(tmp_path):
    # constant series must still produce a valid viewport
    p = tmp_path / "flat.svg"
    line_plot(p, [1.0, 2.0], [5.0, 5.0], "flat")
    assert "<polyline" in p.read_text()
    q = tmp_path / "point.svg"
    line_plot(q, [1.0], [5.0], "dot")
    assert "<polyline" in q.read_text()

