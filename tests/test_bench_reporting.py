"""Figure series rendering and persistence."""

import json

import pytest

from repro.bench.reporting import FigureSeries


@pytest.fixture
def fig():
    f = FigureSeries(
        figure_id="figX",
        title="demo",
        x_label="n",
        x=[1, 2, 4],
    )
    f.add("lib_a", [10.0, 20.0, 40.0])
    f.add("lib_b", [10.0, 10.0, 10.0])
    return f


def test_add_length_checked(fig):
    with pytest.raises(ValueError):
        fig.add("bad", [1.0])


def test_table_contains_everything(fig):
    fig.paper_claims = {"claim": "+10%"}
    fig.observations = {"claim": "+11%"}
    out = fig.to_table()
    assert "figX" in out and "lib_a" in out
    assert "paper +10%" in out and "here +11%" in out


def test_json_roundtrip(fig):
    data = json.loads(fig.to_json())
    assert data["figure_id"] == "figX"
    assert data["series"]["lib_a"] == [10.0, 20.0, 40.0]


def test_save(tmp_path, fig):
    path = fig.save(tmp_path)
    assert path.exists()
    assert (tmp_path / "figX.json").exists()
    assert "lib_b" in path.read_text()
