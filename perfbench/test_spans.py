"""Tests of the tracer: spans, self times, counts and absent layers.

    python3 -m pytest perfbench/test_spans.py

They call one cheap layer function (a character) and weld nothing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import weldfcs.fcs as fcs  # noqa: E402
from weldfcs.characters import Theory  # noqa: E402

from spans import Tracer  # noqa: E402

THEORY = Theory("free_boson_radius", 1.0, radius=1.0)


def test_spans_are_recorded_only_while_installed():
    original = fcs.log_character
    tracer = Tracer()
    assert tracer.absent == []
    mark = tracer.mark()
    tracer.install()
    value = fcs.log_character(THEORY, 0.1j)
    tracer.uninstall()
    assert fcs.log_character is original
    assert value == original(THEORY, 0.1j)
    fcs.log_character(THEORY, 0.1j)            # not recorded
    metrics = tracer.metrics_since(mark)
    assert [s[0] for s in tracer.spans] == ["characters.log_character"]
    assert metrics["characters.log_character_s"] > 0.0
    assert metrics["fcs.weld_nodes"] == 0
    assert metrics["cache.hit_ratio"] == 0.0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    mark = tracer.mark()
    tracer.spans += [["fcs", 0.0, 10.0, -1, None],
                     ["cylinder_weld.solve", 1.0, 7.0, 0, None],
                     ["cylinder_weld.assemble", 2.0, 6.0, 1, None]]
    metrics = tracer.metrics_since(mark)
    assert metrics["fcs.self_s"] == 4.0
    assert metrics["cylinder_weld.solve_s"] == 2.0
    assert metrics["cylinder_weld.assemble_s"] == 4.0


def test_removed_name_marks_its_layer_absent(monkeypatch):
    monkeypatch.delattr(fcs, "solve_Y1")
    tracer = Tracer()
    assert tracer.absent == ["torus_weld.solve"]
    metrics = tracer.metrics_since(tracer.mark())
    assert "torus_weld.solve_s" not in metrics
    assert "torus_weld.nodes" not in metrics
    assert "fcs.weld_nodes" not in metrics
    assert "torus_weld.assemble_s" in metrics
