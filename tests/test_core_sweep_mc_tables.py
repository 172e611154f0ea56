"""Sweeps, seed helpers and table rendering."""

import numpy as np
import pytest

from repro.core.rng import ensure_rng, spawn_child, spawn_children
from repro.core.sweep import lin_space, log_space, run_sweep
from repro.core.tables import format_cell, render_kv, render_table


class TestRng:
    def test_ensure_rng_from_seed(self):
        a = ensure_rng(42).integers(0, 100, 5)
        b = ensure_rng(42).integers(0, 100, 5)
        assert np.array_equal(a, b)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_children_independent(self):
        kids = spawn_children(7, 3)
        draws = [k.integers(0, 2**31) for k in kids]
        assert len(set(draws)) == 3

    def test_spawn_child_negative_index(self):
        with pytest.raises(ValueError):
            spawn_child(1, -1)


class TestSweepGrids:
    def test_log_space_bounds(self):
        grid = log_space(1e-12, 1e-7, 4)
        assert grid[0] == pytest.approx(1e-12)
        assert grid[-1] == pytest.approx(1e-7)
        assert len(grid) == 21

    def test_log_space_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            log_space(1e-7, 1e-12)

    def test_lin_space(self):
        grid = lin_space(0.0, 1.0, 5)
        assert len(grid) == 5
        assert grid[-1] == 1.0

    def test_lin_space_rejects(self):
        with pytest.raises(ValueError):
            lin_space(0, 1, 1)


class TestRunSweep:
    def test_collects_columns(self):
        result = run_sweep("x", [1.0, 2.0, 3.0], lambda x: {"sq": x * x, "neg": -x})
        assert list(result.column("sq")) == [1.0, 4.0, 9.0]
        assert result.header() == ["x", "neg", "sq"]

    def test_rows_align(self):
        result = run_sweep("x", [2.0], lambda x: {"y": x + 1})
        rows = list(result.rows())
        assert rows == [(2.0, 3.0)]

    def test_missing_column_raises(self):
        result = run_sweep("x", [1.0], lambda x: {"y": x})
        with pytest.raises(KeyError):
            result.column("z")

    def test_changed_keys_rejected(self):
        calls = [0]

        def func(x):
            calls[0] += 1
            return {"a": x} if calls[0] == 1 else {"b": x}

        with pytest.raises(ValueError):
            run_sweep("x", [1.0, 2.0], func)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("x", [], lambda x: {"y": x})


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2], [3, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_with_units(self):
        text = render_table(["i"], [[1e-9]], units=["A"])
        assert "1 nA" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_units_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [], units=["A"])

    def test_format_cell_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_format_cell_float_no_unit(self):
        assert format_cell(3.14159) == "3.142"

    def test_render_kv(self):
        text = render_kv("Header", [("key", 1e-12)], units={"key": "A"})
        assert "Header" in text
        assert "1 pA" in text
