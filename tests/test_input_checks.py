"""Invalid specs are input errors, the mode chart has a size limit, the mode
functions reject bad parts through the model's checks, and grids hold one
read-only array."""

import math
from dataclasses import replace

import numpy as np
import pytest

from herd import (
    AIR,
    C0,
    CoaxGeometry,
    DesignSpec,
    DomainError,
    FrequencyGrid,
    InfeasibleDesignError,
    Material,
    ModeIndex,
    RectAperture,
    coax_char_impedance,
    dumps_design,
    dumps_design_spec,
    mode_chart,
    rect_cutoff,
    synthesize,
)
from herd import modes
from herd.cli import main


def headline_spec() -> DesignSpec:
    return DesignSpec(
        z0=50.0,
        f_passband_top=10e9,
        passband_il_budget_db=0.15,
        f_stopband_start=25.3e9,
        stopband_min_attenuation_db=60.0,
        aperture_fill=Material(eps_r=2.2),
        coax_fill=AIR,
    )


# Before the spec check, the first two were reported as infeasible (exit 3).
BAD_SPECS = {
    "nan_stopband_start": {"f_stopband_start": math.nan},
    "aperture_eps_below_one": {"aperture_fill": Material(eps_r=0.5)},
    "coax_eps_below_one": {"coax_fill": Material(eps_r=0.9)},
    "infinite_budget": {"passband_il_budget_db": math.inf},
}


class TestSpecCheck:
    @pytest.mark.parametrize("name", sorted(BAD_SPECS))
    def test_cli_exits_2(self, capsys, tmp_path, name):
        path = tmp_path / "bad.spec"
        path.write_text(dumps_design_spec(replace(headline_spec(), **BAD_SPECS[name])))
        code = main(["synthesize", "--spec", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid spec" in err and "infeasible" not in err

    @pytest.mark.parametrize("name", sorted(BAD_SPECS))
    def test_synthesize_raises_domain_error(self, name):
        with pytest.raises(DomainError, match="invalid spec"):
            synthesize(replace(headline_spec(), **BAD_SPECS[name]))

    @pytest.mark.parametrize(
        "change",
        [{"apertures_per_section": 0}, {"stopband_min_attenuation_db": 0.0}, {"z0": -50.0}],
    )
    def test_other_invalid_targets(self, change):
        with pytest.raises(DomainError, match="invalid spec"):
            synthesize(replace(headline_spec(), **change))

    def test_finite_stopband_below_passband_stays_infeasible(self):
        with pytest.raises(InfeasibleDesignError, match="f_stopband_start"):
            synthesize(replace(headline_spec(), f_stopband_start=10e9))


def _no_entries(*args):
    raise AssertionError("mode_chart entered its loop")


class TestModeChartLimit:
    def test_raises_before_the_loop(self, monkeypatch):
        monkeypatch.setattr(modes, "ModeEntry", _no_entries)
        ap = RectAperture(width_a=4e-3, height_b=5e-3, depth_d=4.85e-3)
        with pytest.raises(DomainError, match="f_max"):
            mode_chart(ap, Material(eps_r=2.2), 1e15)
        with pytest.raises(DomainError, match="f_max"):
            mode_chart(ap, Material(eps_r=2.2), 1e308)

    def test_limit_is_the_candidate_count(self, monkeypatch):
        monkeypatch.setattr(modes, "MODE_CHART_MAX_CANDIDATES", 100)
        ap = RectAperture(width_a=1.0, height_b=1.0, depth_d=1.0)
        # m_max = n_max = ceil(2 f a / c0) + 1 = 9: 10 x 10 candidates
        f_ok = 8 * C0 / 2.0
        assert mode_chart(ap, AIR, f_ok)
        with pytest.raises(DomainError):
            mode_chart(ap, AIR, f_ok * 1.01)

    def test_cli_exits_2_before_the_loop(self, capsys, tmp_path, proto, monkeypatch):
        # without the limit this chart would hold about 1.5e9 entries
        monkeypatch.setattr(modes, "ModeEntry", _no_entries)
        path = tmp_path / "stock.design"
        path.write_text(dumps_design(proto))
        assert main(["modes", "--design", str(path), "--fmax", "1e15"]) == 2
        assert "f_max" in capsys.readouterr().err

    def test_chart_matches_rect_cutoff(self, proto):
        chart = mode_chart(proto.aperture, proto.aperture_fill, 200e9)
        assert chart
        for entry in chart:
            assert entry.cutoff_hz == rect_cutoff(entry.index, proto.aperture, proto.aperture_fill)


class TestModeChecks:
    def test_messages_name_the_part(self):
        geom = CoaxGeometry(r_inner=1e-3, r_outer=2e-3)
        with pytest.raises(DomainError, match="coax_fill.eps_r"):
            coax_char_impedance(geom, Material(eps_r=0.5))
        with pytest.raises(DomainError, match="coax.r_outer"):
            coax_char_impedance(CoaxGeometry(r_inner=2e-3, r_outer=1e-3), AIR)
        with pytest.raises(DomainError, match="aperture.depth_d"):
            rect_cutoff(ModeIndex(1, 0), RectAperture(4e-3, 5e-3, -1.0), AIR)
        with pytest.raises(DomainError, match="aperture_fill.mu_r"):
            rect_cutoff(ModeIndex(1, 0), RectAperture(4e-3, 5e-3, 1e-3), Material(2.2, math.inf))


class TestGridArray:
    def test_points_is_the_read_only_array(self):
        source = np.array([1e9, 2e9, 3e9])
        grid = FrequencyGrid(source)
        source[0] = 5e9
        assert grid.points is grid.f
        assert grid.points.dtype == np.float64 and not grid.points.flags.writeable
        assert grid.points[0] == 1e9

    def test_iteration_yields_python_floats(self):
        values = list(FrequencyGrid.linear(1e9, 2e9, 3))
        assert values == [1e9, 1.5e9, 2e9]
        assert all(type(v) is float for v in values)

    def test_keyword_and_tuple_construction(self):
        assert FrequencyGrid(points=(1e9, 2e9)).points.tolist() == [1e9, 2e9]


# Grid and sweep bounds are checked once, by FrequencyGrid and by the aperture
# check of corner_frequency; the CLI passes them on unchecked.
BAD_GRIDS = {
    "one_point": (["--points", "1"], "needs at least 2 points (got 1)"),
    "zero_start": (["--fstart", "0"], "needs 0 < start < stop < inf"),
    "reversed": (["--fstart", "2e9", "--fstop", "1e9"], "needs 0 < start < stop < inf"),
    "infinite_stop": (["--fstop", "inf"], "needs 0 < start < stop < inf"),
    "nan_start": (["--fstart", "nan"], "needs 0 < start < stop < inf"),
    "log_zero_stop": (["--log", "--fstop", "0"], "logarithmic grid needs 0 < start"),
    "log_negative_stop": (["--log", "--fstop=-1"], "logarithmic grid needs 0 < start"),
}


class TestGridBounds:
    @pytest.mark.parametrize("name", sorted(BAD_GRIDS))
    def test_analyze_exits_2_with_the_grid_message(self, capsys, tmp_path, proto, name):
        path = tmp_path / "stock.design"
        path.write_text(dumps_design(proto))
        argv, message = BAD_GRIDS[name]
        with np.errstate(all="raise"):
            code = main(["analyze", "--design", str(path), *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("herd: input error:") and message in err

    @pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
    @pytest.mark.parametrize("start, stop", [(1e9, 0.0), (1e9, -1.0), (1e8, math.inf), (0.0, 1e9)])
    def test_constructors_raise_before_numpy(self, spacing, start, stop):
        with pytest.raises(DomainError, match=f"a {spacing} grid needs 0 < start < stop < inf"):
            with np.errstate(all="raise"):
                getattr(FrequencyGrid, spacing)(start, stop, 5)


BAD_SWEEPS = {
    "zero_start": (["--from", "0", "--to", "6e-3"], "aperture.width_a must be finite and > 0 (got 0.0)"),
    "negative_end": (["--from", "3e-3", "--to=-1e-3"], "(got -0.001)"),
    "overflowing_span": (["--from=-1e308", "--to=1e308"], "(got nan)"),
    "infinite_end": (["--from", "3e-3", "--to", "inf"], "(got nan)"),
    "no_steps": (["--from", "3e-3", "--to", "6e-3", "--steps", "0"], "steps must be >= 1"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(BAD_SWEEPS))
def test_sweep_bounds_exit_2(capsys, tmp_path, proto, name):
    path = tmp_path / "stock.design"
    path.write_text(dumps_design(proto))
    argv, message = BAD_SWEEPS[name]
    steps = [] if "--steps" in argv else ["--steps", "4"]
    code = main(["sweep", "--design", str(path), "--param", "a", *argv, *steps])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("herd: input error:") and message in err


def test_sweep_of_depth_refuses_a_zero_depth(capsys, tmp_path, proto):
    path = tmp_path / "stock.design"
    path.write_text(dumps_design(proto))
    code = main(["sweep", "--design", str(path), "--param", "d", "--from", "0", "--to", "6e-3",
                 "--steps", "3"])
    assert code == 2
    assert "aperture.depth_d must be finite and > 0 (got 0.0)" in capsys.readouterr().err
