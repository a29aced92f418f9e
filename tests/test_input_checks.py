"""Invalid specs are input errors, the mode chart, the sections table and
the sweep have size limits, parts refuse bad values when they are built, and
grids hold one read-only array."""

import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from herd import (
    AIR,
    C0,
    CoaxGeometry,
    DesignSpec,
    DomainError,
    DominantModeAxis,
    FrequencyGrid,
    InfeasibleDesignError,
    Material,
    RectAperture,
    attenuation_vs_sections,
    dumps_design,
    dumps_design_spec,
    mode_chart,
    synthesize,
)
from herd import cascade, cli, model, modes
from herd.cli import main
from herd.leakage import aperture_sweep
from herd.model import build_part
from herd.synthesis import SPEC_FILE, validate_spec


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


# A spec file line and the same fault as a change of a built spec. Before the
# spec check, the first two were reported as infeasible (exit 3). A fill is a
# part: the change is the Material's own field, which refuses it when built.
BAD_SPECS = {
    "nan_stopband_start": ("f_stopband_start_hz = nan", {"f_stopband_start": math.nan}),
    "aperture_eps_below_one": ("aperture_eps_r = 0.5", {"aperture_fill": {"eps_r": 0.5}}),
    "coax_eps_below_one": ("coax_eps_r = 0.9", {"coax_fill": {"eps_r": 0.9}}),
    "infinite_budget": ("passband_il_budget_db = inf", {"passband_il_budget_db": math.inf}),
}


def _bad_spec_text(line: str) -> str:
    """The headline spec file with ``line`` in place of the line of its key."""
    key = line.partition(" = ")[0]
    kept = [f"{k} = {v!r}" for k, v in SPEC_FILE.values(headline_spec()).items() if k != key]
    return "\n".join([*kept, line]) + "\n"


def _assert_refused(change: dict) -> None:
    """Building the headline spec with ``change`` raises what validate_spec
    lists for the same fields, so synthesize is never reached. A fill's
    change is refused by the Material, with what it lists."""
    (name, value), = change.items()
    if name.endswith("_fill"):
        with pytest.raises(DomainError) as err:
            Material(**value)
        assert str(err.value) == "; ".join(model.material_violations(SimpleNamespace(**value)))
        return
    with pytest.raises(DomainError, match=name) as err:
        synthesize(replace(headline_spec(), **change))
    assert str(err.value) == "; ".join(validate_spec(SimpleNamespace(**{**vars(headline_spec()), **change})))


class TestSpecCheck:
    @pytest.mark.parametrize("name", sorted(BAD_SPECS))
    def test_cli_exits_2(self, capsys, tmp_path, name):
        line, change = BAD_SPECS[name]
        path = tmp_path / "bad.spec"
        path.write_text(_bad_spec_text(line))
        code = main(["synthesize", "--spec", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid spec" in err and "infeasible" not in err and next(iter(change)) in err

    @pytest.mark.parametrize("name", sorted(BAD_SPECS))
    def test_synthesize_raises_domain_error(self, name):
        _assert_refused(BAD_SPECS[name][1])

    @pytest.mark.parametrize(
        "change",
        [
            {"apertures_per_section": 0},
            {"stopband_min_attenuation_db": 0.0},
            {"z0": -50.0},
            {"apertures_per_section": 2.5},
            {"z0": 10**400},
            {"f_passband_top": Fraction(1, 3)},
        ],
    )
    def test_other_invalid_targets(self, change):
        _assert_refused(change)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_budget_whose_depth_rounds_to_zero_is_named(self, capsys, tmp_path, fmt):
        # 6000 dB over 32 apertures asks each to pass a field of 1 - 9e-20,
        # which rounds to 1: min_depth_for_budget gives a depth of 0
        path = tmp_path / "budget.spec"
        path.write_text(_bad_spec_text("passband_il_budget_db = 6000.0"))
        assert main(["synthesize", "--spec", str(path), "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "herd: input error: passband_il_budget_db = 6000.0 dB is too large: the aperture "
            "depth that meets it at f_passband_top = 10000000000.0 Hz rounds to 0 m, so no depth "
            "follows from it\n"
        )
        with pytest.raises(DomainError, match="passband_il_budget_db"):
            synthesize(replace(headline_spec(), passband_il_budget_db=6000.0))

    def test_finite_stopband_below_passband_stays_infeasible(self):
        with pytest.raises(InfeasibleDesignError, match="f_stopband_start"):
            synthesize(replace(headline_spec(), f_stopband_start=10e9))


def _no_entries(*args):
    raise AssertionError("mode_chart entered its loop")


def _not_reached(*args):
    raise AssertionError("a bound let through a count it refuses")


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
        # the TE(m,n) cutoff of a filled rectangular waveguide
        chart = mode_chart(proto.aperture, proto.aperture_fill, 200e9)
        assert chart
        ap, scale = proto.aperture, C0 / (2.0 * proto.aperture_fill.refractive_index)
        for entry in chart:
            assert entry.cutoff_hz == scale * math.hypot(entry.m / ap.width_a, entry.n / ap.height_b)


HUGE_INT = 10**400
EXACT = "a real number that a float holds exactly"
_AP = RectAperture(width_a=4e-3, height_b=5e-3, depth_d=4.85e-3)

# A plain number a mode function takes, each bad one refused with a
# DomainError naming it: (function, arguments, message). The message for a
# float is the one the hand-written checks gave.
BAD_MODE_NUMBERS = {
    "chart_nan": (modes.mode_chart, (_AP, AIR, math.nan), "f_max must be finite and > 0 (got nan)"),
    "chart_zero": (modes.mode_chart, (_AP, AIR, 0.0), "f_max must be finite and > 0 (got 0.0)"),
    "chart_huge_int": (modes.mode_chart, (_AP, AIR, HUGE_INT), f"f_max must be {EXACT} (got {HUGE_INT})"),
    "chart_text": (modes.mode_chart, (_AP, AIR, "1e9"), f"f_max must be {EXACT} (got '1e9')"),
    "ratio_negative": (modes.coax_ratio_for_impedance, (-50.0, AIR), "z0 must be finite and > 0 (got -50.0)"),
    "ratio_inf": (modes.coax_ratio_for_impedance, (math.inf, AIR), "z0 must be finite and > 0 (got inf)"),
    "ratio_huge_int": (modes.coax_ratio_for_impedance, (HUGE_INT, AIR), f"z0 must be {EXACT} (got {HUGE_INT})"),
    "solve_zero": (modes.solve_inner_radius, (50.0, 0.0, AIR), "f_single_mode must be finite and > 0 (got 0.0)"),
    "solve_huge_int": (
        modes.solve_inner_radius, (50.0, HUGE_INT, AIR), f"f_single_mode must be {EXACT} (got {HUGE_INT})"
    ),
    "solve_nan_z0": (modes.solve_inner_radius, (math.nan, 10e9, AIR), "z0 must be finite and > 0 (got nan)"),
}


class TestModeChecks:
    def test_messages_name_the_part(self):
        # The mode functions check no part: each part refuses a bad value
        # when it is built, naming the bare field, and a caller that knows
        # the part's role names it (build_part, the files, `herd modes`).
        with pytest.raises(DomainError, match=r"^eps_r must be finite and >= 1 \(got 0\.5\)$"):
            Material(eps_r=0.5)
        with pytest.raises(DomainError, match=r"^r_outer must exceed r_inner "):
            CoaxGeometry(r_inner=2e-3, r_outer=1e-3)
        with pytest.raises(DomainError, match=r"^depth_d must be finite and > 0 \(got -1\.0\)$"):
            RectAperture(4e-3, 5e-3, -1.0)
        with pytest.raises(DomainError, match=r"^eps_r must be finite and >= 1 \(got inf\)$"):
            Material(math.inf)
        with pytest.raises(DomainError, match=r"^aperture_fill\.eps_r must be finite and >= 1 "):
            build_part("aperture_fill", Material, {"eps_r": math.inf})

    @pytest.mark.parametrize("name", sorted(BAD_MODE_NUMBERS))
    def test_plain_numbers_are_refused_by_name(self, name):
        function, args, message = BAD_MODE_NUMBERS[name]
        with pytest.raises(DomainError) as err:
            function(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "f, message",
        [
            (0.0, "frequency must be finite and > 0 (got 0.0)"),
            (math.nan, "frequency must be finite and > 0 (got nan)"),
            (HUGE_INT, f"frequency must be {EXACT} (got {HUGE_INT})"),
        ],
    )
    def test_sweep_reference_frequency_is_refused_by_name(self, proto, f, message):
        with pytest.raises(DomainError) as err:
            aperture_sweep(proto, "width_a", np.array([3e-3, 4e-3]), f)
        assert str(err.value) == message

    def test_modes_names_the_coax_fill(self, capsys):
        argv = ["modes", "--z0", "50", "--single-mode", "10e9", "--coax-eps", "0.5"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "herd: input error: coax_fill.eps_r must be finite and >= 1 (got 0.5)\n"


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


# Grid and sweep bounds are checked once, by FrequencyGrid and by building
# each swept design in with_aperture; the CLI passes them on unchecked. A grid
# of 10**15 points and a sweep of 10**15 steps are refused by their size
# bounds before any allocation.
HUGE = str(10**15)
BAD_GRIDS = {
    "too_large_for_memory": (["--points", HUGE], f"takes at most 10000000 points (got {HUGE})"),
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
    def test_constructors_refuse_too_many_points_before_numpy(self, spacing):
        # refused before the 80 MB array would be allocated
        with pytest.raises(DomainError, match=f"a {spacing} grid takes at most 10000000 points"):
            getattr(FrequencyGrid, spacing)(1e8, 145e9, model.MAX_GRID_POINTS + 1)

    def test_analyze_takes_a_grid_at_the_bound(self, capsys, tmp_path, proto, monkeypatch):
        monkeypatch.setattr(model, "MAX_GRID_POINTS", 100)
        path = tmp_path / "stock.design"
        path.write_text(dumps_design(proto))
        argv = ["analyze", "--design", str(path), "--format", "json"]
        assert main([*argv, "--points", "100"]) == 0
        assert main([*argv, "--log", "--points", "101"]) == 2
        err = capsys.readouterr().err
        assert err == "herd: input error: a logarithmic grid takes at most 100 points (got 101)\n"

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
    "too_large_for_memory": (
        ["--from", "3e-3", "--to", "6e-3", "--steps", HUGE], f"steps must be <= 500000 (got {HUGE})"
    ),
    "subnormal_widths": (
        ["--from", "1e-320", "--to", "1e-310", "--steps", "2"],
        "dominant-mode corner frequency must be finite and > 0 (got inf Hz from aperture.width_a = 1e-320 m)",
    ),
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


@pytest.mark.parametrize("axis, key", [("WIDTH", "a_m"), ("HEIGHT", "b_m")])
def test_analyze_refuses_a_design_whose_corner_overflows(capsys, tmp_path, proto, axis, key):
    text = dumps_design(replace(proto, dominant_mode_axis=DominantModeAxis[axis]))
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} = ")]
    path = tmp_path / "subnormal.design"
    path.write_text("\n".join([*lines, f"{key} = 1e-310"]) + "\n")
    assert main(["analyze", "--design", str(path), "--points", "3", "--claims", "default"]) == 2
    out, err = capsys.readouterr()
    side = {"a_m": "width_a", "b_m": "height_b"}[key]
    assert out == ""
    assert err == (
        "herd: parse error: invalid design: dominant-mode corner frequency must be finite "
        f"and > 0 (got inf Hz from aperture.{side} = 1e-310 m)\n"
    )


def test_analyze_refuses_a_corner_too_small_for_the_stopband_blend(capsys, tmp_path, proto):
    text = dumps_design(proto)
    text = text.replace("a_m = 0.004\n", "a_m = 1.7e308\n").replace(
        "aperture_eps_r = 2.2\n", "aperture_eps_r = 1e14\n"
    )
    path = tmp_path / "tiny_corner.design"
    path.write_text(text)
    argv = ["analyze", "--design", str(path), "--fstart", "1e-310", "--fstop", "1", "--points", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "herd: parse error: invalid design: dominant-mode corner frequency is too small for the "
        "stopband blend (got 8.817425235294121e-308 Hz from aperture.width_a = 1.7e+308 m)\n"
    )


@pytest.mark.parametrize(
    "z0, f, named",
    [("1e6", "10e9", "z0 = 1000000.0 ohm"), ("50", "1e-300", "f_single_mode = 1e-300 Hz")],
)
def test_modes_refuses_radii_out_of_float_range(capsys, z0, f, named):
    assert main(["modes", "--z0", z0, "--single-mode", f]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("herd: input error:") and named in err


def test_sections_refuses_more_figures_than_the_bound(capsys, tmp_path, proto, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SECTIONS", 6)
    path = tmp_path / "stock.design"
    path.write_text(dumps_design(proto))
    argv = ["sections", "--design", str(path), "--freqs", "40e9,60e9"]
    assert main([*argv, "--max-sections", "3"]) == 0
    capsys.readouterr()
    # refused before any attenuation is computed
    monkeypatch.setattr(cli, "section_attenuation_db", _not_reached)
    assert main([*argv, "--max-sections", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "herd: input error: sections writes at most 6 attenuation figures "
        "(got 4 sections x 2 frequencies)\n"
    )


def test_attenuation_vs_sections_refuses_more_rows_than_the_bound(proto, monkeypatch):
    assert cascade.MAX_SECTIONS == 500_000
    with pytest.raises(DomainError, match=r"^max_sections must be <= 500000 \(got 1000000000000000\)$"):
        attenuation_vs_sections(proto, 70e9, 10**15)
    monkeypatch.setattr(cascade, "MAX_SECTIONS", 5)
    assert len(attenuation_vs_sections(proto, 70e9, 5)) == 5
    with pytest.raises(DomainError, match=r"^max_sections must be <= 5 \(got 6\)$"):
        attenuation_vs_sections(proto, 70e9, 6)


def test_sweep_refuses_more_steps_than_the_bound(capsys, tmp_path, proto, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_STEPS", 3)
    path = tmp_path / "stock.design"
    path.write_text(dumps_design(proto))
    argv = ["sweep", "--design", str(path), "--param", "a", "--from", "3e-3", "--to", "6e-3"]
    assert main([*argv, "--steps", "3"]) == 0
    capsys.readouterr()
    # refused before the values are allocated
    monkeypatch.setattr(cli.np, "linspace", _not_reached)
    assert main([*argv, "--steps", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "herd: input error: steps must be <= 3 (got 4)\n"


def test_synthesize_names_an_underflowing_aperture_by_its_role(capsys, tmp_path):
    # c0 / (2 f sqrt(eps_r)) underflows to a zero width
    path = tmp_path / "huge.spec"
    kept = SPEC_FILE.values(headline_spec())
    kept.update(f_stopband_start_hz=1e308, aperture_eps_r=1e300)
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in kept.items()))
    assert main(["synthesize", "--spec", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "herd: input error: aperture.width_a must be finite and > 0 (got 0.0); "
        "aperture.height_b must be finite and > 0 (got 0.0)\n"
    )
