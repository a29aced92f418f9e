"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with -s to see
them). Expected values come from independent evaluations: high-precision
Decimal arithmetic for the loss chain, brute-force enumeration and seeded
randomized suites elsewhere.
"""

import cmath
import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from herd import (
    AIR,
    DesignSpec,
    FrequencyGrid,
    Material,
    Provenance,
    SParamTable,
    attenuation_vs_sections,
    calibrate_kappa,
    coax_ratio_for_impedance,
    corner_frequency,
    dumps_design,
    filter_response,
    inband_transmission,
    min_depth_for_budget,
    mismatch_loss_db,
    parse_touchstone,
    prototype_design,
    solve_inner_radius,
    synthesize,
    verify,
    with_aperture,
    write_touchstone,
)
from herd import DomainError, DominantModeAxis, ParseError, loads_design
from herd.cascade import cascade_loss_db, section_attenuation_db
from herd.cli import main
from herd.leakage import evanescent_gamma
from herd.model import DEFAULT_TRANSITION_WIDTH, DESIGN_FILE, LOGISTIC_SHARPNESS


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {number:2d}: {summary}")
        raise
    print(f"PASS {number:2d}: {summary}")


def test_01_impedance_ratio():
    with criterion(1, "radius ratio for 50 ohm in air lies in [2.301, 2.304]"):
        ratio = coax_ratio_for_impedance(50.0, AIR)
        assert 2.301 <= ratio <= 2.304


def test_02_inner_radius_solve():
    with criterion(2, "inner radius for 50 ohm / 10 GHz single-mode is 2.89 mm +/- 0.01"):
        geom = solve_inner_radius(50.0, 10e9, AIR)
        assert geom.r_inner == pytest.approx(2.89e-3, abs=0.01e-3)


def test_03_mismatch_loss():
    with criterion(3, "mismatch loss of a -20 dB return floor is 0.0436 dB +/- 0.0005"):
        assert mismatch_loss_db(-20.0) == pytest.approx(0.0436, abs=0.0005)


def _decimal_inband_loss_db() -> float:
    """Independent 50-digit evaluation of the additive-loss chain for the
    stock design at 10 GHz: gamma -> F -> (1-|F|^2)**32 -> dB."""
    getcontext().prec = 50
    c0 = Decimal(299792458)
    pi = Decimal("3.14159265358979323846264338327950288419716939937511")
    eps = Decimal("2.2")
    width = Decimal("0.004")
    depth = Decimal("0.00485")
    f = Decimal(10_000_000_000)
    fc = c0 / (2 * width * eps.sqrt())
    gamma = 2 * pi * eps.sqrt() / c0 * ((fc - f) * (fc + f)).sqrt()
    amplitude = (-gamma * depth).exp()
    transmission = (1 - amplitude * amplitude) ** 32
    return float(-10 * transmission.log10())


def test_04_stock_inband_loss():
    with criterion(4, "stock in-band loss at 10 GHz is 0.127 dB +/- 0.005 and under 0.15 dB"):
        oracle = _decimal_inband_loss_db()
        assert oracle == pytest.approx(0.1272678964209014, abs=1e-12)
        model = inband_transmission(prototype_design(), 10e9).insertion_loss_db
        assert model == pytest.approx(oracle, abs=1e-9)
        assert model == pytest.approx(0.127, abs=0.005)
        assert model <= 0.15


def test_05_depth_inversion():
    with criterion(5, "depth for a 0.127 dB budget at 10 GHz is 4.85 mm +/- 0.02"):
        depth = min_depth_for_budget(prototype_design(), 10e9, 0.127)
        assert depth == pytest.approx(4.85e-3, abs=0.02e-3)


def test_06_stopband_calibration():
    with criterion(6, "drain calibrates to 0.3505 +/- 0.001 and the stopband holds 60 dB"):
        proto = prototype_design()
        kappa = calibrate_kappa(proto, 60.0)
        assert kappa == pytest.approx(0.3505, abs=0.001)

        start = time.perf_counter()
        grid = FrequencyGrid.linear(70e9, 145e9, 1000)
        table = filter_response(proto, grid)
        attenuations = [-20.0 * math.log10(abs(p.s21)) for p in table.entries]
        elapsed = time.perf_counter() - start
        assert min(attenuations) >= 60.0
        print(f"      (1000-point stopband response in {elapsed * 1e3:.0f} ms)")


def test_07_section_scaling_linearity():
    with criterion(7, "attenuation is linear in sections at 40/60/70 GHz (1e-9 dB)"):
        proto = prototype_design()
        for f in (40e9, 60e9, 70e9):
            values = [att for _, att in attenuation_vs_sections(proto, f, 8)]
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert max(diffs) - min(diffs) <= 1e-9


def test_08_corner_frequency_properties():
    with criterion(8, "corner frequency value, height invariance and scaling laws"):
        proto = prototype_design()
        assert corner_frequency(proto) == pytest.approx(25.26e9, abs=0.05e9)

        rng = random.Random(8)
        for _ in range(120):
            width = rng.uniform(0.5e-3, 20e-3)
            height = rng.uniform(0.5e-3, 20e-3)
            eps = rng.uniform(1.0, 9.0)
            design = replace(
                proto,
                aperture=replace(proto.aperture, width_a=width, height_b=height),
                aperture_fill=Material(eps_r=eps),
            )
            base = corner_frequency(design)

            # height never enters (exact)
            other = with_aperture(design, height_b=rng.uniform(0.5e-3, 20e-3))
            assert corner_frequency(other) == base

            # corner scales as 1/width
            factor = rng.uniform(1.1, 4.0)
            scaled = with_aperture(design, width_a=width * factor)
            assert corner_frequency(scaled) * factor == pytest.approx(base, rel=1e-9)

            # corner scales as 1/sqrt(eps)
            k = rng.uniform(1.1, 4.0)
            denser = replace(design, aperture_fill=Material(eps_r=eps * k))
            assert corner_frequency(denser) * math.sqrt(k) == pytest.approx(base, rel=1e-9)


def _random_table(rng: random.Random) -> SParamTable:
    n = rng.randint(3, 8)
    freq = rng.uniform(1e3, 1e9)
    freqs = []
    for _ in range(n):
        freqs.append(freq)
        freq *= rng.uniform(1.2, 2.5)

    def value():
        return cmath.rect(rng.uniform(1e-6, 1.5), rng.uniform(-math.pi, math.pi))

    s11, s12, s21, s22 = zip(*((value(), value(), value(), value()) for _ in range(n)))
    return SParamTable(
        FrequencyGrid(tuple(freqs)), Provenance.MEASURED, s11=s11, s21=s21, s12=s12, s22=s22
    )


def test_09_touchstone_round_trip():
    with criterion(9, "1000 random tables survive write/parse in all formats and units (1e-9)"):
        rng = random.Random(9)
        combos = [
            (fmt, unit)
            for fmt in ("RI", "MA", "DB")
            for unit in ("HZ", "KHZ", "MHZ", "GHZ")
        ]
        for i in range(1000):
            fmt, unit = combos[i % len(combos)]
            table = _random_table(rng)
            back = parse_touchstone(write_touchstone(table, fmt=fmt, unit=unit))
            assert len(back.entries) == len(table.entries)
            for f1, f2 in zip(table.grid, back.grid):
                assert abs(f2 - f1) <= 1e-9 * f1
            for p1, p2 in zip(table.entries, back.entries):
                for a, b in (
                    (p1.s11, p2.s11),
                    (p1.s12, p2.s12),
                    (p1.s21, p2.s21),
                    (p1.s22, p2.s22),
                ):
                    assert abs(a - b) <= 1e-9 * abs(a)


def test_10_synthesis_closure():
    with criterion(10, "50 random specs close with non-negative margins; headline spec lands on stock family"):
        rng = random.Random(10)
        for _ in range(50):
            f_pass = rng.uniform(4e9, 14e9)
            spec = DesignSpec(
                z0=rng.uniform(40.0, 70.0),
                f_passband_top=f_pass,
                passband_il_budget_db=rng.uniform(0.05, 0.5),
                f_stopband_start=f_pass * rng.uniform(3.0, 6.0),
                stopband_min_attenuation_db=rng.uniform(20.0, 80.0),
                aperture_fill=Material(eps_r=rng.uniform(1.0, 3.0)),
                coax_fill=AIR,
                apertures_per_section=rng.choice([4, 8, 12]),
            )
            report = synthesize(spec)
            check = verify(report.design, spec)
            assert check.margin_passband_db >= 0.0
            assert check.margin_stopband_db >= 0.0

        headline = DesignSpec(
            z0=50.0,
            f_passband_top=10e9,
            passband_il_budget_db=0.15,
            f_stopband_start=25.3e9,
            stopband_min_attenuation_db=60.0,
            aperture_fill=Material(eps_r=2.2),
            coax_fill=AIR,
            apertures_per_section=8,
        )
        design = synthesize(headline).design
        assert design.aperture.width_a == pytest.approx(4.0e-3, abs=0.1e-3)
        assert design.sections == 4
        assert 4.5e-3 <= design.aperture.depth_d <= 5.2e-3


def test_11_end_to_end_cli(tmp_path, capsys):
    with criterion(11, "analyze exits 0 on the stock design and 1 with two sections"):
        stock = tmp_path / "stock.design"
        stock.write_text(dumps_design(prototype_design()))
        code = main(
            ["analyze", "--design", str(stock), "--fstart", "1e8", "--fstop", "145e9",
             "--points", "1000", "--claims", "default"]
        )
        capsys.readouterr()
        assert code == 0

        halved = tmp_path / "two.design"
        halved.write_text(dumps_design(replace(prototype_design(), sections=2)))
        code = main(["analyze", "--design", str(halved), "--claims", "default"])
        capsys.readouterr()
        assert code == 1


# --- losses against a Decimal reference ----------------------------------------

_SMALL = Decimal("1e-30")


def _expm1(y: Decimal) -> Decimal:
    return y + y * y / 2 + y * y * y / 6 if abs(y) < _SMALL else y.exp() - 1


def _log1p(s: Decimal) -> Decimal:
    return s - s * s / 2 + s * s * s / 3 if abs(s) < _SMALL else (1 + s).ln()


def _decimal_losses(design, f: float) -> tuple[Decimal, Decimal | None]:
    """(loss of one section, in-band loss over all apertures or None at and
    above the corner) [dB] at ``f``, in 80-digit Decimal arithmetic with an
    unbounded exponent, from the model's float gamma and logistic argument:
    the blend (1 - w) (1 - amp**2)**A + w (1 - kappa)**A of one section and
    (1 - amp**2)**(sections A) in band, with amp = exp(-gamma depth).

    Below 1e-30 the differences from 1 that the closed form takes go through
    their series, so that no digit of a small loss is lost to precision."""
    with localcontext(Context(prec=80, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        fc = corner_frequency(design)
        arg = Decimal(min(f - fc, fc) * (LOGISTIC_SHARPNESS / (DEFAULT_TRANSITION_WIDTH * fc)))
        tail = (-arg).exp()
        weight, rest = 1 / (1 + tail), tail / (1 + tail)
        n_ap = design.apertures_per_section
        ln_above = n_ap * _log1p(-Decimal(design.stopband_kappa))
        ln_below, inband = Decimal("-Infinity"), None
        if f < fc:
            gamma = float(evanescent_gamma(design, fc, f))
            two_x = 2 * Decimal(gamma) * Decimal(design.aperture.depth_d)
            # ln(1 - exp(-2x)) of the field power one aperture passes
            if two_x > 1:
                ln_pass = _log1p(-(-two_x).exp())
            else:
                ln_pass = (-_expm1(-two_x)).ln() if two_x else Decimal("-Infinity")
            ln_below = n_ap * ln_pass
            inband = -10 * design.total_apertures * ln_pass / Decimal(10).ln()
        less_one = rest * _expm1(ln_below) + weight * _expm1(ln_above)
        if less_one > Decimal("-0.5"):
            ln_power = _log1p(less_one)
        else:
            power = rest * ln_below.exp() + weight * ln_above.exp()
            ln_power = power.ln() if power else Decimal("-Infinity")
        return -10 * ln_power / Decimal(10).ln(), inband


def _agrees(got: float, want: Decimal) -> bool:
    """Within 1e-12 relative of the reference, or within 1e-300 dB of it: a
    smaller figure comes from a field power below the normal float range,
    which holds fewer digits."""
    if want.is_infinite() or math.isinf(got):
        return Decimal(got) == want
    return abs(Decimal(got) - want) <= Decimal("1e-12") * abs(want) + Decimal("1e-300")


# A section whose power is below the smallest positive float passes none.
_NO_POWER_DB = -10 * Decimal("5e-324").log10()

# The fields the losses read, each kept or scaled by 10**u with u in [-8, 8]
# or [-300, 300], as tests/test_input_harness.py scales them; the counts are
# clipped to 1..10**6.
_STOCK = DESIGN_FILE.values(prototype_design())
_EXPONENTS = st.one_of(st.floats(-8.0, 8.0), st.floats(-300.0, 300.0))


def _scaled(value):
    if isinstance(value, int):
        grown = _EXPONENTS.map(lambda u: round(min(max(value * 10.0**u, 1.0), 1e6)))
        return st.one_of(st.just(value), grown)
    return st.one_of(st.just(value), _EXPONENTS.map(lambda u: value * 10.0**u))


_DESIGNS = st.fixed_dictionaries(
    {
        **{key: st.just(value) for key, value in _STOCK.items()},
        **{key: _scaled(_STOCK[key]) for key in ("a_m", "b_m", "d_m", "aperture_eps_r",
                                                 "apertures_per_section", "sections", "stopband_kappa")},
        "dominant_mode_axis": st.sampled_from([axis.value for axis in DominantModeAxis]),
    }
)
# A frequency as a share of the corner: the corner, the floats next to it, a
# point of the blend band or a share from 1e-12 to 1e12.
_SHARES = st.one_of(
    st.sampled_from([1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52]),
    st.floats(0.5, 2.0),
    st.floats(-12.0, 12.0).map(lambda u: 10.0**u),
)


@given(values=_DESIGNS, shares=st.lists(_SHARES, min_size=1, max_size=8))
def _check_losses_against_the_reference(values, shares):
    try:
        design = loads_design("".join(f"{key} = {value}\n" for key, value in values.items()))
    except (DomainError, ParseError):
        assume(False)
    fc = corner_frequency(design)
    freqs = sorted({fc * share for share in shares if 0.0 < fc * share < math.inf})
    assume(freqs)
    refs = [_decimal_losses(design, f) for f in freqs]
    # a loss next to the no-power bound may round to either side of it
    assume(all(abs(section - _NO_POWER_DB) > Decimal("1e-9") * _NO_POWER_DB for section, _ in refs))
    for f, (section, inband) in zip(freqs, refs):
        if inband is not None:
            assert _agrees(inband_transmission(design, f).insertion_loss_db, inband), f
        if section > _NO_POWER_DB:
            with pytest.raises(DomainError, match="zero transmission"):
                section_attenuation_db(design, f)
            continue
        assert _agrees(section_attenuation_db(design, f), section), f
    if all(section <= _NO_POWER_DB for section, _ in refs):
        try:
            losses = cascade_loss_db(design, FrequencyGrid(tuple(freqs)))
        except DomainError as exc:
            # the phase across one section past the float range
            assert "overflows" in str(exc)
            return
        for got, (section, _) in zip(losses.tolist(), refs):
            assert _agrees(got, design.sections * section)


def test_12_losses_match_the_decimal_reference():
    with criterion(12, "section, in-band and cascaded losses within 1e-12 of an 80-digit reference"):
        _check_losses_against_the_reference()


def _run_json(argv, capsys):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_13_a_lossless_hole_writes_no_gain(tmp_path, capsys):
    with criterion(13, "a 1e307 m deep hole: analyze writes no s21 above 0 dB in any format"):
        deep = tmp_path / "deep.design"
        deep.write_text(dumps_design(with_aperture(prototype_design(), depth_d=1e307)))
        argv = ["analyze", "--design", str(deep), "--claims", "default"]
        code, doc = _run_json(argv, capsys)
        assert code == 0
        assert all(row["s21_db"] <= 0.0 for row in doc["response"])
        assert all(band["max_insertion_loss_db"] >= 0.0 for band in doc["band_metrics"])
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:] if line[0] != "#"]
        assert all(float(row[1]) <= 0.0 for row in rows)
        assert main([*argv, "--format", "touchstone"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(float(line.split()[3]) <= 0.0 for line in lines if line[0] not in "!#")


def test_14_analyze_and_sections_agree_on_a_nearly_lossless_design(tmp_path, capsys):
    with criterion(14, "d = 12 mm at 1 GHz: analyze and sections write the same bits, within 1e-12"):
        design = with_aperture(prototype_design(), depth_d=0.012)
        path = tmp_path / "thick.design"
        path.write_text(dumps_design(design))
        _, doc = _run_json(["analyze", "--design", str(path), "--fstart", "1e9", "--fstop", "2e10",
                            "--points", "5"], capsys)
        _, rows = _run_json(["sections", "--design", str(path), "--freqs", "1e9",
                             "--max-sections", str(design.sections)], capsys)
        analyzed = doc["response"][0]["s21_db"]
        (listed,) = rows["rows"][-1]["attenuation_db"]
        assert analyzed == -listed
        section, _ = _decimal_losses(design, 1e9)
        assert _agrees(listed, design.sections * section)
        # the figure the complex route wrote wrong in its 9th digit
        assert listed == pytest.approx(9.1852508947e-07, rel=1e-10)


def test_15_a_huge_target_meets_its_passband_budget():
    with criterion(15, "a 637584653 dB target (42505397 sections) keeps a passband margin >= 0"):
        spec = DesignSpec(50.0, 10e9, 0.15, 25.3e9, 637584653.0, Material(2.2), AIR)
        report = synthesize(spec)
        assert report.design.sections == 42505397
        assert report.margin_passband_db >= 0.0
        assert math.isfinite(report.margin_stopband_db)
