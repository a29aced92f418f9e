"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with -s to see
them). Expected values come from independent evaluations: high-precision
Decimal arithmetic for the loss chain, brute-force enumeration and seeded
randomized suites elsewhere.
"""

import cmath
import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from decimal import Decimal, getcontext

import pytest

from herd import (
    AIR,
    DesignSpec,
    FrequencyGrid,
    Material,
    Provenance,
    SParamTable,
    TwoPort,
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
from herd.cli import main


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

    entries = tuple(
        TwoPort(s11=value(), s12=value(), s21=value(), s22=value()) for _ in range(n)
    )
    return SParamTable(
        grid=FrequencyGrid(tuple(freqs)), entries=entries, provenance=Provenance.MEASURED
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
