"""Design and spec files: exact round trips over every field, and input that
always ends in a value or a ParseError."""

import enum
import operator
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from herd import (
    CoaxGeometry,
    DesignSpec,
    DomainError,
    DominantModeAxis,
    FilterDesign,
    Material,
    ParseError,
    RectAperture,
    dumps_design,
    dumps_design_spec,
    loads_design,
    loads_design_spec,
    prototype_design,
    validate,
)
from herd.model import DESIGN_FILE
from herd.synthesis import SPEC_FILE, validate_spec


def _or_numpy(values, *numpy_types):
    """``values`` as Python numbers or as numpy scalars of ``numpy_types``."""
    return st.one_of(values, *(values.map(kind) for kind in numpy_types))


# Values can be built from numpy scalars and counts from bool; the files hold
# them as Python numbers, which compare equal.
_positive = _or_numpy(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False), np.float64
)
_eps_r = _or_numpy(st.floats(min_value=1.0, allow_infinity=False, allow_nan=False), np.float64)
_count = st.one_of(_or_numpy(st.integers(min_value=1, max_value=10**6), np.int64, np.int32), st.just(True))


@st.composite
def valid_designs(draw):
    r_inner = draw(st.floats(min_value=1e-9, max_value=1.0))
    values = dict(
        coax=CoaxGeometry(r_inner=r_inner, r_outer=r_inner * draw(st.floats(1.001, 1e3))),
        coax_fill=Material(eps_r=draw(_eps_r)),
        aperture=RectAperture(width_a=draw(_positive), height_b=draw(_positive), depth_d=draw(_positive)),
        aperture_fill=Material(eps_r=draw(_eps_r)),
        sections=draw(_count),
        apertures_per_section=draw(_count),
        section_pitch=draw(_positive),
        stopband_kappa=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        dominant_mode_axis=draw(st.sampled_from(DominantModeAxis)),
    )
    try:
        return FilterDesign(**values)
    except DomainError:
        # the side and fill put the dominant-mode corner at 0 or inf Hz
        reject()


@st.composite
def valid_specs(draw):
    return DesignSpec(
        z0=draw(_positive),
        f_passband_top=draw(_positive),
        passband_il_budget_db=draw(_positive),
        f_stopband_start=draw(_positive),
        stopband_min_attenuation_db=draw(_positive),
        aperture_fill=Material(eps_r=draw(_eps_r)),
        coax_fill=Material(eps_r=draw(_eps_r)),
        apertures_per_section=draw(_count),
    )


@given(valid_designs())
def test_design_round_trip_is_exact(design):
    assert validate(design) == []
    assert loads_design(dumps_design(design, header="round trip")) == design


@given(valid_specs())
def test_spec_round_trip_is_exact(spec):
    assert validate_spec(spec) == []
    assert loads_design_spec(dumps_design_spec(spec, header="round trip")) == spec


def test_prototype_round_trip_is_exact():
    assert loads_design(dumps_design(prototype_design())) == prototype_design()


@pytest.mark.parametrize(
    "change, line",
    [
        ({"sections": np.int64(3)}, "sections = 3"),
        ({"sections": True}, "sections = 1"),
        # the largest count a float holds exactly, with every one below it
        ({"sections": 2**53}, "sections = 9007199254740992"),
        ({"apertures_per_section": np.int64(2**53)}, "apertures_per_section = 9007199254740992"),
        ({"section_pitch": np.float64(0.01)}, "section_pitch_m = 0.01"),
    ],
)
def test_numpy_scalars_and_bools_are_written_as_numbers(change, line):
    design = replace(prototype_design(), **change)
    text = dumps_design(design)
    assert line in text.splitlines()
    assert loads_design(text) == design


def test_numpy_spec_target_is_written_as_a_number():
    spec = DesignSpec(
        z0=np.float64(50.0),
        f_passband_top=10e9,
        passband_il_budget_db=0.15,
        f_stopband_start=25.3e9,
        stopband_min_attenuation_db=60.0,
        aperture_fill=Material(eps_r=2.2),
        coax_fill=Material(eps_r=1.0),
    )
    text = dumps_design_spec(spec)
    assert text.startswith("z0_ohm = 50.0\n")
    assert loads_design_spec(text) == spec


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), "3", None])
@pytest.mark.parametrize("name", ["sections", "apertures_per_section"])
def test_a_count_that_is_not_an_integer_is_refused(name, count):
    with pytest.raises(DomainError, match=f"^{name} must be an integer"):
        replace(prototype_design(), **{name: count})


@pytest.mark.parametrize(
    "count, got",
    [
        (2**53 + 1, "9007199254740993"),
        (np.uint64(2**64 - 1), "18446744073709551615"),
        (10**309, str(10**309)),
        # Python writes no int of more than 4300 digits as text
        (10**5000, "an integer of 16610 bits"),
    ],
    ids=["2**53+1", "uint64", "1e309", "1e5000"],
)
@pytest.mark.parametrize("name", ["sections", "apertures_per_section"])
def test_a_count_no_float_holds_is_refused(name, count, got):
    with pytest.raises(DomainError) as err:
        replace(prototype_design(), **{name: count})
    assert str(err.value) == f"{name} must be <= 2**53 = 9007199254740992 (got {got})"


def test_a_count_past_2_53_is_refused_in_a_file():
    design = dumps_design(prototype_design()).replace("sections = 4", "sections = 9007199254740993")
    with pytest.raises(ParseError, match=r"^invalid design: sections must be <= 2\*\*53 "):
        loads_design(design)
    spec = (Path(__file__).resolve().parent.parent / "configs/reference_targets.spec").read_text()
    spec = spec.replace("apertures_per_section = 8", "apertures_per_section = 9007199254740993")
    with pytest.raises(ParseError, match=r"^invalid spec: apertures_per_section must be <= 2\*\*53 "):
        loads_design_spec(spec)


@pytest.mark.parametrize("value", [10**400, Fraction(1, 3), 2**53 + 1, "0.01", None])
def test_a_float_field_no_float_holds_is_refused(value):
    # each would build, then fail to be written or read back unequal
    with pytest.raises(DomainError, match="^section_pitch must be a real number that a float holds"):
        replace(prototype_design(), section_pitch=value)


def _key_value_texts(keys):
    value = st.one_of(
        st.text(max_size=12),
        st.floats().map(repr),
        st.integers(min_value=-10, max_value=10**30).map(str),
        st.sampled_from(["WIDTH", "height", "nan", "-inf", "1e999", "0", "1_0", ""]),
    )
    line = st.one_of(
        st.tuples(st.sampled_from(keys), value).map(lambda kv: f"{kv[0]} = {kv[1]}"),
        st.text(max_size=20),
    )
    return st.one_of(st.text(), st.lists(line, max_size=16).map("\n".join))


@given(_key_value_texts([field.key for field in DESIGN_FILE.fields]))
def test_any_design_text_gives_a_valid_design_or_a_parse_error(text):
    try:
        design = loads_design(text)
    except ParseError:
        return
    assert validate(design) == []


@given(_key_value_texts([field.key for field in SPEC_FILE.fields]))
def test_any_spec_text_gives_a_valid_spec_or_a_parse_error(text):
    try:
        spec = loads_design_spec(text)
    except ParseError:
        return
    assert validate_spec(spec) == []


class TestSchema:
    def test_json_design_block_follows_the_file(self, proto):
        values = DESIGN_FILE.values(proto)
        assert list(values) == [field.key for field in DESIGN_FILE.fields]
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        assert loads_design(text) == proto

    def test_bad_value_reported_before_missing_key(self, proto):
        text = dumps_design(proto).replace("= 0.004", "= wide")
        text = "\n".join(line for line in text.splitlines() if not line.startswith("sections"))
        with pytest.raises(ParseError, match="'a_m' expects a number") as err:
            loads_design(text)
        assert err.value.line == 1

    def test_bad_value_names_key_and_line(self, proto):
        text = dumps_design(proto).replace("= WIDTH", "= SIDEWAYS")
        with pytest.raises(ParseError, match="WIDTH or HEIGHT") as err:
            loads_design(text)
        assert err.value.line == len(DESIGN_FILE.fields)

    def test_invalid_spec_is_a_parse_error(self):
        text = (
            "z0_ohm = 50.0\n"
            "f_passband_top_hz = 10e9\n"
            "passband_il_budget_db = -1.0\n"
            "f_stopband_start_hz = 25.3e9\n"
            "stopband_min_attenuation_db = 60.0\n"
            "aperture_eps_r = 0.5\n"
        )
        # a faulty part is reported first, and alone, as a bad line is
        with pytest.raises(ParseError) as err:
            loads_design_spec(text)
        assert str(err.value) == "invalid spec: aperture_fill.eps_r must be finite and >= 1 (got 0.5)"
        with pytest.raises(ParseError) as err:
            loads_design_spec(text.replace("aperture_eps_r = 0.5", "aperture_eps_r = 2.2"))
        assert str(err.value) == "invalid spec: passband_il_budget_db must be finite and > 0 (got -1.0)"

    def test_multi_line_header_stays_a_comment(self, proto):
        text = dumps_design(proto, header="two\nlines = 1")
        assert text.startswith("# two\n# lines = 1\n")
        assert loads_design(text) == proto


# Each key that fills a part of a design or spec, a bad value for it, and the
# message its file gives: the part's own message with the part's role.
PART_KEY_ERRORS = {
    ("design", "a_m"): ("0", "aperture.width_a must be finite and > 0 (got 0.0)"),
    ("design", "b_m"): ("-1e-3", "aperture.height_b must be finite and > 0 (got -0.001)"),
    ("design", "d_m"): ("nan", "aperture.depth_d must be finite and > 0 (got nan)"),
    ("design", "r_inner_m"): ("0", "coax.r_inner must be finite and > 0 (got 0.0)"),
    ("design", "r_outer_m"): (
        "0.001", "coax.r_outer must exceed r_inner (got r_inner=0.00159, r_outer=0.001)"
    ),
    ("design", "coax_eps_r"): ("0.5", "coax_fill.eps_r must be finite and >= 1 (got 0.5)"),
    ("design", "aperture_eps_r"): ("inf", "aperture_fill.eps_r must be finite and >= 1 (got inf)"),
    ("spec", "aperture_eps_r"): ("0.5", "aperture_fill.eps_r must be finite and >= 1 (got 0.5)"),
    ("spec", "coax_eps_r"): ("0.9", "coax_fill.eps_r must be finite and >= 1 (got 0.9)"),
}
_FILES = {
    "design": (DESIGN_FILE, dumps_design(prototype_design())),
    "spec": (SPEC_FILE, (Path(__file__).resolve().parent.parent / "configs/reference_targets.spec").read_text()),
}


def test_every_part_key_has_a_pinned_message():
    part_keys = {
        (name, field.key)
        for name, (kv_format, _) in _FILES.items()
        for field in kv_format.fields
        if "." in field.attr
    }
    assert part_keys == set(PART_KEY_ERRORS)


@pytest.mark.parametrize("name, key", sorted(PART_KEY_ERRORS))
def test_a_bad_part_key_names_the_part_by_its_role(name, key):
    kv_format, good = _FILES[name]
    value, message = PART_KEY_ERRORS[name, key]
    lines = [line for line in good.splitlines() if line.partition(" = ")[0] != key]
    with pytest.raises(ParseError) as err:
        kv_format.loads("\n".join([*lines, f"{key} = {value}"]) + "\n")
    assert str(err.value) == f"invalid {name}: {message}"


# --- the text of a file, and the line and message of each fault ----------------

STOCK_DESIGN_TEXT = (
    "a_m = 0.004\nb_m = 0.005\nd_m = 0.00485\nr_inner_m = 0.00159\nr_outer_m = 0.00365\n"
    "coax_eps_r = 1.0\naperture_eps_r = 2.2\napertures_per_section = 8\nsections = 4\n"
    "section_pitch_m = 0.01\nstopband_kappa = 0.35062\ndominant_mode_axis = WIDTH\n"
)
REFERENCE_SPEC_TEXT = (
    "z0_ohm = 50.0\nf_passband_top_hz = 10000000000.0\npassband_il_budget_db = 0.15\n"
    "f_stopband_start_hz = 25300000000.0\nstopband_min_attenuation_db = 60.0\n"
    "aperture_eps_r = 2.2\ncoax_eps_r = 1.0\napertures_per_section = 8\n"
)


def _reference_text(kv_format, obj, header: str) -> str:
    """The text of ``obj`` written one field at a time, testing each value's
    type: an enum member as its value, a number as the repr of its field's
    kind of it."""
    lines = [f"# {line}" for line in header.splitlines()]
    for field in kv_format.fields:
        value = operator.attrgetter(field.attr)(obj)
        text = value.value if isinstance(value, enum.Enum) else repr(field.kind(value))
        lines.append(f"{field.key} = {text}")
    return "\n".join(lines) + "\n"


def _field_types(kv_format, obj) -> list[type]:
    return [type(operator.attrgetter(field.attr)(obj)) for field in kv_format.fields]


def test_stock_texts_are_pinned():
    assert dumps_design(prototype_design()) == STOCK_DESIGN_TEXT
    assert dumps_design(prototype_design(), header="stock\ndesign") == "# stock\n# design\n" + STOCK_DESIGN_TEXT
    spec = loads_design_spec(_FILES["spec"][1])
    assert dumps_design_spec(spec) == REFERENCE_SPEC_TEXT
    assert loads_design(STOCK_DESIGN_TEXT) == prototype_design()
    assert loads_design_spec(REFERENCE_SPEC_TEXT) == spec


_headers = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)


@given(valid_designs(), _headers)
def test_design_text_is_written_field_by_field(design, header):
    text = dumps_design(design, header)
    assert text == _reference_text(DESIGN_FILE, design, header)
    again = loads_design(text)
    assert again == design
    # each value is read as its field's kind: float, int or the enum
    assert _field_types(DESIGN_FILE, again) == [field.kind for field in DESIGN_FILE.fields]


@given(valid_specs(), _headers)
def test_spec_text_is_written_field_by_field(spec, header):
    text = dumps_design_spec(spec, header)
    assert text == _reference_text(SPEC_FILE, spec, header)
    again = loads_design_spec(text)
    assert again == spec
    assert _field_types(SPEC_FILE, again) == [field.kind for field in SPEC_FILE.fields]


# A line put in the stock design file as its fifth line (after a comment and
# three keys), and the error it gives. The duplicate is found at the file's
# own `sections` line.
MALFORMED_LINES = {
    "no equals sign": ("a_m 0.004", 5, "expected 'key = value', got 'a_m 0.004'"),
    "unknown key": ("bogus_key = 1", 5, "unknown key 'bogus_key'"),
    "duplicate key": ("sections = 4", 11, "duplicate key 'sections'"),
    "empty value": ("section_pitch_m =", 5, "missing value for key 'section_pitch_m'"),
    "value that is a comment": ("section_pitch_m = # none", 5, "missing value for key 'section_pitch_m'"),
    "bad float": ("section_pitch_m = wide", 5, "key 'section_pitch_m' expects a number, got 'wide'"),
    "bad int": ("apertures_per_section = 8.0", 5, "key 'apertures_per_section' expects an integer, got '8.0'"),
    "bad enum": ("dominant_mode_axis = SIDEWAYS", 5, "key 'dominant_mode_axis' expects WIDTH or HEIGHT, got 'SIDEWAYS'"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LINES))
def test_a_malformed_line_is_named_by_its_number(name):
    line, lineno, message = MALFORMED_LINES[name]
    stock = STOCK_DESIGN_TEXT.splitlines()
    with pytest.raises(ParseError) as err:
        loads_design("\n".join(["# header", *stock[:3], line, *stock[3:]]) + "\n")
    assert err.value.line == lineno
    assert str(err.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize("kv_format, text", [(DESIGN_FILE, STOCK_DESIGN_TEXT), (SPEC_FILE, REFERENCE_SPEC_TEXT)])
def test_a_missing_required_key_has_no_line(kv_format, text):
    for field in kv_format.fields:
        if field.default is not None:
            continue
        kept = [line for line in text.splitlines() if line.partition(" = ")[0] != field.key]
        with pytest.raises(ParseError) as err:
            kv_format.loads("\n".join(kept) + "\n")
        assert err.value.line == 0
        assert str(err.value) == f"missing required key {field.key!r}"


def test_a_bad_spec_value_is_named_by_its_number():
    with pytest.raises(ParseError) as err:
        loads_design_spec("z0_ohm = 50\napertures_per_section = 1e3\n")
    assert (err.value.line, str(err.value)) == (2, "line 2: key 'apertures_per_section' expects an integer, got '1e3'")
