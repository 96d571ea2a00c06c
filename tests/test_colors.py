import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from accessfix.colors import (
    RgbColor,
    contrast_ratio,
    parse_color,
    relative_luminance,
)


def oracle_luminance(r, g, b):
    # Direct evaluation of the WCAG 2 definition, independent of the module.
    def lin(v):
        s = v / 255.0
        return s / 12.92 if s <= 0.03928 else math.pow((s + 0.055) / 1.055, 2.4)

    return 0.2126 * lin(r) + 0.7152 * lin(g) + 0.0722 * lin(b)


def test_luminance_black_and_white():
    assert relative_luminance(RgbColor(0, 0, 0)) == 0.0
    assert relative_luminance(RgbColor(255, 255, 255)) == 1.0


def test_luminance_mid_gray_matches_oracle():
    got = relative_luminance(RgbColor(0x77, 0x77, 0x77))
    assert got == pytest.approx(oracle_luminance(0x77, 0x77, 0x77))
    assert got == pytest.approx(0.1845, abs=5e-4)


def test_contrast_black_on_white_exactly_21():
    assert contrast_ratio(RgbColor(0, 0, 0), RgbColor(255, 255, 255)) == 21.0


def test_contrast_gray_on_white_fails_aa():
    ratio = contrast_ratio(parse_color("#777777"), parse_color("#ffffff"))
    assert 4.4 < ratio < 4.5


def test_contrast_symmetry_1000_random_pairs():
    rng = random.Random(20240501)
    for _ in range(1000):
        a = RgbColor(rng.randrange(256), rng.randrange(256), rng.randrange(256))
        b = RgbColor(rng.randrange(256), rng.randrange(256), rng.randrange(256))
        assert contrast_ratio(a, b) == contrast_ratio(b, a)
        assert contrast_ratio(a, b) >= 1.0


@given(
    st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
    st.sampled_from("rgb"), st.integers(1, 255),
)
def test_luminance_monotone_in_each_channel(r, g, b, channel, bump):
    base = RgbColor(r, g, b)
    raised = RgbColor(
        min(r + bump, 255) if channel == "r" else r,
        min(g + bump, 255) if channel == "g" else g,
        min(b + bump, 255) if channel == "b" else b,
    )
    assert relative_luminance(raised) >= relative_luminance(base)


def test_alpha_composited_before_ratio():
    translucent = RgbColor(0, 0, 0, alpha=0.0)
    assert contrast_ratio(translucent, RgbColor(255, 255, 255)) == 1.0


@pytest.mark.parametrize("text,expected", [
    ("#fff", (255, 255, 255)),
    ("#1a2B3c", (26, 43, 60)),
    ("rgb(1, 2, 3)", (1, 2, 3)),
    ("white", (255, 255, 255)),
])
def test_parse_color_forms(text, expected):
    c = parse_color(text)
    assert (c.r, c.g, c.b) == expected


def test_parse_color_rejects_garbage():
    assert parse_color("not-a-color") is None
    assert parse_color("#12345") is None
    assert parse_color("rgb(1e999,0,0)") is None  # int(inf) overflows


@pytest.mark.parametrize("text", ["rgb(10,20,30", "rgba(10,20,30,0.5"])
def test_parse_color_rejects_unclosed_function(text):
    assert parse_color(text) is None


def test_channel_range_enforced():
    with pytest.raises(ValueError):
        RgbColor(300, 0, 0)
