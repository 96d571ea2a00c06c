"""Color parsing and WCAG 2 contrast math."""

from __future__ import annotations

from dataclasses import dataclass

NAMED_COLORS = {
    "black": (0, 0, 0),
    "silver": (192, 192, 192),
    "gray": (128, 128, 128),
    "grey": (128, 128, 128),
    "white": (255, 255, 255),
    "maroon": (128, 0, 0),
    "red": (255, 0, 0),
    "purple": (128, 0, 128),
    "fuchsia": (255, 0, 255),
    "green": (0, 128, 0),
    "lime": (0, 255, 0),
    "olive": (128, 128, 0),
    "yellow": (255, 255, 0),
    "navy": (0, 0, 128),
    "blue": (0, 0, 255),
    "teal": (0, 128, 128),
    "aqua": (0, 255, 255),
    "orange": (255, 165, 0),
    "darkgray": (169, 169, 169),
    "lightgray": (211, 211, 211),
}


@dataclass(frozen=True)
class RgbColor:
    r: int
    g: int
    b: int
    alpha: float = 1.0

    def __post_init__(self):
        for channel in (self.r, self.g, self.b):
            if not 0 <= channel <= 255:
                raise ValueError(f"channel out of range: {channel}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha out of range: {self.alpha}")

    def to_hex(self) -> str:
        return f"#{self.r:02x}{self.g:02x}{self.b:02x}"


def parse_color(text: str):
    """Parse #RGB, #RRGGBB, rgb()/rgba(), or a named color; None if unknown."""
    if not text:
        return None
    text = text.strip().lower()
    if text in NAMED_COLORS:
        return RgbColor(*NAMED_COLORS[text])
    if text.startswith("#"):
        digits = text[1:]
        if len(digits) == 3 and all(c in "0123456789abcdef" for c in digits):
            return RgbColor(*(int(c * 2, 16) for c in digits))
        if len(digits) == 6 and all(c in "0123456789abcdef" for c in digits):
            return RgbColor(
                int(digits[0:2], 16), int(digits[2:4], 16), int(digits[4:6], 16)
            )
        return None
    if text.startswith("rgb(") or text.startswith("rgba("):
        close = text.rfind(")")
        if close < 0:
            return None
        body = text[text.index("(") + 1 : close]
        parts = [p.strip() for p in body.split(",")]
        if len(parts) not in (3, 4):
            return None
        try:
            r, g, b = (int(float(p)) for p in parts[:3])
            alpha = float(parts[3]) if len(parts) == 4 else 1.0
            return RgbColor(r, g, b, alpha)
        except (ValueError, OverflowError):  # int(float("1e999")) overflows
            return None
    return None


def _linearize(channel: int) -> float:
    s = channel / 255.0
    return s / 12.92 if s <= 0.03928 else ((s + 0.055) / 1.055) ** 2.4


def relative_luminance(c: RgbColor) -> float:
    """WCAG 2 relative luminance; 0.0 for black, 1.0 for white."""
    return (0.2126 * _linearize(c.r) + 0.7152 * _linearize(c.g)
            + 0.0722 * _linearize(c.b))


def composite_over(fg: RgbColor, bg: RgbColor) -> RgbColor:
    """Alpha-composite a translucent foreground over an opaque background."""
    a = fg.alpha
    return RgbColor(
        round(fg.r * a + bg.r * (1 - a)),
        round(fg.g * a + bg.g * (1 - a)),
        round(fg.b * a + bg.b * (1 - a)),
    )


def contrast_ratio(fg: RgbColor, bg: RgbColor) -> float:
    """WCAG 2 contrast ratio in [1, 21]; symmetric in its arguments."""
    if fg.alpha < 1.0:
        fg = composite_over(fg, bg)
    l1 = relative_luminance(fg)
    l2 = relative_luminance(bg)
    lighter, darker = max(l1, l2), min(l1, l2)
    return (lighter + 0.05) / (darker + 0.05)
