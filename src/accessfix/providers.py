"""Fix providers: remote chat-completion client, transcript replay, and the
deterministic heuristic fixer used as the offline oracle."""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field

from .colors import RgbColor, contrast_ratio, relative_luminance
from .dom import (DomDocument, Element, Text, parse_fragment_element,
                  rewrite, serialize_node)
from .errors import (
    ConfigError,
    NoRecipeError,
    ProviderUnavailableError,
    ReplayMissError,
)
from .prompts import FixProposal, PromptBundle, parse_fix
from .rules import Violation, _Index


@dataclass
class ProviderConfig:
    kind: str = "heuristic"  # heuristic | remote | replay
    endpoint_url: str = ""
    model_name: str = ""
    max_tokens: int = 512
    temperature: float = 0.0
    request_timeout: float = 30.0
    max_retries: int = 3
    api_key_env: str = "ACCESSFIX_API_KEY"
    transcript_path: str = ""
    min_interval: float = 0.0
    max_in_flight: int = 4

    def validate(self) -> None:
        if self.kind not in ("heuristic", "remote", "replay"):
            raise ConfigError(f"unknown provider kind: {self.kind}")
        if self.kind == "remote" and not (self.endpoint_url and self.model_name):
            raise ConfigError("remote provider requires endpoint_url and model_name")
        if self.kind == "replay" and not self.transcript_path:
            raise ConfigError("replay provider requires a transcript path")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")


def request_hash(messages) -> str:
    """Stable hash of a serialized chat message list."""
    payload = json.dumps(messages, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Transcript:
    entries: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "Transcript":
        """Read a JSONL transcript. A file that cannot be read, or a line
        that is not a record with string ``requestHash`` and ``rawResponse``,
        raises ConfigError naming the path and the line number."""
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read transcript {path}: {exc}") from exc
        entries = {}
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ConfigError(f"{path}:{number}: not JSON: {exc}") from exc
            if not (isinstance(record, dict)
                    and isinstance(record.get("requestHash"), str)
                    and isinstance(record.get("rawResponse"), str)):
                raise ConfigError(f"{path}:{number}: a transcript record needs "
                                  "string requestHash and rawResponse")
            entries[record["requestHash"]] = record["rawResponse"]
        return cls(entries)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for key, raw in self.entries.items():
                handle.write(json.dumps(
                    {"requestHash": key, "rawResponse": raw}
                ) + "\n")

    def record(self, key: str, raw_response: str) -> None:
        self.entries[key] = raw_response

    def lookup(self, key: str) -> str:
        if key not in self.entries:
            raise ReplayMissError(f"no transcript entry for {key}")
        return self.entries[key]


def _default_post_json(url, payload, headers, timeout):
    import urllib.request  # slow (http.client, ssl): import on first use

    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **headers},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class RemoteProvider:
    """Chat-completion-style HTTP client with exponential-backoff retries."""

    provider_id = "remote"

    def __init__(self, cfg: ProviderConfig, post_json=None, sleep=time.sleep):
        cfg.validate()
        self.cfg = cfg
        self._post_json = post_json or _default_post_json
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_send = 0.0  # monotonic time the next request may go out
        self._slots = threading.Semaphore(cfg.max_in_flight)

    @property
    def max_in_flight(self) -> int:
        """How many requests may wait on the endpoint at once, across all
        callers; ``correct_document`` overlaps up to this many per page."""
        return self.cfg.max_in_flight

    def _headers(self) -> dict:
        key = os.environ.get(self.cfg.api_key_env, "")
        return {"Authorization": f"Bearer {key}"} if key else {}

    def _respect_interval(self) -> None:
        """Reserve the next send time under the lock, then wait for it."""
        if self.cfg.min_interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            send_at = max(now, self._next_send)
            self._next_send = send_at + self.cfg.min_interval
        if send_at > now:
            self._sleep(send_at - now)

    def propose(self, bundle: PromptBundle, violation=None) -> FixProposal:
        payload = {
            "model": self.cfg.model_name,
            "messages": bundle.messages(),
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_tokens,
        }
        last_error = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._sleep(min(2 ** (attempt - 1), 30))
            self._respect_interval()
            with self._slots:
                try:
                    body = self._post_json(
                        self.cfg.endpoint_url, payload, self._headers(),
                        self.cfg.request_timeout,
                    )
                    content = body["choices"][0]["message"]["content"]
                    return parse_fix(content, provider_id=self.provider_id)
                except (OSError, KeyError, IndexError, TypeError,
                        ValueError) as exc:
                    last_error = exc
            # An HTTP error carries its status as ``code``; a client error
            # other than 429 (too many requests) fails the same way again.
            status = getattr(last_error, "code", None)
            if isinstance(status, int) and 400 <= status < 500 and status != 429:
                raise ProviderUnavailableError(
                    f"remote provider refused the request: HTTP {status}: "
                    f"{last_error}"
                ) from last_error
        raise ProviderUnavailableError(
            f"remote provider failed after {self.cfg.max_retries + 1} attempts: "
            f"{last_error}"
        )


class ReplayProvider:
    """Replays recorded responses keyed by the request hash."""

    provider_id = "replay"

    def __init__(self, transcript: Transcript):
        self.transcript = transcript

    @classmethod
    def from_config(cls, cfg: ProviderConfig) -> "ReplayProvider":
        cfg.validate()
        return cls(Transcript.load(cfg.transcript_path))

    def propose(self, bundle: PromptBundle, violation=None) -> FixProposal:
        raw = self.transcript.lookup(request_hash(bundle.messages()))
        return parse_fix(raw, provider_id=self.provider_id)


class HeuristicProvider:
    """Deterministic rule-specific repairs; the offline oracle."""

    provider_id = "heuristic"

    def propose(self, bundle: PromptBundle, violation=None) -> FixProposal:
        if violation is None:
            raise ConfigError("heuristic provider needs the violation record")
        return heuristic_fix(violation)


def make_provider(cfg: ProviderConfig, post_json=None):
    cfg.validate()
    if cfg.kind == "heuristic":
        return HeuristicProvider()
    if cfg.kind == "replay":
        return ReplayProvider.from_config(cfg)
    return RemoteProvider(cfg, post_json=post_json)


# --- heuristic recipes ------------------------------------------------------


def _param(v, key):
    """The fix parameter ``key`` that the audit put on the violation."""
    try:
        return v.data[key]
    except KeyError:
        raise NoRecipeError(f"{v.rule_id} violation lacks {key!r}") from None


def _words_from(value: str) -> str:
    return re.sub(r"[-_]+", " ", value).strip()


def _fix_image_alt(el, v):
    src = el.attrs.get("src", "")
    stem = src.rsplit("/", 1)[-1].split("?")[0].rsplit(".", 1)[0]
    alt = _words_from(stem) or "decorative image"
    el.attrs["alt"] = alt
    return f'added alt text "{alt}" derived from the image filename'


def _fix_link_name(el, v):
    # A name, not text: new text outside every landmark would be a new
    # region violation.
    el.attrs["aria-label"] = "link"
    return "named the link with a placeholder aria-label"


def _fix_empty_heading(el, v):
    el.children.append(Text("section heading"))
    return "inserted placeholder heading text"


def _fix_html_has_lang(el, v):
    el.attrs["lang"] = "en"
    return 'added lang="en" to the html element'


def _fix_duplicate_id(el, v):
    new_id = _param(v, "rename_to")
    el.attrs["id"] = new_id
    return f'renamed the duplicate id to "{new_id}"'


def _fix_heading_order(el, v):
    # aria-level can be any integer; keep the new tag within h1..h6.
    level = min(max(_param(v, "previous_level") + 1, 1), 6)
    el.tag = f"h{level}"
    return f"lowered the heading to h{level}"


def _fix_label(el, v):
    label = _words_from(el.attrs.get("name") or el.attrs.get("placeholder", ""))
    label = label or "input field"
    el.attrs["aria-label"] = label
    return f'added aria-label "{label}"'


def _wrap_children(el, wrapper):
    wrapper.children = el.children
    el.children = [wrapper]


def _wrap_self(el, wrapper):
    """Turn ``el`` into ``wrapper`` around a copy of the original ``el``."""
    wrapper.children = [Element(el.tag, el.attrs, el.children)]
    rewrite(el, wrapper)


def _fix_region(el, v):
    # <main> and <section> implicitly close an open <p>, so a <p> is wrapped
    # whole: wrapping its children would not re-parse as one element.
    wrap = _wrap_self if el.tag == "p" else _wrap_children
    if _param(v, "wrap_in") == "main":
        wrap(el, Element("main"))
        return "wrapped the stray content in a main landmark"
    label = _param(v, "label")
    wrap(el, Element("section", {"aria-label": label}))
    return f'wrapped the stray content in a section labeled "{label}"'


def _fix_landmark_one_main(el, v):
    if el.tag == "html":
        # An earlier region fix may have added the main landmark already.
        if _Index.build(DomDocument(el), {}).mains:
            return "left the page as it is: it already has a main landmark"
        for child in el.children:
            if isinstance(child, Element) and child.tag == "body":
                _wrap_children(child, Element("main"))
                return "wrapped the body content in a main landmark"
        raise NoRecipeError("document has no body to wrap")
    el.tag = "section"
    if not el.attrs.get("aria-label", "").strip():
        el.attrs["aria-label"] = _param(v, "label")
    return "converted the extra main into a labeled section"


def _fix_landmark_unique(el, v):
    label = _param(v, "label")
    el.attrs["aria-label"] = label
    return f'added the distinguishing aria-label "{label}"'


def _fix_landmark_content(el, v):
    el.tag = "div"
    el.attrs.pop("role", None)
    return "re-tagged the nested landmark to a plain div"


def _fix_skip_link(el, v):
    target = v.data.get("target", "main-content")
    el.attrs["href"] = f"#{target}"
    return f'retargeted the skip link at "#{target}"'


_ARIA_DEFAULTS = {
    "aria-checked": "false",
    "aria-valuenow": "0",
    "aria-expanded": "false",
    "aria-level": "2",
    "aria-controls": "content",
}


def _fix_aria_required_attr(el, v):
    missing = _param(v, "missing")
    for attr in missing:
        el.attrs[attr] = _ARIA_DEFAULTS[attr]
    return "added default values for " + ", ".join(missing)


def _fix_meta_viewport(el, v):
    parts = []
    for chunk in re.split(r"[,;]", el.attrs.get("content", "")):
        if "=" not in chunk:
            continue
        key, _, value = chunk.partition("=")
        key, value = key.strip(), value.strip()
        if key.lower() == "user-scalable" and value.lower() in ("no", "0"):
            continue
        if key.lower() == "maximum-scale":
            try:
                if float(value) < 2:
                    value = "5"
            except ValueError:
                pass
        parts.append(f"{key}={value}")
    el.attrs["content"] = ", ".join(parts)
    return "removed the zoom restrictions from the viewport meta tag"


def _scaled(color: RgbColor, t: float, toward_white: bool) -> RgbColor:
    if toward_white:
        return RgbColor(
            round(color.r + (255 - color.r) * t),
            round(color.g + (255 - color.g) * t),
            round(color.b + (255 - color.b) * t),
        )
    return RgbColor(
        round(color.r * (1 - t)), round(color.g * (1 - t)), round(color.b * (1 - t))
    )


def rescale_for_contrast(fg: RgbColor, bg: RgbColor, threshold: float) -> RgbColor:
    """Move the foreground toward black or white (whichever can reach a higher
    ratio) until the contrast exceeds threshold + 0.05; hue is preserved by
    scaling all channels uniformly. Binary search, <= 20 iterations."""
    target = threshold + 0.05
    bg_lum = relative_luminance(bg)
    toward_white = (1.05 / (bg_lum + 0.05)) > ((bg_lum + 0.05) / 0.05)
    lo, hi = 0.0, 1.0
    for _ in range(20):
        mid = (lo + hi) / 2
        if contrast_ratio(_scaled(fg, mid, toward_white), bg) >= target:
            hi = mid
        else:
            lo = mid
    candidate = _scaled(fg, hi, toward_white)
    # Channel rounding can nudge the ratio back under target; step outward.
    while contrast_ratio(candidate, bg) < target and hi < 1.0:
        hi = min(hi + 0.02, 1.0)
        candidate = _scaled(fg, hi, toward_white)
    return candidate


def _fix_color_contrast(el, v):
    fg, bg, required = (_param(v, key) for key in ("fg", "bg", "required"))
    fixed = rescale_for_contrast(fg, bg, required)
    decls = [
        chunk.strip()
        for chunk in el.attrs.get("style", "").split(";")
        if chunk.strip() and not chunk.strip().lower().startswith("color")
    ]
    decls.insert(0, f"color:{fixed.to_hex()}")
    el.attrs["style"] = "; ".join(decls)
    return f"darkened or lightened the text color to {fixed.to_hex()}"


_RECIPES = {
    "image-alt": _fix_image_alt,
    "link-name": _fix_link_name,
    "empty-heading": _fix_empty_heading,
    "html-has-lang": _fix_html_has_lang,
    "duplicate-id": _fix_duplicate_id,
    "heading-order": _fix_heading_order,
    "label": _fix_label,
    "region": _fix_region,
    "landmark-one-main": _fix_landmark_one_main,
    "landmark-unique": _fix_landmark_unique,
    "landmark-no-duplicate-content": _fix_landmark_content,
    "skip-link": _fix_skip_link,
    "aria-required-attr": _fix_aria_required_attr,
    "meta-viewport": _fix_meta_viewport,
    "color-contrast": _fix_color_contrast,
}


def heuristic_fix(v: Violation) -> FixProposal:
    """Deterministic repair of a violation's snippet, rule by rule."""
    recipe = _RECIPES.get(v.rule_id)
    if recipe is None:
        raise NoRecipeError(f"no repair recipe for rule: {v.rule_id}")
    el = parse_fragment_element(v.html_snippet)
    thought = recipe(el, v)
    corrected = serialize_node(el)
    fence = "`"
    while fence in corrected:
        fence += "`"
    proposal = FixProposal(
        corrected_html=corrected,
        thought=thought,
        raw_response=(f"Thought: {thought}\n"
                      f"CORRECTED: {fence}{corrected}{fence}"),
        provider_id="heuristic",
    )
    # The recipe's element is what parsing ``corrected`` gives back, so it
    # fills the ``element`` cache instead of a second parse.
    proposal.__dict__["element"] = el
    return proposal
