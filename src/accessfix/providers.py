"""Fix providers: remote chat-completion client, transcript replay, and the
deterministic heuristic fixer used as the offline oracle."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .colors import RgbColor, contrast_ratio, relative_luminance
from .dom import (P_CLOSERS, RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Element,
                  is_cut, split_element)
from .errors import (
    ConfigError,
    NoRecipeError,
    ProviderUnavailableError,
    ReplayMissError,
)
from .prompts import (AppendText, FixProposal, PromptBundle, StartTag,
                      WrapBody, WrapChildren, WrapSelf, parse_fix)
from .rules import Violation, blocks_zoom, viewport_items


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
        # Each comparison is False for NaN.
        if not 0 <= self.temperature < math.inf:
            raise ConfigError("temperature must be a finite number >= 0")
        if not 0 < self.request_timeout < math.inf:
            raise ConfigError("request_timeout must be a finite number > 0")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        if not math.isfinite(self.min_interval):
            raise ConfigError("min_interval must be a finite number")
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
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        exc.close()  # its socket; ``code`` still classifies the failure
        raise


class RemoteProvider:
    """Chat-completion-style HTTP client with exponential-backoff retries."""

    provider_id = "remote"

    def __init__(self, cfg: ProviderConfig, post_json=None, sleep=time.sleep):
        cfg.validate()
        self.cfg = cfg
        self._post_json = post_json or _default_post_json
        self._sleep = sleep
        # The lock, the next send time and the slots are shared with every
        # run's view (``for_run``): the caps hold across runs.
        self._lock = threading.Lock()
        self._next_send = [0.0]  # monotonic time the next request may go out
        self._slots = threading.Semaphore(cfg.max_in_flight)
        self._asked = None  # request hash -> its outcome, in a run's view

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
            send_at = max(now, self._next_send[0])
            self._next_send[0] = send_at + self.cfg.min_interval
        if send_at > now:
            self._sleep(send_at - now)

    def for_run(self) -> "RemoteProvider":
        """This provider for one run (``harness.run_pages``): it sends each
        distinct request, keyed by ``request_hash`` of its messages, once.
        An asker whose request is in flight waits for its outcome, holding
        no slot and no pacing lock; a later one reuses the answer text. The
        outcome, answer or exception, reaches every asker, and each parses
        the answer against its own snippet. A new view asks anew."""
        import copy  # loaded already, by dataclasses

        view = copy.copy(self)
        view._asked = {}
        return view

    def propose(self, bundle: PromptBundle, violation=None) -> FixProposal:
        messages = bundle.messages()
        if self._asked is None:
            content = self._send(messages)
        else:
            from concurrent.futures import Future  # import on first use

            mine = Future()
            # setdefault is atomic: one asker of each request sends it.
            asked = self._asked.setdefault(request_hash(messages), mine)
            if asked is mine:
                try:
                    mine.set_result(self._send(messages))
                except BaseException as exc:  # releases every waiter
                    mine.set_exception(exc)
            content = asked.result()
        # Parsed after the slot is released: it waits on no endpoint.
        return parse_fix(content, self.provider_id, bundle.values["html"])

    def _send(self, messages) -> str:
        """The endpoint's answer text to ``messages``. A failure that
        ``max_retries`` retries did not mend, or a refused request, raises
        ``ProviderUnavailableError``."""
        payload = {
            "model": self.cfg.model_name,
            "messages": messages,
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
                    if not isinstance(content, str):
                        raise TypeError("message content is not a string")
                except (OSError, KeyError, IndexError, TypeError,
                        ValueError) as exc:
                    last_error = exc
                else:
                    break
            # An HTTP error carries its status as ``code``; a client error
            # other than 429 (too many requests) fails the same way again.
            status = getattr(last_error, "code", None)
            if isinstance(status, int) and 400 <= status < 500 and status != 429:
                raise ProviderUnavailableError(
                    f"remote provider refused the request: HTTP {status}: "
                    f"{last_error}"
                ) from last_error
        else:
            raise ProviderUnavailableError(
                f"remote provider failed after {self.cfg.max_retries + 1} "
                f"attempts: {last_error}"
            )
        return content


class ReplayProvider:
    """Replays recorded responses keyed by the request hash."""

    provider_id = "replay"

    def __init__(self, transcript: Transcript):
        self.transcript = transcript

    def propose(self, bundle: PromptBundle, violation=None) -> FixProposal:
        raw = self.transcript.lookup(request_hash(bundle.messages()))
        return parse_fix(raw, self.provider_id, bundle.values["html"])


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
        return ReplayProvider(Transcript.load(cfg.transcript_path))
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


def _tag_edit(el: Element) -> StartTag:
    """The start tag that a recipe left ``el`` with, as an edit."""
    return StartTag(el.tag, tuple(el.attrs.items()))


def _fix_image_alt(el, v):
    src = el.attrs.get("src", "")
    stem = src.rsplit("/", 1)[-1].split("?")[0].rsplit(".", 1)[0]
    alt = _words_from(stem) or "decorative image"
    el.attrs["alt"] = alt
    return (_tag_edit(el),
            f'added alt text "{alt}" derived from the image filename')


def _fix_link_name(el, v):
    # A name, not text: new text outside every landmark would be a new
    # region violation.
    el.attrs["aria-label"] = "link"
    return _tag_edit(el), "named the link with a placeholder aria-label"


def _fix_empty_heading(el, v):
    if (el.tag in VOID_ELEMENTS or el.tag in RAW_TEXT_ELEMENTS
            or el.tag == "html" or is_cut(v.html_snippet)):
        # Text in a void element is never serialized, raw text is not a
        # heading's text, text after an <html>'s body is read back into
        # the body, and a snippet cut to its start tag shows no content to
        # add text to: name it instead.
        el.attrs["aria-label"] = "section heading"
        return (_tag_edit(el),
                "named the heading with a placeholder aria-label")
    return AppendText("section heading"), "inserted placeholder heading text"


def _fix_html_has_lang(el, v):
    el.attrs["lang"] = "en"
    return _tag_edit(el), 'added lang="en" to the html element'


def _fix_duplicate_id(el, v):
    new_id = _param(v, "rename_to")
    el.attrs["id"] = new_id
    return _tag_edit(el), f'renamed the duplicate id to "{new_id}"'


# A recipe renames an element only from a tag in ``P_CLOSERS`` to another:
# any other tag may sit in an open <p>, which the new start tag would close
# when the page is read back.


def _fix_heading_order(el, v):
    # aria-level can be any integer; keep the new level within 1..6.
    level = min(max(_param(v, "previous_level") + 1, 1), 6)
    if el.tag not in P_CLOSERS:
        el.attrs["aria-level"] = str(level)
        return _tag_edit(el), f"lowered the heading to aria-level {level}"
    el.tag = f"h{level}"
    return _tag_edit(el), f"lowered the heading to h{level}"


def _fix_label(el, v):
    label = _words_from(el.attrs.get("name") or el.attrs.get("placeholder", ""))
    label = label or "input field"
    el.attrs["aria-label"] = label
    return _tag_edit(el), f'added aria-label "{label}"'


def _fix_region(el, v):
    # <main> and <section> implicitly close an open <p>, so a <p> is wrapped
    # whole: wrapping its children would not re-parse as one element.
    wrap = WrapSelf if el.tag == "p" else WrapChildren
    if _param(v, "wrap_in") == "main":
        return wrap("main", ()), "wrapped the stray content in a main landmark"
    label = _param(v, "label")
    return (wrap("section", (("aria-label", label),)),
            f'wrapped the stray content in a section labeled "{label}"')


def _fix_landmark_one_main(el, v):
    if v.index == 0:  # the page has no main: the root is flagged
        edit = WrapBody("main", ())
        if is_cut(v.html_snippet):
            return edit, ("wrapped the body content in a main landmark "
                          "unless the page has one")
        # An earlier region fix may have added the main landmark already.
        if edit.render(v.html_snippet) == v.html_snippet:
            return edit, ("left the page as it is: it already has a main "
                          "landmark")
        return edit, "wrapped the body content in a main landmark"
    if el.tag in P_CLOSERS:
        el.tag = "section"
        el.attrs.pop("role", None)
        done = "converted the extra main into a labeled section"
    else:
        el.attrs["role"] = "region"
        done = "turned the extra main into a labeled region"
    if not el.attrs.get("aria-label", "").strip():
        el.attrs["aria-label"] = _param(v, "label")
    return _tag_edit(el), done


def _fix_landmark_unique(el, v):
    label = _param(v, "label")
    el.attrs["aria-label"] = label
    return _tag_edit(el), f'added the distinguishing aria-label "{label}"'


def _fix_landmark_content(el, v):
    el.attrs.pop("role", None)
    if el.tag not in P_CLOSERS:
        return _tag_edit(el), "dropped the nested landmark's role"
    el.tag = "div"
    return _tag_edit(el), "re-tagged the nested landmark to a plain div"


def _fix_skip_link(el, v):
    target = v.data.get("target", "main-content")
    el.attrs["href"] = f"#{target}"
    return _tag_edit(el), f'retargeted the skip link at "#{target}"'


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
    return _tag_edit(el), "added default values for " + ", ".join(missing)


def _fix_meta_viewport(el, v):
    parts = []
    for name, value in viewport_items(el.attrs.get("content", "")):
        if blocks_zoom(name, value):
            if name.lower() == "user-scalable":
                continue
            value = "5"  # a maximum-scale below 2
        parts.append(f"{name}={value}")
    el.attrs["content"] = ", ".join(parts)
    return (_tag_edit(el),
            "removed the zoom restrictions from the viewport meta tag")


@lru_cache(maxsize=256)
def rescale_for_contrast(fg: RgbColor, bg: RgbColor, threshold: float) -> RgbColor:
    """Move the foreground toward black or white (whichever can reach a higher
    ratio) until the contrast exceeds threshold + 0.05; hue is preserved by
    scaling all channels uniformly. Binary search, <= 20 iterations, run once
    per (fg, bg, threshold) among the last 256: the result is immutable."""
    target = threshold + 0.05
    bg_lum = relative_luminance(bg)
    toward_white = (1.05 / (bg_lum + 0.05)) > ((bg_lum + 0.05) / 0.05)
    channels = fg.r, fg.g, fg.b

    def scaled(t):
        if toward_white:
            return RgbColor(*(round(c + (255 - c) * t) for c in channels))
        return RgbColor(*(round(c * (1 - t)) for c in channels))

    lo, hi = 0.0, 1.0
    for _ in range(20):
        mid = (lo + hi) / 2
        if contrast_ratio(scaled(mid), bg) >= target:
            hi = mid
        else:
            lo = mid
    return scaled(hi)


def _fix_color_contrast(el, v):
    fg, bg, required = (_param(v, key) for key in ("fg", "bg", "required"))
    fixed = rescale_for_contrast(fg, bg, required)
    # Drop the declarations of the color property, which the audit read;
    # keep every other, color-scheme and the like included.
    decls = [
        chunk.strip()
        for chunk in el.attrs.get("style", "").split(";")
        if chunk.strip()
        and chunk.partition(":")[0].strip().lower() != "color"
    ]
    decls.insert(0, f"color:{fixed.to_hex()}")
    el.attrs["style"] = "; ".join(decls)
    return (_tag_edit(el),
            f"darkened or lightened the text color to {fixed.to_hex()}")


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
    """Deterministic repair of a violation's snippet, rule by rule.

    ``v.html_snippet`` is a snippet, as the audit gives (``dom.snippet``).
    The recipe runs once, on a fresh childless element with the start tag of
    ``v.element`` (the snippet's element) if set, else of the snippet, and
    gives its edit: a ``StartTag`` of the start tag as it left it, a
    ``WrapChildren``, ``WrapSelf`` or ``AppendText``, or the root
    ``landmark-one-main`` wrap, a ``WrapBody``. ``corrector.apply_fix``
    runs the edit on the live element; the answer text, rendered on first
    read, is the edit's ``render`` of the snippet. Without an element, a
    snippet that is not a canonical start tag, alone or with its content
    and end tag, has no recipe.
    """
    recipe = _RECIPES.get(v.rule_id)
    if recipe is None:
        raise NoRecipeError(f"no repair recipe for rule: {v.rule_id}")
    el = v.element
    split = (split_element(v.html_snippet) if el is None
             else (Element(el.tag, dict(el.attrs), []), None))
    if split is None:
        raise NoRecipeError(f"{v.rule_id} snippet is not canonical")
    edit, thought = recipe(split[0], v)
    return FixProposal.answer(v.html_snippet, thought, "heuristic", edit)
