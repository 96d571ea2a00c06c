"""INI-style configuration: impact overrides, weights, thresholds, provider
defaults. Every section is optional.

Format::

    [impacts]
    color-contrast = serious

    [weights]
    moderate = 3

    [thresholds]
    contrast_normal = 4.5

    [provider]
    kind = remote
    endpoint = https://api.example.com/v1/chat/completions
    model = gpt-3.5-turbo-16k
    api_key_env = ACCESSFIX_API_KEY
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .errors import ConfigError
from .providers import ProviderConfig
from .rules import (DEFAULT_THRESHOLDS, DEFAULT_WEIGHTS, IMPACT_LEVELS,
                    RULE_CATALOG)


@dataclass
class AppConfig:
    impacts: dict = field(default_factory=dict)
    weights: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    thresholds: dict = field(default_factory=dict)
    provider: ProviderConfig = field(default_factory=ProviderConfig)


_PROVIDER_KEYS = {
    "kind": str,
    "endpoint": str,
    "model": str,
    "max_tokens": int,
    "temperature": float,
    "timeout": float,
    "max_retries": int,
    "api_key_env": str,
    "transcript": str,
    "min_interval": float,
    "max_in_flight": int,
}

_PROVIDER_FIELDS = {
    "endpoint": "endpoint_url",
    "model": "model_name",
    "timeout": "request_timeout",
    "transcript": "transcript_path",
}


def load_config(path=None) -> AppConfig:
    config = AppConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser()
    if not parser.read(path, encoding="utf-8"):
        raise ConfigError(f"cannot read config file: {path}")

    if parser.has_section("impacts"):
        for rule, impact in parser.items("impacts"):
            if rule not in RULE_CATALOG:
                raise ConfigError(f"[impacts] unknown rule id: {rule}")
            if impact not in IMPACT_LEVELS:
                raise ConfigError(f"[impacts] unknown impact: {impact}")
            config.impacts[rule] = impact

    if parser.has_section("weights"):
        for impact, value in parser.items("weights"):
            if impact not in IMPACT_LEVELS:
                raise ConfigError(f"[weights] unknown impact: {impact}")
            try:
                config.weights[impact] = int(value)
            except ValueError as exc:
                raise ConfigError(f"[weights] {impact} must be an integer") from exc

    if parser.has_section("thresholds"):
        for key, value in parser.items("thresholds"):
            if key not in DEFAULT_THRESHOLDS:
                raise ConfigError(f"[thresholds] unknown key: {key}")
            try:
                config.thresholds[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"[thresholds] {key} must be a number") from exc

    if parser.has_section("provider"):
        for key, value in parser.items("provider"):
            if key not in _PROVIDER_KEYS:
                raise ConfigError(f"[provider] unknown key: {key}")
            try:
                parsed = _PROVIDER_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"[provider] bad value for {key}") from exc
            setattr(config.provider, _PROVIDER_FIELDS.get(key, key), parsed)

    return config
