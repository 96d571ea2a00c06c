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


# [provider] INI key -> ProviderConfig field; a value takes the type of its
# field's default.
_PROVIDER_FIELDS = {
    "kind": "kind", "endpoint": "endpoint_url", "model": "model_name",
    "max_tokens": "max_tokens", "temperature": "temperature",
    "timeout": "request_timeout", "max_retries": "max_retries",
    "api_key_env": "api_key_env", "transcript": "transcript_path",
    "min_interval": "min_interval", "max_in_flight": "max_in_flight",
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
            name = _PROVIDER_FIELDS.get(key)
            if name is None:
                raise ConfigError(f"[provider] unknown key: {key}")
            try:
                parsed = type(getattr(ProviderConfig, name))(value)
            except ValueError as exc:
                raise ConfigError(f"[provider] bad value for {key}") from exc
            setattr(config.provider, name, parsed)

    return config
