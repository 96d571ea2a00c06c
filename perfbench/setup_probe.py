"""Time one set-up of accessfix in this fresh process and print seconds.

Set-up is ``import accessfix``, the provider construction and, for the
replay and remote providers, loading the transcript file:

    PYTHONPATH=src python3 perfbench/setup_probe.py replay TRANSCRIPT.jsonl

The kind ``none`` times the import alone (the audit-only workload).
"""

import sys
import time

start = time.perf_counter()

from accessfix import providers  # noqa: E402  (runs accessfix/__init__)


def main(argv) -> int:
    kind = argv[0]
    if kind == "heuristic":
        providers.HeuristicProvider()
    elif kind == "replay":
        providers.ReplayProvider(providers.Transcript.load(argv[1]))
    elif kind == "remote":
        providers.Transcript.load(argv[1])
        cfg = providers.ProviderConfig(
            kind="remote",
            endpoint_url="http://sim.invalid/v1/chat/completions",
            model_name="sim",
        )
        providers.RemoteProvider(cfg, post_json=lambda *args: {})
    elif kind != "none":
        print(f"unknown provider kind: {kind}", file=sys.stderr)
        return 2
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
