"""One sweep in a fresh interpreter, the way ``biasamp sweep`` runs one.

    python3 perfbench/worker.py CONFIG_JSON OUT_DIR TRACE

Prints ``ready`` once the package is imported and the config is loaded and
validated, then one JSON line with the sweep's ``measure.Sweep`` fields.
Each sweep gets its own process so that it pays what a user's run pays:
interpreter start, imports and cold caches.  Set-up time is measured on the
same processes.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import biasamp.cli  # noqa: E402,F401  (the command line's imports belong to set-up)
from biasamp.sweep import SweepConfig  # noqa: E402


def main(config_path: str, out_dir: str, trace: str) -> None:
    config = SweepConfig.load(config_path)
    print("ready", flush=True)

    import json
    import resource
    from dataclasses import asdict

    import measure
    from tracing import Tracer

    sweep = measure.sweep_once(config, Path(out_dir), Tracer() if trace == "1" else None)
    sweep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(asdict(sweep)))


if __name__ == "__main__":
    main(*sys.argv[1:])
