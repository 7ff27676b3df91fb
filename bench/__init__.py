"""End-to-end benchmark of the SONIC reproduction, from SMS to screen.

Run from the root of a checkout::

    python3 -m bench                       # all five workloads, untraced
    python3 -m bench --trace               # ... and again with span tracing
    python3 -m bench --workload sms_flood --seed 7 --seconds 15 --trace 0

See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout this package sits in.
ROOT = Path(__file__).resolve().parent.parent


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {src / 'repro'} not found; the benchmark runs from the "
            "root of a full checkout"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
