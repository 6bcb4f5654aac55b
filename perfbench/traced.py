"""Run a blakit entry point with the span tracer installed.

    python3 perfbench/traced.py SPANS_JSON MODULE [ARGS...]

Imports ``MODULE`` (``blakit.cli`` or ``volterra_study``), wraps the layer
functions in every namespace that calls them, runs ``MODULE.main(ARGS)``
and writes the spans and counters to ``SPANS_JSON``.  The exit code is the
entry point's.
"""

from __future__ import annotations

import importlib
import sys
import time

from tracer import Tracer, install


def main(argv) -> int:
    spans_path, target, args = argv[0], argv[1], argv[2:]
    module = importlib.import_module(target)
    tracer = Tracer()
    start = time.monotonic()
    install(tracer, callers=(module,))
    install_s = time.monotonic() - start
    try:
        return module.main(args)
    finally:
        tracer.dump(spans_path, install_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
