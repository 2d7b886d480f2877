"""Run ``repro-service`` in this process, optionally with layer timing.

Usage: ``python perfbench/launcher.py [--spans PATH] run --state-dir ...``

Everything after the optional ``--spans PATH`` is handed unchanged to
:func:`repro.service.daemon.main`.  With ``--spans``, the wrappers of
:mod:`tracing` are installed before the daemon builds its manager, and
the span aggregates are written to ``PATH`` when the daemon returns
(after a ``repro-service stop``).
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    from repro.service import daemon

    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        install(tracer)
    try:
        return daemon.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
