"""Run one padic-mra CLI command in this process with the span wrappers on.

Usage: python3 perfbench/launcher.py SPANS_FILE <padic-mra arguments...>

The import of padic_mra.cli is recorded as the span "cli.import"; the
command itself runs through the wrapped `cli.main`, and every span is saved
to SPANS_FILE (numpy .npz) when the command ends. The exit code is the
command's own.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import padic_mra.cli as cli
    from tracer import Tracer

    t1 = time.perf_counter()
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add_span("cli.import", t0, t1)
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        tracer.save(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
