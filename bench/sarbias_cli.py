"""The ``sarbias`` console script, with timestamps for the benchmark.

Does what the installed ``sarbias`` entry point does (``sarbias.cli:main``
on the command-line arguments) and then writes one line to stderr:

    BENCH {"ready_mono": ..., "import_s": ..., "main_s": ..., "maxrss_mb": ...}

``ready_mono`` is the ``time.monotonic()`` reading (a clock shared by every
process of the host) at which set-up ended: the interpreter started, the
CLI imported (and with it sarbias and numpy) and, when the arguments name
a ``--config`` file, that file parsed. The parent subtracts its own reading
taken before the spawn. ``import_s`` is the time to import the CLI,
``main_s`` the time spent in ``cli.main``, and ``maxrss_mb`` the process's
peak resident set size at exit.

``--setup-only [--config PATH]`` does the set-up and exits without
calling ``cli.main``.

Run from a checkout with ``PYTHONPATH=src``.
"""

import json
import resource
import sys
import time

t_start = time.perf_counter()
from sarbias import cli, harness  # noqa: E402

t_imported = time.perf_counter()


def _report(ready_mono: float, main_s: float) -> None:
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("BENCH " + json.dumps({"ready_mono": ready_mono,
                                 "import_s": t_imported - t_start,
                                 "main_s": main_s,
                                 "maxrss_mb": maxrss_kb / 1024.0}),
          file=sys.stderr)


if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--config" in argv:
        # Parsed again inside cli.main, which reports a bad file itself.
        try:
            harness.load_config(argv[argv.index("--config") + 1])
        except (harness.ConfigError, OSError, IndexError):
            pass
    ready_mono = time.monotonic()
    if argv[:1] == ["--setup-only"]:
        _report(ready_mono, 0.0)
        raise SystemExit(0)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - t0
    _report(ready_mono, main_s)
    raise SystemExit(rc)
