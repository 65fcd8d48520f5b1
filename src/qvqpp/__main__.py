"""The ``qvqpp`` command: ``python -m qvqpp`` and the ``qvqpp`` console script.

``entrypoint`` turns Python's cyclic garbage collector off before
:mod:`qvqpp.cli` or any pipeline layer is imported and runs
:func:`qvqpp.cli.main`. Once ``main`` returns it shuts logging down,
flushes standard output and standard error, and leaves by ``os._exit``
with the command's code, so the interpreter never tears the heap down.

Why. A command is one short process that allocates its objects once and
drops almost all of them by reference counting, yet the collector keeps
walking the heap, and a normal exit frees every object one by one.
Measured on a 2-vCPU host, ``hop2-nqc`` settings at scale R unless named:

- importing the layers ran 35 gen-0 and 3 gen-1 collections (7-10 ms);
- a command ran more: 14/1 (2-2.4 ms) for ``predict`` and ``sweep`` at
  scale S, 226/20/2 (67 ms) for ``index`` at scale M;
- from ``main``'s return to the parent's ``wait4``, exit took 8.9-11.9 ms
  with the collector off and the heap frozen, and takes 2.6-4.5 ms by
  ``os._exit`` (``index`` and ``predict`` at scales R, S and M, medians
  of 3).

The garbage in reference cycles is small and does not grow with the
corpus: the import leaves 345 objects (216 KiB, mostly the pure-Python
``datetime`` classes that its C module replaces), and a command 493-548
(about 210 KiB: argparse's parsers and self-referencing closures), the
same at scales R, S and M. Keeping it costs 0.2-0.4 MB of peak RSS.
``tests/test_entrypoint.py`` checks that the count does not grow with the
corpus and that importing the package leaves the collector alone.

``os._exit`` runs no atexit handler and flushes no buffer, so the two that
matter run first: ``logging.shutdown`` (``-v`` logs stay complete) and the
flush of the standard streams. A flush that fails (output to a full
device, or a pipe closed by its reader) loses output, so the command ends
in one ``error:`` line and exit code 1. A usage error or ``--help``
raises ``SystemExit`` inside ``main`` and takes the interpreter's normal
exit.

:func:`qvqpp.cli.main` never touches the collector, so tests, demos and
callers that run it in their own process keep their own policy.
"""

import contextlib
import gc
import logging
import os
import sys


def entrypoint() -> None:
    """Run one ``qvqpp`` command with the cyclic collector off, then exit with its code, skipping the heap teardown."""
    gc.disable()
    from .cli import main

    code = main()
    logging.shutdown()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError as exc:  # the output is lost, so the command failed
            code = 1
            with contextlib.suppress(OSError):
                print(f"error: {exc}", file=sys.stderr, flush=True)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
