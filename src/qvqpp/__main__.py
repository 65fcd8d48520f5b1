"""The ``qvqpp`` command: ``python -m qvqpp`` and the ``qvqpp`` console script.

``entrypoint`` turns Python's cyclic garbage collector off before
:mod:`qvqpp.cli` or any pipeline layer is imported, runs
:func:`qvqpp.cli.main`, and freezes the heap before exiting with its code.

Why. A command is one short process that allocates its objects once and
drops almost all of them by reference counting, yet the collector keeps
walking the heap. Measured on a 2-vCPU host, ``hop2-nqc`` settings at
scale R unless named:

- importing the layers ran 35 gen-0 and 3 gen-1 collections (7-10 ms);
- a command ran more: 14/1 (2-2.4 ms) for ``predict`` and ``sweep`` at
  scale S, 226/20/2 (67 ms) for ``index`` at scale M;
- exit took 37.1 ms tearing down the heap, and 10.5 ms with the collector
  off and the heap frozen (``predict``, median of 9).

Yet the garbage in reference cycles is small and does not grow with the
corpus: the import leaves 345 objects (216 KiB, mostly the pure-Python
``datetime`` classes that its C module replaces), and a command 493-548
(about 210 KiB: argparse's parsers and self-referencing closures), the
same at scales R, S and M. Keeping it costs 0.2-0.4 MB of peak RSS.
``tests/test_entrypoint.py`` checks that the count does not grow with the
corpus and that importing the package leaves the collector alone.

Both calls are needed: with the collector off but the heap not frozen,
exit still took 34.7 ms, since shutdown collects anyway; freezing alone
keeps the collections during import and the command. ``gc.freeze`` moves
every live object to the permanent generation, which shutdown does not
walk; atexit handlers (``logging.shutdown``) and the flush of the standard
streams still run, so ``-v`` logs and every output stay complete.

:func:`qvqpp.cli.main` never touches the collector, so tests, demos and
callers that run it in their own process keep their own policy.
"""

import gc
import sys


def entrypoint() -> None:
    """Run one ``qvqpp`` command with the cyclic collector off, then exit with its code."""
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
