"""The memo of one `potts verify` run.

verify.run_suite replays many identities on one small corpus, and its checks
ask again and again for the same two costly leaves: Z_G of a graph
(tutte.tutte_delcon) and the kernel count of one converted system over one
field at one fixed element (pointcount.complement_counter).  While a run is
in progress, `current` is a dict that holds both, keyed by ("z", graph) and
by ("count", system, field size, element); the system is the kernel input of
pointcount._dense_system with each list as a tuple, so a k-list Z_G adds
its 2^E exponents to the key and any other polynomial its dense
coefficients.  Outside a run `current` is None, and each of the two leaves
then pays one `is None` test.
Only results are stored, so a refusal is raised again on every call.

The memo is not process-wide.  It ends with the run, also when the run
raises, so the memory of a long-lived process stays bounded by one run, and
a counter swapped in outside a run (the reference brute force of the tests,
a tracing wrapper) sees every count that is made.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

# the memo of the run in progress, or None outside a run
current: dict | None = None


@contextmanager
def run() -> Iterator[None]:
    """Share the two leaves for the duration of the block, with a fresh
    memo; the state before the block is restored when it ends."""
    global current
    previous, current = current, {}
    try:
        yield
    finally:
        current = previous
