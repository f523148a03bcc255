"""One process pool for the per-cycle and per-chunk loops.

It makes, writes and reads the cycles of a series, makes and writes the 1 s
stationary chunks of `simulate --stationary`, and reads and transforms them for
`thermometry`. Each cycle and chunk draws from its own seed, so each can be made,
written and read in any process and in any order without changing a byte.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

# chunks per worker: results stream back while later chunks are still being
# made, and no process holds a whole series at once
CHUNKS_PER_WORKER = 8


def _run_chunk(fn, args: tuple, chunk: list) -> list:
    return [fn(*args, item) for item in chunk]


def chunked_map(fn, args: tuple, items) -> list:
    """`[fn(*args, item) for item in items]` on one forked worker per usable CPU.

    The items are split into contiguous chunks, and the chunks are read in
    order: the results come back in item order, and the first exception in
    item order is the one raised. `fn` is sent to the workers by name, so it
    must be a module-level function. With one usable CPU the loop runs in
    this process.
    """
    items = list(items)
    n_workers = min(len(os.sched_getaffinity(0)), len(items))
    if n_workers <= 1:
        return _run_chunk(fn, args, items)
    n_chunks = min(CHUNKS_PER_WORKER * n_workers, len(items))
    cuts = [len(items) * k // n_chunks for k in range(n_chunks + 1)]
    pool = ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_chunk, fn, args, items[a:b])
                   for a, b in zip(cuts, cuts[1:])]
        return [out for f in futures for out in f.result()]
    finally:
        pool.shutdown(cancel_futures=True)
