"""Independent tasks, or chains of tasks, shared out among a few threads.

The work is batched numpy, which releases the interpreter lock inside its
loops, so tasks that share only read-only arrays overlap on threads.  Each
task runs in its own copy of the caller's context: numpy's errstate is a
context variable, and a thread starts with the default context, so without
the copy a task would not see the caller's ``np.errstate``.
"""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor


def available_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_in_lanes(task, items, lanes):
    """[task(item) for item in items], the items handed out in order to at
    most lanes threads, the calling thread one of them, so one lane starts
    no thread.  Each task runs in a copy of the caller's context taken
    before any task starts.  When a task raises, no further item is handed
    out, and its exception is raised here once every lane has stopped.
    """
    items = list(items)
    contexts = [contextvars.copy_context() for _ in items]
    results = [None] * len(items)
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def lane():
        nonlocal pending
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            try:
                results[index] = contexts[index].run(task, items[index])
            except BaseException:
                with lock:
                    pending = iter(())
                raise

    others = max(0, min(lanes, len(items)) - 1)
    # leaving the with block waits for every lane
    with ThreadPoolExecutor(max_workers=max(1, others)) as pool:
        futures = [pool.submit(lane) for _ in range(others)]
        lane()
    for future in futures:
        future.result()
    return results


def map_chains(step, chains, lanes):
    """[[result of each item of chain] for chain in chains]: the items of a
    chain run in order on one lane, the chains shared out as map_in_lanes
    shares out its items.  step(item, warm) returns (result, next warm);
    warm is None for the first item of a chain, and a step that returns
    None as its next warm starts the next item of its chain cold.
    """

    def run(chain):
        results, warm = [], None
        for item in chain:
            result, warm = step(item, warm)
            results.append(result)
        return results

    return map_in_lanes(run, chains, lanes)
