"""An in-process executor that keeps several shards in flight.

:class:`~repro.parallel.SerialExecutor` runs a run's shards lazily, in the
thread that iterates its results.  The shard supervisor drains every
dispatch on its own watcher thread and keeps up to ``executor.workers``
dispatches in flight (one for an executor named ``serial``), so a
``SerialExecutor`` that reports more workers under another name runs that
many shards concurrently, in this process.  Tests use it where shards must
overlap (out-of-order arrival, racing stops) on plans that cannot cross a
process boundary, or without the cost of a process pool.
"""

from repro.parallel import SerialExecutor


class ConcurrentSerialExecutor(SerialExecutor):
    name = "concurrent-serial"

    def __init__(self, workers: int = 2):
        self.workers = workers
