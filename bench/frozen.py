"""Constants that define the unit every recorded number is expressed in.

FROZEN: together with the tick kernel in :mod:`bench.tick`, these are never
edited after the PR that added them.  A change to any of them makes every
earlier result incomparable with every later one.
"""

#: Scale constant only: the lowest run-mean tick seen while the benchmark was
#: sized.  A corrected time reads "as if the host ran one tick in this long".
TICK_REF_MS = 2.63

#: Ticks run until their total time is this share of the operation time so far.
TICK_SHARE = 0.08

#: ``--seconds`` these operation counts were sized for (``run_seconds`` in
#: ``BENCHMARK.json``); another ``--seconds`` scales all four by one factor.
SECONDS_REF = 10

#: Operations per run at ``SECONDS_REF``: about 10 s of timed window at the
#: speed ``TICK_REF_MS`` was taken at, and never fewer than 150.  The train
#: counts are ``epochs * steps_per_epoch - 5`` warm-up steps, so that the
#: engine ends on an epoch boundary.
OPS_AT_REF = {
    "train_scaled32_local": 347,
    "train_tiny16_stepped4": 475,
    "infer_scaled32_batch8": 150,
    "data_records32_staged": 230,
}

#: The traced run repeats each workload with this fraction of its operations.
TRACE_FRACTION = 0.25
