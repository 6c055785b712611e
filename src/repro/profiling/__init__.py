"""Dynamic profiling support (Section 4.2: "The compiler uses basic
block frequency, obtained via dynamic profiling, for register
communication scheduling and task selection").

:class:`~repro.profiling.profiler.Profile` aggregates, from a
functional-execution trace:

* basic block execution counts,
* intra-function CFG edge counts (call continuations attributed to the
  call block),
* dynamic register def-use dependence frequencies (exact, from
  last-writer tracking),
* per-function invocation counts and average dynamic body sizes
  (inclusive of callees) — the input to the CALL_THRESH decision.
"""

from repro.profiling.profiler import (
    Profile,
    profile_program,
    profile_run,
    profile_trace,
)

__all__ = ["Profile", "profile_program", "profile_run", "profile_trace"]
