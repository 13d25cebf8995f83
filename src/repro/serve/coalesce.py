"""In-flight request coalescing keyed on content fingerprints.

The service's dedup layer for the *time* dimension: the artifact store
already collapses identical work across runs (content-addressed
artifacts), and the :class:`RequestCoalescer` collapses identical work
across *concurrent* requests — N clients asking for the same chained
stage fingerprint share one computation and all await its single
future.  One computation, N waiters; a burst of identical cold
requests performs exactly one synthesis pass.

Keys are the chained stage fingerprints of the request, derived by
the request's :class:`~repro.flow.experiment.TuningFlow` (see
:func:`repro.sweep.driver.point_keys`) — the very keys its stages
store under — so "identical" means what it means everywhere else in
the pipeline: same statistical library, same
design, same method/parameter, same clock and constraints.  Two
requests that differ anywhere upstream get different keys and never
share.

The coalescer is event-loop-local state: all bookkeeping happens on
the loop thread (handlers ``await`` it before any executor hop), so no
locks are needed.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Tuple

from repro.observe.catalog import SERVE_COALESCE


class RequestCoalescer:
    """Share one in-flight computation among identical requests.

    :meth:`run` either starts ``compute()`` as the *leader* for a key
    or, when an identical computation is already in flight, awaits the
    leader's task as a *follower*.  Leaders and followers alike receive
    the computation's result (or its exception); the in-flight entry is
    removed the moment the task settles, so a later identical request
    starts fresh (by then the artifact store is warm and the
    computation is cheap).
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Task[Any]"] = {}
        #: Computations started (leaders).
        self.started = 0
        #: Requests served by an existing in-flight computation.
        self.coalesced = 0

    @property
    def inflight(self) -> int:
        """Number of distinct computations currently in flight."""
        return len(self._inflight)

    async def run(
        self, key: str, compute: Callable[[], Awaitable[Any]]
    ) -> Tuple[Any, bool]:
        """Run (or join) the computation for ``key``.

        Returns ``(result, joined)`` where ``joined`` is ``True`` when
        this request coalesced onto an already-running computation.  A
        follower is shielded from the leader's cancellation scope: if
        the leader's client disconnects, the computation still
        completes and every follower gets its result.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            SERVE_COALESCE.labels(role="follower").inc()
            return await asyncio.shield(existing), True
        task = asyncio.ensure_future(compute())
        self._inflight[key] = task
        self.started += 1
        SERVE_COALESCE.labels(role="leader").inc()
        task.add_done_callback(lambda _done: self._inflight.pop(key, None))
        try:
            return await asyncio.shield(task), False
        except asyncio.CancelledError:
            # The *waiter* was cancelled; the shared computation keeps
            # running for any followers.  Nothing to clean up here —
            # the done callback owns the in-flight entry.
            raise
