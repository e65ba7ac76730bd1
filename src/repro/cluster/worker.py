"""The shard worker: one serving loop per shard of the problem.

A worker owns exactly one shard's problem view and decides every
customer routed to it with the literal O-AFA hot path
(:meth:`~repro.algorithms.online_afa.OnlineAdaptiveFactorAware.process_customer`).
Its compute engine is *reconstructed over shared memory*: the parent
pre-scores the shard's candidate edges once, ships the columns
(``customer_idx``/``vendor_idx``/``distance``/``vendor_starts``/
``bases``) through :func:`repro.parallel.shm.ship_columns`, and the
worker re-assembles a :class:`~repro.engine.edges.CandidateEdges` +
:meth:`~repro.engine.engine.ComputeEngine.from_prescored` engine whose
backing arrays are zero-copy views into the shared block.

Decision parity with the in-process sharded simulator is exact because

* vendors are shard-exclusive, so the worker-local
  :class:`~repro.core.assignment.Assignment` sees the same per-vendor
  spends the global assignment would show it, and
* the shipped pair bases are byte-identical to what the in-process
  shard view computes, so every threshold comparison sees the same
  floats.

The worker keeps an idempotent per-customer decision cache: a retried
exchange (after a corrupted reply) returns the cached decision instead
of re-deciding against mutated budgets, so retries never double-spend.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.protocol import (
    ChurnReply,
    ChurnRequest,
    DecideReply,
    DecideRequest,
    HeartbeatReply,
    HeartbeatRequest,
    ReplayReply,
    ReplayRequest,
    ShutdownReply,
    ShutdownRequest,
    seal,
    unseal,
)
from repro.algorithms.online_afa import OnlineAdaptiveFactorAware
from repro.core.assignment import COMMITTED, AdInstance
from repro.engine.edges import CandidateEdges
from repro.engine.engine import ComputeEngine
from repro.obs.recorder import NullRecorder, Recorder
from repro.parallel.shm import ColumnHandle, attach_columns

#: The shm columns a shard engine is rebuilt from.
ENGINE_COLUMNS = (
    "customer_idx",
    "vendor_idx",
    "distance",
    "vendor_starts",
    "bases",
)


def engine_columns(engine: ComputeEngine) -> Dict[str, object]:
    """The shippable column set of a warmed engine (parent side)."""
    edges = engine.edges
    return {
        "customer_idx": edges.customer_idx,
        "vendor_idx": edges.vendor_idx,
        "distance": edges.distance,
        "vendor_starts": edges.vendor_starts,
        "bases": engine.pair_bases,
    }


class ShardServer:
    """The transport-agnostic core of one shard worker.

    Args:
        shard_id: This worker's shard index.
        problem: The shard's problem view (global entity ids).
        handle: Shared-memory handle for the pre-scored engine columns,
            or ``None`` to score locally (inline test mode).
        gamma_min: Calibrated threshold lower bound (shared with the
            baseline so decisions are comparable).
        g: Calibrated threshold growth constant.
        obs: Record spans into a ``shard-<i>`` lane and ship drained
            snapshots inside every reply.
        artifact_path: Optional on-disk engine artifact
            (:mod:`repro.store`) to boot the engine from instead of
            shm columns or local scoring; wins over ``handle``.
    """

    def __init__(
        self,
        shard_id: int,
        problem,
        handle: Optional[ColumnHandle],
        gamma_min: float,
        g: float,
        obs: bool = False,
        artifact_path: Optional[str] = None,
    ) -> None:
        self.shard_id = shard_id
        self._problem = problem
        self._rec = Recorder(lane=f"shard-{shard_id}") if obs else NullRecorder()
        self._attached = None
        # Artifact-backed shards boot *cold*: the mmap load is deferred
        # until the first request that actually needs the engine, so a
        # shard no customer routes to never pages its artifact in
        # (heartbeats must stay cheap on the million-user tier).
        self._artifact_path = artifact_path
        if artifact_path is None:
            with self._rec.span("cluster.shard_boot", shard=shard_id):
                self._build_engine(handle)
        self._algorithm = OnlineAdaptiveFactorAware(gamma_min=gamma_min, g=g)
        self._algorithm.reset(problem)
        self._assignment = problem.new_assignment()
        self._decided: Dict[int, Tuple[AdInstance, ...]] = {}
        self._committed = 0

    def _ensure_engine(self) -> None:
        """Demand-page the artifact engine on first real use.

        Called by the decide and churn paths (a churn splice must land
        on the loaded engine, and the artifact's epoch check would
        reject a post-churn load).  Heartbeats and replays never call
        this, so an idle shard stays at its boot footprint.
        """
        if self._artifact_path is None:
            return
        path, self._artifact_path = self._artifact_path, None
        from repro.store import load_engine

        with self._rec.span("cluster.shard_page_in", shard=self.shard_id):
            engine = load_engine(path, self._problem)
            # No warm(): warming materialises every edge's utility row,
            # touching every page of the mmap'd columns -- the opposite
            # of demand paging.  Lazy point lookups compute the same
            # floats, so decisions are unchanged; only the shard's
            # actually-scored edges ever page in.
            self._problem.adopt_engine(engine)

    def _build_engine(self, handle: Optional[ColumnHandle]) -> None:
        if handle is None:
            self._problem.warm_utilities()
            return
        self._attached = attach_columns(handle)
        edges = CandidateEdges(
            customer_idx=self._attached["customer_idx"],
            vendor_idx=self._attached["vendor_idx"],
            distance=self._attached["distance"],
            vendor_starts=self._attached["vendor_starts"],
        )
        engine = ComputeEngine.from_prescored(
            self._problem, edges, self._attached["bases"]
        )
        if engine is None:  # model without vectorization support
            self._attached.close()
            self._attached = None
            self._problem.warm_utilities()
            return
        engine.warm()
        self._problem.adopt_engine(engine)

    # -- request handling -------------------------------------------------

    def handle(self, message: object) -> object:
        """Dispatch one request message to its handler."""
        if isinstance(message, DecideRequest):
            return self.decide(message)
        if isinstance(message, HeartbeatRequest):
            return self.heartbeat(message)
        if isinstance(message, ReplayRequest):
            return self.replay(message)
        if isinstance(message, ChurnRequest):
            return self.churn(message)
        raise TypeError(f"unexpected message {type(message).__name__}")

    def decide(self, request: DecideRequest) -> DecideReply:
        """Decide one customer (idempotently) and commit locally."""
        customer = request.customer
        cid = customer.customer_id
        cached = self._decided.get(cid)
        if cached is not None:
            self._rec.count("cluster.duplicate_decides")
            return DecideReply(
                tick=request.tick,
                shard=self.shard_id,
                instances=cached,
                cached=True,
                obs=self._drain(),
            )
        self._ensure_engine()
        with self._rec.span(
            "cluster.shard_decision",
            customer=cid,
            shard=self.shard_id,
            epoch=self._problem.churn.epoch,
        ):
            picked = tuple(
                self._algorithm.process_customer(
                    self._problem, customer, self._assignment
                )
            )
        for instance in picked:
            if self._assignment.commit(instance) == COMMITTED:
                self._committed += 1
        self._decided[cid] = picked
        return DecideReply(
            tick=request.tick,
            shard=self.shard_id,
            instances=picked,
            cached=False,
            obs=self._drain(),
        )

    def heartbeat(self, request: HeartbeatRequest) -> HeartbeatReply:
        return HeartbeatReply(
            tick=request.tick,
            shard=self.shard_id,
            decided=len(self._decided),
            committed=self._committed,
            epoch=self._problem.churn.epoch,
        )

    def churn(self, request: ChurnRequest) -> ChurnReply:
        """Apply one shard delta, idempotently.

        The epoch guard is what makes re-delivery safe: the inline
        transport shares the plan's already-spliced view (its epoch is
        current before the request arrives), and a restarted worker
        boots from the post-churn view, so a replayed delta finds
        nothing to do.  A forked process worker, whose state is a
        fork-time snapshot, sees an older epoch and applies the delta
        to its local view (splicing its engine in place).
        """
        delta = request.delta
        problem = self._problem
        if delta.epoch <= problem.churn.epoch:
            return ChurnReply(
                shard=self.shard_id,
                epoch=problem.churn.epoch,
                applied=False,
            )
        self._ensure_engine()
        with self._rec.span(
            "cluster.shard_churn", shard=self.shard_id, epoch=delta.epoch
        ):
            # No source engine here: joining segments are re-scored.
            problem.apply_delta(delta)
        problem.churn.epoch = delta.epoch
        return ChurnReply(
            shard=self.shard_id, epoch=delta.epoch, applied=True
        )

    def replay(self, request: ReplayRequest) -> ReplayReply:
        """Restore budgets and the decision cache after a restart."""
        replayed = 0
        for instance in request.instances:
            if self._assignment.commit(instance) == COMMITTED:
                replayed += 1
        for cid, picked in request.decided:
            self._decided[cid] = tuple(picked)
        self._rec.event(
            "cluster.replay",
            shard=self.shard_id,
            instances=len(request.instances),
            decisions=len(request.decided),
        )
        return ReplayReply(
            shard=self.shard_id,
            replayed_instances=replayed,
            replayed_decisions=len(request.decided),
        )

    def _drain(self):
        return self._rec.drain() if self._rec.enabled else None

    def close(self) -> None:
        if self._attached is not None:
            self._attached.close()
            self._attached = None


def worker_main(
    conn,
    shard_id: int,
    problem,
    handle: Optional[ColumnHandle],
    gamma_min: float,
    g: float,
    obs: bool,
    artifact_path: Optional[str] = None,
) -> None:
    """Child-process entry point: serve envelopes off a pipe until told
    to shut down (or the pipe dies with the parent)."""
    server = ShardServer(
        shard_id,
        problem,
        handle,
        gamma_min,
        g,
        obs=obs,
        artifact_path=artifact_path,
    )
    try:
        while True:
            try:
                envelope = conn.recv()
            except (EOFError, OSError):  # parent went away
                break
            message = unseal(envelope)
            if isinstance(message, ShutdownRequest):
                conn.send(seal(ShutdownReply(shard=shard_id)))
                break
            conn.send(seal(server.handle(message)))
    finally:
        server.close()
        conn.close()
