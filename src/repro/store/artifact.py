"""Engine and shard-plan artifacts on top of the column container.

An **engine artifact** persists exactly the columns a worker needs to
reconstruct a warm :class:`~repro.engine.ComputeEngine` without
re-scoring -- the same five columns the cluster ships over shared
memory (``customer_idx`` / ``vendor_idx`` / ``distance`` /
``vendor_starts`` / ``bases``) -- plus metadata binding the artifact to
the problem it was built from: artifact schema version, dtype policy
name, git sha, churn epoch, an entity fingerprint (row counts + id
CRCs), and the prune certificate if the engine was pruned.

A **plan artifact** is the existing :meth:`ShardPlan.to_metadata` JSON
round-trip wrapped in the same provenance envelope.

A **sharded store** is a directory: ``plan.json`` plus one engine
artifact per shard (``shard-NNNN.cols``), which
:class:`~repro.engine.ShardedEngine` maps lazily and cluster workers
can boot from instead of shm shipping.

Loads are validated fail-fast: a dtype-policy mismatch, fingerprint
mismatch, or churn-epoch mismatch raises
:class:`~repro.exceptions.ArtifactError` with a message saying which
knob disagrees.
"""

from __future__ import annotations

import json
import subprocess
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.exceptions import ArtifactError
from repro.store.columns import read_columns, write_columns

#: Engine-artifact metadata schema understood by this reader.
ENGINE_SCHEMA_VERSION = 1

#: Plan-artifact metadata schema understood by this reader.
PLAN_SCHEMA_VERSION = 1

#: Default file names inside a sharded store directory.
PLAN_FILE = "plan.json"
ENGINE_FILE = "engine.cols"


def shard_artifact_name(shard: int) -> str:
    """Per-shard engine artifact file name inside a store directory."""
    return f"shard-{shard:04d}.cols"


def git_sha() -> str:
    """The repository HEAD sha, or ``"unknown"`` outside a checkout."""
    try:
        root = Path(__file__).resolve().parents[3]
        return (
            subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:  # pragma: no cover - environment-dependent
        return "unknown"


def _crc(array: np.ndarray, dtype: str) -> int:
    """Policy-independent CRC of a column (canonical LE dtype).

    Casting float32 columns up to float64 is exact, so the same
    entities fingerprint identically at save and load time.
    """
    canonical = np.ascontiguousarray(array, dtype=dtype)
    return zlib.crc32(canonical.tobytes()) & 0xFFFFFFFF


def problem_fingerprint(arrays) -> dict:
    """An identity check binding an artifact to its entities.

    Ids alone are too weak (synthetic generators hand out sequential
    ids), so the geometry that determines the edge table -- positions,
    radii -- the budgets that determine affordability, and the ad-type
    catalogue are fingerprinted too.
    """
    return {
        "n_customers": int(arrays.n_customers),
        "n_vendors": int(arrays.n_vendors),
        "n_types": int(arrays.n_types),
        "customer_ids_crc32": _crc(arrays.customer_ids, "<i8"),
        "vendor_ids_crc32": _crc(arrays.vendor_ids, "<i8"),
        "customer_xy_crc32": _crc(arrays.customer_xy, "<f8"),
        "vendor_xy_crc32": _crc(arrays.vendor_xy, "<f8"),
        "radius_crc32": _crc(arrays.radius, "<f8"),
        "budget_crc32": _crc(arrays.budget, "<f8"),
        "types_crc32": _crc(
            np.concatenate(
                [
                    np.asarray(arrays.type_cost, dtype="<f8"),
                    np.asarray(arrays.type_effectiveness, dtype="<f8"),
                ]
            ),
            "<f8",
        ),
    }


def _entity_fingerprint(problem, policy) -> dict:
    """:func:`problem_fingerprint` computed from the entity objects.

    Builds only the light 1-D columns (not the interest/tag matrices),
    at the policy's dtypes so the values are bit-identical to what
    ``ProblemArrays.from_entities`` would produce -- this is what lets
    a warm load validate an artifact without paying the full columnar
    rebuild it exists to skip.
    """
    customers = problem.customers
    vendors = problem.vendors
    ad_types = problem.ad_types
    fdt = policy.float_dtype
    idt = policy.id_dtype
    customer_xy = np.array(
        [c.location for c in customers], dtype=fdt
    ).reshape(len(customers), 2)
    vendor_xy = np.array(
        [v.location for v in vendors], dtype=fdt
    ).reshape(len(vendors), 2)
    return {
        "n_customers": len(customers),
        "n_vendors": len(vendors),
        "n_types": len(ad_types),
        "customer_ids_crc32": _crc(
            np.array([c.customer_id for c in customers], dtype=idt), "<i8"
        ),
        "vendor_ids_crc32": _crc(
            np.array([v.vendor_id for v in vendors], dtype=idt), "<i8"
        ),
        "customer_xy_crc32": _crc(customer_xy, "<f8"),
        "vendor_xy_crc32": _crc(vendor_xy, "<f8"),
        "radius_crc32": _crc(
            np.array([v.radius for v in vendors], dtype=fdt), "<f8"
        ),
        "budget_crc32": _crc(
            np.array([v.budget for v in vendors], dtype=fdt), "<f8"
        ),
        "types_crc32": _crc(
            np.concatenate(
                [
                    np.array([t.cost for t in ad_types], dtype=fdt).astype(
                        "<f8"
                    ),
                    np.array(
                        [t.effectiveness for t in ad_types], dtype=fdt
                    ).astype("<f8"),
                ]
            ),
            "<f8",
        ),
    }


def _provenance(dtype_policy: str, churn_epoch: int) -> dict:
    return {
        "dtype_policy": dtype_policy,
        "git_sha": git_sha(),
        "churn_epoch": int(churn_epoch),
    }


# ----------------------------------------------------------------------
# Engine artifacts
# ----------------------------------------------------------------------
#: Entity columns persisted alongside the edge table, so a warm load
#: rebuilds :class:`~repro.engine.ProblemArrays` straight from mapped
#: blobs instead of re-stacking a million entity objects.
ARRAY_COLUMNS = (
    "customer_ids",
    "customer_xy",
    "capacity",
    "view_probability",
    "arrival_time",
    "vendor_ids",
    "vendor_xy",
    "radius",
    "budget",
    "type_ids",
    "type_cost",
    "type_effectiveness",
)

#: Optional 2-D entity columns (absent for tabular utility models).
OPTIONAL_ARRAY_COLUMNS = ("interests", "tags")

#: The edge-table columns (same set the cluster ships over shm).
EDGE_COLUMNS = (
    "customer_idx",
    "vendor_idx",
    "distance",
    "vendor_starts",
    "bases",
)


def save_engine(
    engine, path: Union[str, Path], extra: Optional[dict] = None
) -> Path:
    """Persist a built engine: entity columns, edge table, pair bases.

    Forces the edge/base build if it has not happened yet (saving an
    artifact *is* the cold build one warm-starts from).
    """
    path = Path(path)
    edges = engine.edges
    bases = engine.pair_bases
    arrays = engine.arrays
    certificate = getattr(engine, "certificate", None)
    meta = {
        "kind": "engine",
        "schema_version": ENGINE_SCHEMA_VERSION,
        "n_edges": int(len(edges)),
        "fingerprint": problem_fingerprint(arrays),
        "prune": None if certificate is None else certificate.to_metadata(),
    }
    meta.update(
        _provenance(
            engine.dtype_policy.name, engine.problem.churn.epoch
        )
    )
    if extra:
        meta["user"] = extra
    columns = {
        "customer_idx": edges.customer_idx,
        "vendor_idx": edges.vendor_idx,
        "distance": edges.distance,
        "vendor_starts": edges.vendor_starts,
        "bases": bases,
    }
    for name in ARRAY_COLUMNS:
        columns[f"arrays.{name}"] = getattr(arrays, name)
    for name in OPTIONAL_ARRAY_COLUMNS:
        value = getattr(arrays, name)
        if value is not None:
            columns[f"arrays.{name}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_columns(path, columns, extra=meta)


def load_engine(
    path: Union[str, Path],
    problem,
    mmap: bool = True,
    verify: bool = False,
):
    """Attach a saved engine artifact to ``problem``.

    Validates kind/schema, dtype policy, entity fingerprint, and churn
    epoch before handing the mapped columns to
    :meth:`ComputeEngine.from_prescored`.

    Raises:
        ArtifactError: When the file is unusable or does not belong to
            ``problem`` in its current state.
    """
    from repro.engine import CandidateEdges, ComputeEngine, ProblemArrays
    from repro.engine.engine import supports_vectorization

    path = Path(path)
    columns, meta = read_columns(path, mmap=mmap, verify=verify)
    if meta.get("kind") != "engine":
        raise ArtifactError(
            f"{path}: not an engine artifact (kind={meta.get('kind')!r})"
        )
    version = meta.get("schema_version")
    if version != ENGINE_SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: unknown engine artifact schema version {version} "
            f"(this build reads version {ENGINE_SCHEMA_VERSION})"
        )
    policy = problem.dtype_policy
    if meta.get("dtype_policy") != policy.name:
        raise ArtifactError(
            f"{path}: artifact was built under dtype policy "
            f"{meta.get('dtype_policy')!r} but the problem runs "
            f"{policy.name!r}; rebuild the artifact or construct the "
            f"problem with dtype={meta.get('dtype_policy')!r}"
        )
    epoch = int(problem.churn.epoch)
    saved_epoch = int(meta.get("churn_epoch", 0))
    if saved_epoch != epoch:
        raise ArtifactError(
            f"{path}: artifact was saved at churn epoch {saved_epoch} "
            f"but the problem is at epoch {epoch}; replay the same "
            f"churn (or rebuild the artifact) before loading"
        )
    if not supports_vectorization(problem.utility_model):
        raise ArtifactError(
            f"{path}: the problem's utility model has no vectorized "
            f"kernel, so an engine artifact cannot be attached"
        )
    fingerprint = _entity_fingerprint(problem, policy)
    if meta.get("fingerprint") != fingerprint:
        raise ArtifactError(
            f"{path}: artifact fingerprint does not match the problem "
            f"(saved {meta.get('fingerprint')}, expected {fingerprint})"
        )
    missing = [
        name
        for name in EDGE_COLUMNS + tuple(
            f"arrays.{c}" for c in ARRAY_COLUMNS
        )
        if name not in columns
    ]
    if missing:
        raise ArtifactError(
            f"{path}: engine artifact is missing columns {missing}"
        )
    customer_ids = columns["arrays.customer_ids"]
    vendor_ids = columns["arrays.vendor_ids"]
    arrays = ProblemArrays(
        customer_ids=customer_ids,
        customer_xy=columns["arrays.customer_xy"],
        capacity=columns["arrays.capacity"],
        view_probability=columns["arrays.view_probability"],
        arrival_time=columns["arrays.arrival_time"],
        interests=columns.get("arrays.interests"),
        vendor_ids=vendor_ids,
        vendor_xy=columns["arrays.vendor_xy"],
        radius=columns["arrays.radius"],
        budget=columns["arrays.budget"],
        tags=columns.get("arrays.tags"),
        type_ids=columns["arrays.type_ids"],
        type_cost=columns["arrays.type_cost"],
        type_effectiveness=columns["arrays.type_effectiveness"],
        customer_index={
            int(cid): row for row, cid in enumerate(customer_ids.tolist())
        },
        vendor_index={
            int(vid): row for row, vid in enumerate(vendor_ids.tolist())
        },
        policy=policy,
    )
    engine = ComputeEngine(problem, arrays)
    engine.install(
        CandidateEdges(
            customer_idx=columns["customer_idx"],
            vendor_idx=columns["vendor_idx"],
            distance=columns["distance"],
            vendor_starts=columns["vendor_starts"],
        ),
        columns["bases"],
    )
    if meta.get("prune"):
        from repro.engine.pruning import PruneCertificate

        engine.certificate = PruneCertificate.from_metadata(meta["prune"])
    return engine


# ----------------------------------------------------------------------
# Shard-plan artifacts
# ----------------------------------------------------------------------
def save_plan(plan, path: Union[str, Path]) -> Path:
    """Persist a shard plan (its metadata round-trip + provenance)."""
    path = Path(path)
    problem = plan.problem
    doc = {
        "kind": "shard-plan",
        "store_schema_version": PLAN_SCHEMA_VERSION,
        "plan": plan.to_metadata(),
    }
    doc.update(
        _provenance(problem.dtype_policy.name, problem.churn.epoch)
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def load_plan(path: Union[str, Path], problem):
    """Rebuild a shard plan from :func:`save_plan` output.

    Validates the envelope (kind, store schema version, churn epoch)
    here; the vendor-cover and plan-schema checks are the existing
    :meth:`ShardPlan.from_metadata` round-trip.
    """
    from repro.sharding import ShardPlan

    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ArtifactError(f"cannot read plan artifact {path}: {exc}") from exc
    except ValueError as exc:
        raise ArtifactError(
            f"{path}: corrupted plan artifact ({exc})"
        ) from exc
    if doc.get("kind") != "shard-plan":
        raise ArtifactError(
            f"{path}: not a shard-plan artifact (kind={doc.get('kind')!r})"
        )
    version = doc.get("store_schema_version")
    if version != PLAN_SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: unknown plan artifact schema version {version} "
            f"(this build reads version {PLAN_SCHEMA_VERSION})"
        )
    epoch = int(problem.churn.epoch)
    saved_epoch = int(doc.get("churn_epoch", 0))
    if saved_epoch != epoch:
        raise ArtifactError(
            f"{path}: plan was saved at churn epoch {saved_epoch} but "
            f"the problem is at epoch {epoch}; replay the same churn "
            f"(or rebuild the plan) before loading"
        )
    return ShardPlan.from_metadata(problem, doc["plan"])


# ----------------------------------------------------------------------
# Sharded stores (directory: plan.json + per-shard engine artifacts)
# ----------------------------------------------------------------------
def save_sharded(
    plan,
    directory: Union[str, Path],
    prune: Optional[str] = None,
) -> list:
    """Build and persist every shard's engine under ``directory``.

    Each shard view's engine is built (edges + bases), optionally
    pruned, saved as ``shard-NNNN.cols``, and released again so peak
    memory stays one shard.  ``plan.json`` captures the partition.
    Returns the written paths (plan first).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [save_plan(plan, directory / PLAN_FILE)]
    for shard in range(plan.n_shards):
        view = plan.problem_for(shard)
        engine = view.acquire_engine()
        if engine is None:
            raise ArtifactError(
                "cannot build a sharded store: the utility model has "
                "no vectorized kernel"
            )
        if prune:
            engine.prune(prune)
        paths.append(
            save_engine(engine, directory / shard_artifact_name(shard))
        )
        plan.release(shard)
    return paths
