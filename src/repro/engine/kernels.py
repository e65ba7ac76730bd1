"""Vectorized Eq. 4/5 kernels over candidate-edge tables.

These are the batch counterparts of the scalar reference path
(:func:`repro.utility.preference.weighted_pearson` feeding
``UtilityModel.pair_base``): one pass per time bucket scores *every*
candidate edge, instead of one Python call per pair.

Numerical contract: the kernels use the same centered one-pass
formulation, the same degenerate-variance cutoff
(:data:`repro.utility.preference.VARIANCE_EPS`), the same ``[-1, 1]``
and non-negativity clips, and the model's own distance clamp
(:attr:`UtilityModel.min_distance`, whose definition lives in
:func:`repro.utility.model.clamp_distance`).  Results agree with the
scalar path to float rounding (well inside 1e-9); the parity suite in
``tests/engine`` pins this.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.arrays import ProblemArrays
from repro.engine.edges import CandidateEdges
from repro.utility.model import TabularUtilityModel, TaxonomyUtilityModel
from repro.utility.preference import VARIANCE_EPS

#: Target element count of one edge-block temporary (keeps the
#: ``(block, T)`` gather buffers a few dozen MB at most).
_BLOCK_ELEMENTS = 4_000_000


def _edge_block(n_tags: int) -> int:
    return max(256, _BLOCK_ELEMENTS // max(1, n_tags))


def _row_weighted_sums(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``matrix @ weights`` with a shape-independent accumulation order.

    BLAS gemv may pick different kernels (and hence different rounding)
    depending on the row count, so ``(M @ w)[i]`` is not guaranteed to
    be bitwise stable under row subsetting.  ``einsum`` (without
    ``optimize``, so it never dispatches to BLAS) reduces each row with
    the same fixed-order loop regardless of how many rows there are --
    which is what lets a shard view's or a churn splice's smaller edge
    table score bitwise the same bases as the full table, at near-gemv
    speed.
    """
    return np.einsum("et,t->e", matrix, weights, optimize=False)


def batched_positive_preferences(
    model: TaxonomyUtilityModel,
    arrays: ProblemArrays,
    edges: CandidateEdges,
) -> np.ndarray:
    """Eq. 5 activity-weighted Pearson preference for every edge.

    Edges are grouped by the customer's activity time bucket (weights
    are constant within a bucket); per bucket, per-entity weighted
    moments are computed once and the per-edge covariance in blocked
    array passes.

    Returns:
        ``(E,)`` preferences clipped to ``[0, 1]``.

    Raises:
        ValueError: When the instance lacks interest/tag matrices or an
            activity vector has non-positive weight sum (mirroring the
            scalar path's errors).
    """
    interests, tags = arrays.interests, arrays.tags
    if interests is None or tags is None:
        raise ValueError(
            "taxonomy utility model needs interest/tag vectors on both "
            "entities; use TabularUtilityModel for direct preferences"
        )
    n_edges = len(edges)
    # Allocations follow the active dtype policy; under float32 the
    # whole bucket pipeline stays float32 (no silent float64 upcasts --
    # the parity suite asserts the output dtype).
    fdt = arrays.float_dtype
    prefs = np.zeros(n_edges, dtype=fdt)
    if n_edges == 0:
        return prefs

    cust = edges.customer_idx
    vend = edges.vendor_idx
    resolution = model.time_resolution_hours
    buckets = np.rint(
        (arrays.arrival_time[cust] % 24.0) / resolution
    ).astype(np.int64)
    block = _edge_block(interests.shape[1])

    for bucket in np.unique(buckets):
        sel = np.flatnonzero(buckets == bucket)
        weights = np.asarray(model.weights_for_bucket(int(bucket)), dtype=fdt)
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("activity weights must have positive sum")

        # Per-entity weighted moments, restricted to the customers that
        # actually appear in this bucket.  Vendors are restricted too
        # when the bucket has fewer edges than there are vendors (a
        # small segment, such as one joining vendor's); otherwise most
        # vendors appear, and gathering their rows costs more than
        # scoring them all.  Row sums are row-stable, so an entity's
        # moments are the same floats whichever rows they come with.
        cust_rows = np.unique(cust[sel])
        sub = interests[cust_rows]
        mu_c = _row_weighted_sums(sub, weights) / total
        dc = sub - mu_c[:, None]
        var_c = _row_weighted_sums(dc * dc, weights) / total
        local_c = np.searchsorted(cust_rows, cust[sel])
        if len(sel) < len(tags):
            vend_rows = np.unique(vend[sel])
            local_v = np.searchsorted(vend_rows, vend[sel])
        else:
            vend_rows = slice(None)
            local_v = vend[sel]
        sub = tags[vend_rows]
        mu_v = _row_weighted_sums(sub, weights) / total
        dv = sub - mu_v[:, None]
        var_v = _row_weighted_sums(dv * dv, weights) / total

        denom = np.sqrt(var_c[local_c] * var_v[local_v])
        defined = (var_c[local_c] > VARIANCE_EPS) & (
            var_v[local_v] > VARIANCE_EPS
        )

        cov = np.empty(len(sel), dtype=fdt)
        for start in range(0, len(sel), block):
            stop = min(start + block, len(sel))
            cov[start:stop] = _row_weighted_sums(
                dc[local_c[start:stop]] * dv[local_v[start:stop]], weights
            ) / total

        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(defined, cov / denom, 0.0)
        np.clip(corr, -1.0, 1.0, out=corr)
        prefs[sel] = np.maximum(0.0, corr)
    return prefs


def taxonomy_pair_bases(
    model: TaxonomyUtilityModel,
    arrays: ProblemArrays,
    edges: CandidateEdges,
) -> np.ndarray:
    """Eq. 4 pair bases :math:`p_i \\cdot s / d` for every edge
    (taxonomy pipeline)."""
    prefs = batched_positive_preferences(model, arrays, edges)
    dist = np.maximum(edges.distance, model.min_distance)
    return arrays.view_probability[edges.customer_idx] * prefs / dist


def tabular_pair_bases(
    model: TabularUtilityModel,
    arrays: ProblemArrays,
    edges: CandidateEdges,
) -> np.ndarray:
    """Eq. 4 pair bases for every edge (tabular preferences/distances)."""
    n_edges = len(edges)
    customer_ids = arrays.customer_ids[edges.customer_idx]
    vendor_ids = arrays.vendor_ids[edges.vendor_idx]
    pairs = list(zip(customer_ids.tolist(), vendor_ids.tolist()))

    table = model.preference_table
    default = model.default_preference
    prefs = np.fromiter(
        (table.get(pair, default) for pair in pairs),
        dtype=arrays.float_dtype,
        count=n_edges,
    )
    dist = np.array(edges.distance, dtype=arrays.float_dtype)
    overrides = model.distance_table
    if overrides is not None:
        for pos, pair in enumerate(pairs):
            value = overrides.get(pair)
            if value is not None:
                dist[pos] = value
    np.maximum(dist, model.min_distance, out=dist)
    return arrays.view_probability[edges.customer_idx] * prefs / dist


def pair_bases(
    model, arrays: ProblemArrays, edges: CandidateEdges
) -> Optional[np.ndarray]:
    """Dispatch to the vectorized kernel matching ``model``.

    Returns ``None`` when the model has no vectorized counterpart
    (type-sensitive models, decorated/guarded models, or custom
    subclasses) -- callers then stay on the scalar reference path.
    Exact type checks are deliberate: a subclass may override
    ``preference``/``pair_base`` and silently diverge from the kernel.
    """
    if model.type_sensitive:
        return None
    if type(model) is TabularUtilityModel:
        return tabular_pair_bases(model, arrays, edges)
    if type(model) is TaxonomyUtilityModel:
        if arrays.interests is None or arrays.tags is None:
            return None
        if arrays.interests.shape[1] != arrays.tags.shape[1]:
            return None  # shape mismatch; let the scalar path raise
        return taxonomy_pair_bases(model, arrays, edges)
    return None
