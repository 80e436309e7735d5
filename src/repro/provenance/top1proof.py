"""The ``top-1-proof`` semiring (§3.5).

Each tag carries *one* conjunction of input-fact ids — the most likely
proof of the fact — plus its probability.  Disjunction keeps the more
likely proof; conjunction merges the two proofs, deduplicates, and zeroes
the result on a mutual-exclusion conflict or proof-capacity overflow.

The paper fixes the maximum proof size statically (they use 300; we default
to 64, configurable) so tags occupy fixed-size vector registers — the key
property that lets proofs live on the device.

Exclusion-group conflict detection relies on the runtime's guarantee that
facts within one exclusion group receive *contiguous* fact ids, so after
sorting a proof by fact id, conflicting facts are adjacent.
"""

from __future__ import annotations

import numpy as np

from .base import SATURATION_EPS, Provenance
from ..gpu.kernels import segment_argmax

#: Sentinel for empty proof slots; sorts after any real fact id.
PAD = np.int64(2**62)

DEFAULT_PROOF_CAPACITY = 64


class Top1ProofProvenance(Provenance):
    """Probabilistic reasoning tracking a single most-likely proof."""

    name = "prob-top-1-proofs"
    idempotent_oplus = True  # ⊕ keeps the single most likely proof

    def __init__(self, proof_capacity: int = DEFAULT_PROOF_CAPACITY):
        super().__init__()
        self.proof_capacity = int(proof_capacity)
        self._dtype = np.dtype(
            [("prob", "f8"), ("size", "i8"), ("proof", "i8", (self.proof_capacity,))]
        )

    # ------------------------------------------------------------------

    def tag_dtype(self) -> np.dtype:
        return self._dtype

    def one_tags(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=self._dtype)
        out["prob"] = 1.0
        out["proof"] = PAD
        return out

    def zero_tags(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=self._dtype)
        out["size"] = -1
        out["proof"] = PAD
        return out

    def input_tags(self, fact_ids: np.ndarray) -> np.ndarray:
        fact_ids = np.asarray(fact_ids, dtype=np.int64)
        out = self.one_tags(len(fact_ids))
        tagged = fact_ids >= 0
        out["prob"][tagged] = self.input_probs[fact_ids[tagged]]
        out["size"][tagged] = 1
        out["proof"][tagged, 0] = fact_ids[tagged]
        return out

    # ------------------------------------------------------------------

    def merge_proof_arrays(
        self, proofs_a: np.ndarray, proofs_b: np.ndarray, dead_in: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Union two batches of proofs: dedupe, conflict-check, score.

        ``proofs_a``/``proofs_b`` are (n, cap) fact-id arrays padded with
        PAD; ``dead_in`` marks rows already absorbed to 0.  Returns
        ``(merged (n, cap), sizes, probs)`` with dead rows zeroed — the
        shared kernel behind top-1 and device top-k conjunction.
        """
        cap = self.proof_capacity
        merged = np.concatenate([proofs_a, proofs_b], axis=1)
        merged.sort(axis=1)
        # Blank out duplicate fact ids, then re-sort to left-justify.
        dup = np.zeros_like(merged, dtype=bool)
        dup[:, 1:] = (merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] != PAD)
        merged[dup] = PAD
        merged.sort(axis=1)

        valid = merged != PAD
        sizes = valid.sum(axis=1)
        overflow = sizes > cap

        # Conflicts: adjacent distinct facts sharing an exclusion group
        # (group members hold contiguous fact ids, so sorting by fact id
        # makes conflicting facts adjacent).
        groups = gather_inputs(self.exclusion_groups, merged, valid, -1)
        adjacent_conflict = (
            (groups[:, 1:] == groups[:, :-1])
            & (groups[:, 1:] != -1)
            & (merged[:, 1:] != merged[:, :-1])
            & valid[:, 1:]
        )
        conflict = adjacent_conflict.any(axis=1)

        probs = gather_inputs(self.input_probs, merged, valid, 1.0).prod(axis=1)

        dead = overflow | conflict | dead_in
        merged = merged[:, :cap]
        if dead.any():
            probs = np.where(dead, 0.0, probs)
            sizes = np.where(dead, -1, sizes)
            merged[dead] = PAD
        return merged, sizes, probs

    def otimes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        dead_in = (a["size"] < 0) | (b["size"] < 0)
        merged, sizes, probs = self.merge_proof_arrays(
            a["proof"].copy(), b["proof"], dead_in
        )
        out = np.zeros(len(a), dtype=self._dtype)
        out["proof"] = merged
        out["size"] = sizes
        out["prob"] = probs
        return out

    def oplus_reduce(self, tags, segment_ids, nseg) -> np.ndarray:
        winners = segment_argmax(tags["prob"], segment_ids, nseg)
        return tags[winners]

    def merge_existing(self, old, new):
        improved = new["prob"] > old["prob"] + SATURATION_EPS
        merged = old.copy()
        merged[improved] = new[improved]
        return merged, improved

    def prob(self, tags) -> np.ndarray:
        return tags["prob"].astype(np.float64)

    def is_absorbing_zero(self, tags) -> np.ndarray:
        return tags["size"] < 0


def gather_inputs(
    values: np.ndarray, proofs: np.ndarray, valid: np.ndarray, fill
) -> np.ndarray:
    """Per-input ``values`` (probabilities, exclusion groups) of the fact
    ids in ``proofs`` where ``valid``, ``fill`` elsewhere.

    With no probabilistic inputs at all, every fact is untagged and every
    proof is empty, so nothing is valid and the lookup is all ``fill``.
    """
    if len(values) == 0:
        return np.full(proofs.shape, fill, dtype=values.dtype)
    safe = np.clip(proofs, 0, len(values) - 1)
    return np.where(valid, values[safe], fill)


def leave_one_out_products(probs: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """For each row i and valid slot j: product of row i's other valid probs.

    Handles zeros exactly (division-free when a zero is present), which
    matters because neural predictions can be exactly 0 early in training.
    ``probs`` has invalid entries already replaced by 1.0.
    """
    zero = (probs == 0.0) & valid
    zero_count = zero.sum(axis=1)
    nonzero_probs = np.where(zero, 1.0, probs)
    prod_nonzero = nonzero_probs.prod(axis=1)

    out = np.zeros_like(probs)
    # No zeros in row: standard ratio.
    row_no_zero = zero_count == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out[row_no_zero] = (
            prod_nonzero[row_no_zero, None] / probs[row_no_zero]
        )
    # Exactly one zero: only that slot gets the product of the others.
    row_one_zero = zero_count == 1
    out[row_one_zero] = np.where(
        zero[row_one_zero], prod_nonzero[row_one_zero, None], 0.0
    )
    # Two or more zeros: every leave-one-out product is zero (already 0).
    return np.where(valid, out, 0.0)
