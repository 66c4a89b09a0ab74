"""Exhaustive criterion-vs-oracle equivalence sweeps over small moduli.

For every valid weight tuple (from eigenspace.iter_weight_tuples) with n up
to a safe bound and every character, three independent cross-checks run:

* irreducibility: the four non-integrality conditions against the
  commutator determinant det(g0*g1 - g1*g0) of the explicit triple, which
  is built for every character, so the oracle decides the reducible ones too;
* finiteness: Galois-definiteness against brute-force group closure plus
  infinite-order word search;
* signature: the eigenspace index against the exactly solved invariant form.

Any disagreement is an internal inconsistency (the severest failure class);
INCONCLUSIVE closures are tolerated and reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigenspace import WeightTuple, iter_weight_tuples, signature
from .monodromy import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_MAX_WORD_LEN,
    Finiteness,
    agreement,
    finiteness_by_signature,
    group_closure,
    has_common_eigenvector,
    invariant_hermitian_form,
    is_irreducible,
    triple_from_weights,
)

SAFE_N_MAX = 12
N_MIN = 4  # the least n with a weight tuple


@dataclass(frozen=True)
class SweepSummary:
    n_min: int
    n_max: int
    cap: int
    max_word_len: int
    weight_tuples: int
    characters: int
    irreducibility_checked: int
    irreducibility_mismatches: tuple[tuple[int, tuple[int, ...], int], ...]
    finiteness_checked: int
    agreements: int
    disagreements: tuple[tuple[int, tuple[int, ...], int, Finiteness, Finiteness], ...]
    inconclusive: tuple[tuple[int, tuple[int, ...], int], ...]
    signature_checked: int
    signature_mismatches: tuple[tuple[int, tuple[int, ...], int], ...]

    @property
    def clean(self) -> bool:
        return not (
            self.irreducibility_mismatches or self.disagreements or self.signature_mismatches
        )


def sweep_instance(
    w: WeightTuple,
    j: int,
    cap: int = DEFAULT_CLOSURE_CAP,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
):
    """(criterion verdict, oracle verdict) for one irreducible instance."""
    criterion = finiteness_by_signature(w, j)
    oracle = group_closure(triple_from_weights(w, j), cap, max_word_len)
    return criterion, oracle


def run_sweep(
    n_max: int,
    cap: int = DEFAULT_CLOSURE_CAP,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
) -> SweepSummary:
    if n_max > SAFE_N_MAX:
        raise ValueError(f"sweep bound {n_max} exceeds the safe bound {SAFE_N_MAX}")
    tuples = 0
    characters = 0
    irr_mismatches = []
    fin_checked = 0
    agreements = 0
    disagreements = []
    inconclusive = []
    sig_mismatches = []
    for n in range(N_MIN, n_max + 1):
        for w in iter_weight_tuples(n):
            tuples += 1
            for j in range(1, n):
                characters += 1
                irr_criterion = is_irreducible(w, j)
                triple = triple_from_weights(w, j)
                irr_oracle = not has_common_eigenvector(triple)
                if irr_criterion != irr_oracle:
                    irr_mismatches.append((n, w.m, j))
                elif irr_criterion:
                    criterion = finiteness_by_signature(w, j)
                    oracle = group_closure(triple, cap, max_word_len)
                    fin_checked += 1
                    agree = agreement(criterion.kind, oracle.kind)
                    if agree is None:
                        inconclusive.append((n, w.m, j))
                    elif agree:
                        agreements += 1
                    else:
                        disagreements.append((n, w.m, j, criterion.kind, oracle.kind))
                    _, sig_oracle = invariant_hermitian_form(triple)
                    if sig_oracle != signature(w, j):
                        sig_mismatches.append((n, w.m, j))
    return SweepSummary(
        n_min=N_MIN,
        n_max=n_max,
        cap=cap,
        max_word_len=max_word_len,
        weight_tuples=tuples,
        characters=characters,
        irreducibility_checked=characters,
        irreducibility_mismatches=tuple(irr_mismatches),
        finiteness_checked=fin_checked,
        agreements=agreements,
        disagreements=tuple(disagreements),
        inconclusive=tuple(inconclusive),
        signature_checked=fin_checked,
        signature_mismatches=tuple(sig_mismatches),
    )
