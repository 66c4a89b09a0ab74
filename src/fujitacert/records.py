"""Machine-readable output records: deterministic JSON with exact rationals.

Every command emits OutputRecord objects: schema_version, command, an echo
of the parsed inputs, a command-specific result payload, and a list of
named checks.  Exact rationals are serialized as "p/q" strings in lowest
terms with positive denominator, never floats; the slope additionally gets
a 6-place decimal string for readability.  Field order is fixed so output
is byte-identical across runs.  Per-character rows (splitting entries, the
analyze table) are encoded from the sigma table, the text after "j" once
per sigma class and n, and a family by one format string, family_text;
dumps_record splices them into the rest.  enumerate splices the other way:
consecutive certificates equal in every field but the family share one key,
so it writes the text dumps_record gave the first of them around each one's
family_text.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from functools import cache

from .certify import Certificate, SplittingReport
from .cyclotomic import CyclotomicNumber
from .eigenspace import EigenspaceReport, hodge_rows
from .monodromy import FinitenessVerdict, Mat
from .residues import InternalInconsistencyError
from .surfaces import FamilyData, SurfaceInvariants
from .sweep import SweepSummary

SCHEMA_VERSION = "1.1"


def rational_str(value) -> str:
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(value, places: int = 6) -> str:
    q = Fraction(value)
    scaled = q * 10**places
    whole = scaled.numerator // scaled.denominator  # floor; all our values are positive
    digits = str(whole).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def check(name: str, passed: bool, details: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def output_record(command: str, inputs: dict, result, checks: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "checks": checks,
    }


@dataclasses.dataclass(frozen=True)
class CharacterRows:
    """Encoded text that dumps_record splices in: per-character rows, a family, or enumerate's cut at the family."""

    text: str


_PLACEHOLDER = "\0rows\0"  # written where a CharacterRows goes, until its text is spliced in
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)


def dumps_record(record: dict) -> str:
    """One JSON line; TypeError on any value JSON cannot encode other than CharacterRows."""
    texts = []

    def splice(obj):
        if type(obj) is not CharacterRows:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        texts.append(obj.text)
        return _PLACEHOLDER

    parts = (json.dumps(record, ensure_ascii=False, default=splice) + "\n").split(_PLACEHOLDER_JSON)
    if len(parts) != len(texts) + 1:
        raise InternalInconsistencyError("a record string spells the rows placeholder")
    return "".join([text for pair in zip(parts, [*texts, ""]) for text in pair])  # one copy of each spliced text


@cache
def _row_tails(n: int, row_dict) -> dict[int, str]:
    """sigma -> the JSON text of row_dict's row after its leading "j" key, once per n."""
    rows = {s: row_dict(EigenspaceReport(0, *fields)) for s, fields in hodge_rows(n).items()}
    return {s: json.dumps(row, ensure_ascii=False).partition(", ")[2] for s, row in rows.items()}


def character_rows(table, row_dict) -> CharacterRows:
    """The rows row_dict gives characters j = 1 .. n-1, encoded from their sigma_table entries."""
    tails = _row_tails(len(table) + 1, row_dict)
    rows = [f'{{"j": {j}, {tails[s]}' for j, s in enumerate(table, 1)]
    return CharacterRows(f"[{', '.join(rows)}]")


# ---------------------------------------------------------------------------
# converters


def eigenspace_report_dict(report: EigenspaceReport, mu_values=None) -> dict:
    out = {
        "j": report.j,
        "degenerate": report.degenerate,
        "sigma": report.sigma if not report.degenerate else None,
        "dim_h10": report.dim_h10,
        "dim_h01": report.dim_h01,
        "signature": [report.dim_h10, report.dim_h01] if not report.degenerate else None,
        "split_class": report.split_class.value if report.split_class else None,
    }
    if mu_values is not None:
        out["mu"] = [rational_str(v) if v is not None else None for v in mu_values]
    return out


def invariants_dict(inv: SurfaceInvariants) -> dict:
    return {
        "g": inv.g,
        "b": inv.b,
        "e": inv.e,
        "K2": inv.K2,
        "chi": inv.chi,
        "slope": rational_str(inv.slope),
        "slope_decimal": decimal_str(inv.slope),
        "deg_V": inv.deg_V,
        "mu": inv.mu,
        "ball_quotient": inv.ball_quotient,
        "irregularity": inv.irregularity,
        "p_g": inv.p_g,
    }


def splitting_row_dict(e: EigenspaceReport) -> dict:
    return {
        "j": e.j,
        "dim_Vj": e.dim_h10 or 0,  # None for a degenerate character
        "split_class": e.split_class.value if e.split_class else None,
        "degenerate": e.degenerate,
    }


def splitting_dict(split: SplittingReport) -> dict:
    return {
        "entries": character_rows(split.sigmas, splitting_row_dict),
        "rank_V": split.rank_V,
        "rank_flat": split.rank_flat,
        "rank_ample_candidate": split.rank_ample_candidate,
        "deg_V": split.deg_V,
        "has_degenerate": split.has_degenerate,
    }


def verdict_dict(verdict: FinitenessVerdict) -> dict:
    return {
        "kind": verdict.kind,
        "order": verdict.order,
        "witness": dict(verdict.witness) if verdict.witness is not None else None,
        "cap": verdict.cap,
    }


def family_text(f: FamilyData) -> str:
    """The family's JSON object, byte-equal to json.dumps of {"n": n, "m": [...], "base_weights": [...]}."""
    return '{"n": %d, "m": [%d, %d, %d, %d], "base_weights": [%d, %d, %d]}' % (f.n, *f.w.m, *f.base_weights)


def certificate_dict(cert: Certificate) -> dict:
    return {
        "family": CharacterRows(family_text(cert.family)),
        "admissible": cert.admissible,
        "admissibility_reason": cert.admissibility_reason,
        "smooth": cert.smooth,
        "invariants": invariants_dict(cert.invariants) if cert.invariants else None,
        "splitting": splitting_dict(cert.splitting) if cert.splitting else None,
        "irreducible_all": cert.irreducible_all,
        "infinite_witness": (
            {
                "j_star": cert.infinite_witness.j_star,
                "unit": cert.infinite_witness.unit,
                "sigma": cert.infinite_witness.sigma,
            }
            if cert.infinite_witness
            else None
        ),
        "oracle": (
            {
                "criterion": cert.oracle_verdicts[0],
                "closure": cert.oracle_verdicts[1],
                "agreement": cert.oracle_agreement,
            }
            if cert.oracle_verdicts
            else None
        ),
        "verdict": cert.verdict,
        "not_certified_reason": cert.not_certified_reason,
        "prose": cert.prose,
    }


def cyclotomic_dict(x: CyclotomicNumber) -> dict:
    return {
        "level": x.level,
        "coefficients": [rational_str(c) for c in x.coefficients()],
    }


def matrix_dict(m: Mat) -> list[list[dict]]:
    return [[cyclotomic_dict(entry) for entry in row] for row in m]


def sweep_dict(summary: SweepSummary) -> dict:
    """Every SweepSummary field in declaration order; tuples serialize as JSON lists."""
    return dataclasses.asdict(summary)


# ---------------------------------------------------------------------------
# schema document

JSON_SCHEMA = {
    "schema_version": SCHEMA_VERSION,
    "record": {
        "schema_version": "string; this document's version",
        "command": "string; one of analyze, certify, enumerate, sweep, shimura, oracle",
        "inputs": "object; echo of the parsed command inputs",
        "result": "object; command-specific payload",
        "checks": [{"name": "string", "passed": "boolean", "details": "string"}],
    },
    "conventions": {
        "rationals": "exact strings 'p/q', lowest terms, positive q; never floats",
        "slope": "given both as 'p/q' and as a 6-place decimal string",
        "streaming": "enumerate and shimura emit one record per line",
        "determinism": "byte-identical output for identical inputs",
    },
    "exit_codes": {
        "0": "success / certified",
        "1": "invalid input",
        "2": "internal inconsistency (criterion vs oracle disagreement or a failed self-check)",
        "3": "not certified",
    },
    "results": {
        "analyze": {
            "n": "int",
            "m": "[int x4]",
            "table": [
                {
                    "j": "int",
                    "degenerate": "bool",
                    "sigma": "int|null",
                    "dim_h10": "int|null",
                    "dim_h01": "int|null",
                    "signature": "[p, q]|null",
                    "split_class": "ZERO|AMPLE_CANDIDATE|FLAT|null",
                    "mu": "['p/q' x4]|null (single-character reports)",
                }
            ],
        },
        "certify": {
            "family": {"n": "int", "m": "[int x4]", "base_weights": "[int x3]"},
            "admissible": "bool",
            "admissibility_reason": "string|null",
            "smooth": "bool|null",
            "invariants": "object|null (g, b, e, K2, chi, slope, deg_V, mu, ...)",
            "splitting": "object|null (entries, rank_V, rank_flat, rank_ample_candidate, deg_V)",
            "irreducible_all": "bool|null",
            "infinite_witness": "{j_star, unit, sigma}|null",
            "oracle": "{criterion, closure, agreement}|null",
            "verdict": "COUNTEREXAMPLE|NOT_CERTIFIED",
            "not_certified_reason": "string|null",
            "prose": "string; scope statement of what the certificate does and does not assert",
        },
        "sweep": {
            "n_min": "int",
            "n_max": "int",
            "cap": "int; closure size cap",
            "max_word_len": "int; longest word tested for infinite order",
            "weight_tuples": "int",
            "characters": "int",
            "irreducibility_checked": "int",
            "finiteness_checked": "int",
            "agreements": "int",
            "disagreements": "[[n, m, j, criterion, oracle]]",
            "inconclusive": "[[n, m, j]]",
            "irreducibility_mismatches": "[[n, m, j]]",
            "signature_checked": "int",
            "signature_mismatches": "[[n, m, j]]",
        },
        "shimura": {"n": "int", "m": "[int x4]", "count": "int", "candidate": "bool"},
        "oracle": {
            "level": "int; cyclotomic level of the triple's entries",
            "traces": "object of generator name -> cyclotomic number",
            "determinants": "object of generator name -> cyclotomic number",
            "invariant_form": "2x2 matrix of cyclotomic numbers",
            "signature": "[p, q]",
            "closure": "finiteness verdict",
            "criterion": "finiteness verdict",
        },
    },
}
