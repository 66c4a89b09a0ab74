"""Command-line front end: analyze, certify, enumerate, sweep, shimura, oracle.

All output is machine-readable JSON on stdout (one record per line for the
streaming commands); diagnostics go to stderr.  Exit codes: 0 success or
certified, 1 invalid input (checked here), 2 internal inconsistency (criterion
vs oracle disagreement, failed self-check such as a broken consequence of
admissibility, any library error), 3 not certified: an inadmissible covering
datum.  No environment-variable configuration: everything is a flag, so
certificates are reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
from functools import cache
from math import gcd
from operator import attrgetter

from . import records
from .certify import Certificate, certify, shimura_count
from .eigenspace import (
    ResidueWeights,
    WeightTuple,
    eigenspace_report,
    mu,
    sigma_table,
    signature as eigen_signature,
)
from .monodromy import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_MAX_WORD_LEN,
    agreement,
    finiteness_by_signature,
    group_closure,
    has_common_eigenvector,
    invariant_hermitian_form,
    is_irreducible,
    mat_det,
    mat_trace,
    triple_from_weights,
)
from .records import check, dumps_record, output_record
from .residues import InternalInconsistencyError
from .surfaces import (
    FamilyData,
    admissible_exists,
    iter_admissible_families,
    iter_canonical_families,
    standard_family,
)
from .sweep import SAFE_N_MAX, run_sweep

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_NOT_CERTIFIED = 3

_FAMILY_CUT = "\0"  # json.dumps escapes every control character, so only a spliced text can hold a raw NUL
# every Certificate field but the family, built once: a field added later joins enumerate's key
_certificate_key = attrgetter(*(f.name for f in dataclasses.fields(Certificate) if f.name != "family"))


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _parse_int_list(text: str, count: int, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliInputError(f"{what} must be comma-separated integers, got {text!r}")
    if len(values) != count:
        raise CliInputError(f"{what} needs exactly {count} entries, got {len(values)}")
    return values


@cache  # built on the first call, not at import; parsing leaves no state in it
def build_parser() -> _Parser:
    parser = _Parser(prog="fujitacert", description=__doc__)
    parser.add_argument("--schema", action="store_true", help="print the JSON schema and exit")
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    p = sub.add_parser("analyze", help="eigenspace table for a weight tuple")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", required=True, help="four branch exponents, e.g. 1,1,1,2")
    p.add_argument("-j", type=int, default=None, help="single character instead of the table")

    p = sub.add_parser("certify", help="counterexample certificate for a family")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", required=True)
    p.add_argument("--nw", required=True, help="three base weights, e.g. 1,1,3")
    p.add_argument("--oracle", action="store_true", help="re-decide the witness by matrix closure")
    p.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP)
    p.add_argument("--max-word", type=int, default=DEFAULT_MAX_WORD_LEN)

    p = sub.add_parser("enumerate", help="certify families over a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--standard-only", action="store_true")
    group.add_argument("--all", dest="all_families", action="store_true")
    p.add_argument("--normalize", action="store_true")

    p = sub.add_parser("sweep", help="criterion vs oracle equivalence sweep")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP)
    p.add_argument("--max-word", type=int, default=DEFAULT_MAX_WORD_LEN)

    p = sub.add_parser("shimura", help="ample-pair counts and Shimura-curve candidates")
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("oracle", help="inspect the monodromy triple of one character")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", required=True)
    p.add_argument("-j", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP)
    p.add_argument("--max-word", type=int, default=DEFAULT_MAX_WORD_LEN)
    return parser


# ---------------------------------------------------------------------------
# commands


def _weights(cls: type[ResidueWeights], n: int, m_text: str) -> ResidueWeights:
    """-m as cls: the residue system of m mod n, or the strict WeightTuple that reduction leaves unchanged."""
    m = _parse_int_list(m_text, 4, "-m")
    try:
        return cls(n=n, m=m)
    except ValueError as exc:
        raise CliInputError(str(exc))


def cmd_analyze(args, out) -> int:
    w = _weights(ResidueWeights, args.n, args.m)
    n = w.n
    inputs = {"n": n, "m": list(w.m), "j": args.j}
    if args.j is not None:
        j = args.j % n
        if j == 0:
            raise CliInputError("character index j must be nonzero mod n")
        mu_values = [mu(w, i, j) if m * j % n else None for i, m in enumerate(w.m)]  # None where degenerate
        report = eigenspace_report(w, j)
        sigmas = [report.sigma]
        rows = [records.eigenspace_report_dict(report, mu_values)]
    else:
        sigmas = sigma_table(w)
        rows = records.character_rows(sigmas, records.eigenspace_report_dict)
    checks = [check("sigma_in_range", {0, n, 2 * n, 3 * n}.issuperset(sigmas), "sigma values lie in {n, 2n, 3n}")]
    if args.j is None:
        # these two checks, and sigma_in_range above n/2, restate sigma_table's mirror sigma_{n-j} = 4n - sigma_j;
        # kept for the output.  test_sigma_table_matches_sigma_sum_at_large_levels checks the mirror itself
        complementary = all(a == 0 or b == 0 or a + b == 4 * n for a, b in zip(sigmas, reversed(sigmas)))  # 0: degenerate
        checks.append(check("complementary_characters", complementary, "sigma_j + sigma_{n-j} = 4n"))
        if w.all_units():
            total = sum(sigmas) // n - (n - 1)  # dim_h10 = sigma / n - 1 at every character
            checks.append(check("h10_total", total == n - 1, f"sum of dim_h10 = {total}, want n-1"))
    result = {"n": n, "m": list(w.m), "table": rows}
    out.write(dumps_record(output_record("analyze", inputs, result, checks)))
    return EXIT_OK


def _certificate_checks(cert: Certificate) -> list[dict]:
    n = cert.family.n
    witness = cert.infinite_witness
    checks = [
        check("admissible", cert.admissible, cert.admissibility_reason or ""),
        check("smooth", bool(cert.smooth), ""),
        check(
            "no_degenerate_characters",
            cert.splitting is not None and not cert.splitting.has_degenerate,
            "",
        ),
        check("irreducible_all", bool(cert.irreducible_all), ""),
        check(
            "flat_rank_at_least_2",
            cert.splitting is not None and cert.splitting.rank_flat >= 2,
            "",
        ),
        check(
            "infinite_witness_valid",
            witness is not None
            and witness.sigma == 2 * n
            and gcd(witness.unit, n) == 1
            and witness.unit * (n - 1) % n == witness.j_star,
            "witness character has sigma = 2n",
        ),
    ]
    if cert.oracle_verdicts is not None:
        checks.append(
            check(
                "oracle_agrees",
                cert.oracle_agreement is True,
                f"criterion {cert.oracle_verdicts[0]}, closure {cert.oracle_verdicts[1]}",
            )
        )
    return checks


def cmd_certify(args, out) -> int:
    w = _weights(WeightTuple, args.n, args.m)
    nw = _parse_int_list(args.nw, 3, "--nw")
    try:
        fam = FamilyData(w=w, base_weights=nw)
    except ValueError as exc:
        raise CliInputError(str(exc))
    cert = certify(fam, with_oracle=args.oracle, cap=args.cap, max_word_len=args.max_word)
    inputs = {
        "n": fam.n,
        "m": list(w.m),
        "nw": list(nw),
        "oracle": args.oracle,
        "cap": args.cap,
        "max_word": args.max_word,
    }
    record = output_record("certify", inputs, records.certificate_dict(cert), _certificate_checks(cert))
    out.write(dumps_record(record))
    if cert.oracle_agreement is False:
        return EXIT_INCONSISTENT
    return EXIT_OK if cert.is_counterexample else EXIT_NOT_CERTIFIED


def cmd_enumerate(args, out) -> int:
    if not 5 <= args.n_min <= args.n_max:
        raise CliInputError("need 5 <= --n-min <= --n-max")
    mode = "all" if args.all_families else "standard-only"
    walk = iter_canonical_families if args.normalize else iter_admissible_families
    inputs = {"n_min": args.n_min, "n_max": args.n_max, "mode": mode, "normalize": args.normalize}
    # a record is its family plus text that every other Certificate field fixes; the walks yield the
    # families of one m in a row, so the text around the family is encoded once per run of equal keys
    key = head = tail = None
    for n in filter(admissible_exists, range(args.n_min, args.n_max + 1)):
        for fam in walk(n) if args.all_families else [standard_family(n)]:
            cert = certify(fam)
            cert_key = _certificate_key(cert)
            if cert_key != key:
                result = records.certificate_dict(cert) | {"family": records.CharacterRows(_FAMILY_CUT)}
                checks = [check("certified", cert.is_counterexample, cert.not_certified_reason or "")]
                head, _, tail = dumps_record(output_record("enumerate", inputs, result, checks)).partition(_FAMILY_CUT)
                key = cert_key
            out.write(head + records.family_text(fam) + tail)
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    if args.n_max > SAFE_N_MAX:
        raise CliInputError(f"--n-max must be <= {SAFE_N_MAX} (documented safe bound)")
    if args.n_max < 4:
        raise CliInputError("--n-max must be >= 4")
    summary = run_sweep(args.n_max, cap=args.cap, max_word_len=args.max_word)
    inputs = {"n_max": args.n_max, "cap": args.cap, "max_word": args.max_word}
    checks = [
        check("zero_disagreements", not summary.disagreements, ""),
        check("zero_irreducibility_mismatches", not summary.irreducibility_mismatches, ""),
        check("zero_signature_mismatches", not summary.signature_mismatches, ""),
    ]
    out.write(dumps_record(output_record("sweep", inputs, records.sweep_dict(summary), checks)))
    return EXIT_OK if summary.clean else EXIT_INCONSISTENT


def cmd_shimura(args, out) -> int:
    if args.n_max < 5:
        raise CliInputError("--n-max must be >= 5")
    inputs = {"n_max": args.n_max}
    for n in filter(admissible_exists, range(5, args.n_max + 1)):
        fam = standard_family(n)
        count, candidate = shimura_count(fam.w)
        result = {"n": n, "m": list(fam.w.m), "count": count, "candidate": candidate}
        out.write(dumps_record(output_record("shimura", inputs, result, [])))
    return EXIT_OK


def cmd_oracle(args, out) -> int:
    w = _weights(WeightTuple, args.n, args.m)
    j = args.j % w.n
    if j == 0:
        raise CliInputError("character index j must be nonzero mod n")
    triple = triple_from_weights(w, j)
    reducible = has_common_eigenvector(triple)
    if reducible == is_irreducible(w, j):
        raise InternalInconsistencyError(f"oracle and criterion disagree on reducibility at j={j}, m={w.m}, n={w.n}")
    if reducible:
        raise CliInputError(f"character j={j} is reducible for m={w.m} mod {w.n}")
    form, sig = invariant_hermitian_form(triple)
    closure = group_closure(triple, args.cap, args.max_word)
    criterion = finiteness_by_signature(w, j)
    inputs = {"n": w.n, "m": list(w.m), "j": j, "cap": args.cap, "max_word": args.max_word}
    result = {
        "level": triple.level,
        "traces": {
            name: records.cyclotomic_dict(mat_trace(g)) for name, g in triple.generators()
        },
        "determinants": {
            name: records.cyclotomic_dict(mat_det(g)) for name, g in triple.generators()
        },
        "invariant_form": records.matrix_dict(form),
        "signature": list(sig),
        "closure": records.verdict_dict(closure),
        "criterion": records.verdict_dict(criterion),
    }
    agree = agreement(criterion.kind, closure.kind)
    eigen_sig = eigen_signature(w, j)
    checks = [
        check("criterion_oracle_agree", agree is not False, f"{criterion.kind} vs {closure.kind}"),
        check("signature_matches_eigenspace", sig == eigen_sig, f"form {sig}, eigenspace {eigen_sig}"),
    ]
    out.write(dumps_record(output_record("oracle", inputs, result, checks)))
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_INCONSISTENT


_COMMANDS = {
    "analyze": cmd_analyze,
    "certify": cmd_certify,
    "enumerate": cmd_enumerate,
    "sweep": cmd_sweep,
    "shimura": cmd_shimura,
    "oracle": cmd_oracle,
}


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.schema:
            out.write(dumps_record(records.JSON_SCHEMA))
            return EXIT_OK
        if args.cmd is None:
            raise CliInputError("a command is required (analyze, certify, enumerate, sweep, shimura, oracle)")
        if min(getattr(args, "cap", 1), getattr(args, "max_word", 1)) < 1:
            raise CliInputError("--cap and --max-word must be >= 1")
        return _COMMANDS[args.cmd](args, out)
    except CliInputError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT
    except (InternalInconsistencyError, ValueError, ZeroDivisionError) as exc:
        err.write(f"error: internal: {exc}\n")
        return EXIT_INCONSISTENT


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the run quietly, as for other Unix filters
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
