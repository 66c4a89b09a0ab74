import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fujitacert import cli, cyclotomic, monodromy, records
from fujitacert.eigenspace import ResidueWeights, WeightTuple, eigenspace_table, iter_weight_tuples, sigma_table
from fujitacert.monodromy import Finiteness, FinitenessVerdict
from fujitacert.residues import InternalInconsistencyError
from fujitacert.surfaces import standard_family
from fujitacert.sweep import SweepSummary

_SPEC = importlib.util.spec_from_file_location(
    "oracle_digest", Path(__file__).resolve().parent.parent / "scripts" / "oracle_digest.py"
)
oracle_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle_digest)


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# analyze


def test_analyze_table():
    code, out, _ = run_cli(["analyze", "-n", "5", "-m", "1,1,1,2"])
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == records.SCHEMA_VERSION
    classes = [row["split_class"] for row in record["result"]["table"]]
    assert classes == ["ZERO", "AMPLE_CANDIDATE", "AMPLE_CANDIDATE", "FLAT"]
    assert all(c["passed"] for c in record["checks"])


def test_analyze_rejects_bad_sum():
    code, out, err = run_cli(["analyze", "-n", "5", "-m", "1,1,1,3"])
    assert code == 1
    assert out == ""
    assert "weights must sum to n" in err


def test_analyze_relaxed_residue_system():
    code, out, _ = run_cli(["analyze", "-n", "8", "-m", "4,4,3,5", "-j", "1"])
    assert code == 0
    row = json.loads(out)["result"]["table"][0]
    assert row["sigma"] == 16
    assert row["mu"] == ["1/2", "1/2", "3/8", "5/8"]


@pytest.mark.parametrize(
    "n, spellings",
    [
        (8, ("2,2,2,2", "10,2,2,2", "2,-6,2,2")),
        (6, ("0,1,2,3", "6,1,2,3")),
        (12, ("3,4,6,11", "15,4,-6,11")),
        (5, ("1,1,1,2", "6,1,1,2")),  # a strict tuple and a respelling of it
    ],
)
@pytest.mark.parametrize("j", [None, "1"])
def test_analyze_depends_only_on_the_residues(n, spellings, j):
    echoed = set()
    for m in spellings:
        code, out, err = run_cli(["analyze", "-n", str(n), "-m", m] + (["-j", j] if j else []))
        assert (code, err) == (0, "")
        record = json.loads(out)
        echoed.add(json.dumps([record["inputs"], record["result"], record["checks"]]))
    assert len(echoed) == 1


@pytest.mark.parametrize(
    "argv",
    [["certify", "-n", "7", "-m", "1,1,1,11", "--nw", "1,1,5"], ["oracle", "-n", "7", "-m", "8,1,1,4", "-j", "1"]],
)
def test_strict_commands_check_the_exponents_as_given(argv):
    # both reduce mod 7 to a valid tuple, but the strict checks read the raw exponents
    code, out, err = run_cli(argv)
    m = argv[argv.index("-m") + 1].replace(",", ", ")
    assert (code, out, err) == (1, "", f"error: weights must sum to n: sum({m}) = 14 != 7\n")


@pytest.mark.parametrize(
    "n, m",
    [(5, "1,1,1,2"), (6, "1,2,2,1"), (8, "4,4,3,5"), (12, "3,4,6,11"), (12, "1,2,3,6"), (6, "0,1,2,3"), (101, "2,3,5,91")],
)
def test_analyze_rows_with_and_without_j_agree(n, m):
    code, out, _ = run_cli(["analyze", "-n", str(n), "-m", m])
    assert code == 0
    table = json.loads(out)["result"]["table"]
    for j in range(1, n):
        code, out, _ = run_cli(["analyze", "-n", str(n), "-m", m, "-j", str(j)])
        assert code == 0
        (row,) = json.loads(out)["result"]["table"]
        assert len(row.pop("mu")) == 4
        assert row == table[j - 1]


def test_analyze_rejects_character_zero():
    code, _, err = run_cli(["analyze", "-n", "5", "-m", "1,1,1,2", "-j", "5"])
    assert code == 1 and "nonzero" in err


def test_analyze_rejects_malformed_list():
    code, _, err = run_cli(["analyze", "-n", "5", "-m", "1,1,x,2"])
    assert code == 1 and "comma-separated" in err


# ---------------------------------------------------------------------------
# certify


def test_certify_counterexample_exit0():
    code, out, _ = run_cli(["certify", "-n", "5", "-m", "1,1,1,2", "--nw", "1,1,3"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["verdict"] == "COUNTEREXAMPLE"
    assert record["result"]["invariants"]["slope"] == "3/1"
    assert record["result"]["invariants"]["slope_decimal"] == "3.000000"
    assert record["result"]["infinite_witness"] == {"j_star": 3, "unit": 2, "sigma": 10}
    assert "not reproducible at desk scale" in record["result"]["prose"]


def test_certify_not_certified_exit3():
    code, out, _ = run_cli(["certify", "-n", "9", "-m", "1,1,1,6", "--nw", "1,1,7"])
    assert code == 3
    record = json.loads(out)
    assert record["result"]["verdict"] == "NOT_CERTIFIED"
    assert "gcd" in record["result"]["not_certified_reason"]


def test_certify_with_oracle_check():
    code, out, _ = run_cli(
        ["certify", "-n", "5", "-m", "1,1,1,2", "--nw", "1,1,3", "--oracle"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"]["oracle"] == {
        "criterion": "INFINITE",
        "closure": "INFINITE",
        "agreement": True,
    }
    assert {
        "name": "oracle_agrees",
        "passed": True,
        "details": "criterion INFINITE, closure INFINITE",
    } in record["checks"]


def test_certify_invalid_input_exit1():
    code, _, err = run_cli(["certify", "-n", "5", "-m", "1,1,1,2", "--nw", "1,1,4"])
    assert code == 1 and "sum" in err


def test_certify_oracle_disagreement_exit2(monkeypatch):
    # forced disagreement: the closure oracle is patched to report FINITE
    monkeypatch.setattr(
        "fujitacert.certify.group_closure",
        lambda *a, **k: FinitenessVerdict(Finiteness.FINITE, order=1),
    )
    code, out, _ = run_cli(
        ["certify", "-n", "5", "-m", "1,1,1,2", "--nw", "1,1,3", "--oracle"]
    )
    assert code == 2
    record = json.loads(out)
    assert record["result"]["oracle"]["agreement"] is False


def _witness_check(cert):
    return next(c for c in cli._certificate_checks(cert) if c["name"] == "infinite_witness_valid")


def test_certify_witness_check_rejects_each_altered_field():
    from fujitacert.certify import certify

    cert = certify(standard_family(7))
    witness = cert.infinite_witness
    assert _witness_check(cert) == {
        "name": "infinite_witness_valid",
        "passed": True,
        "details": "witness character has sigma = 2n",
    }
    for field, value in (
        ("sigma", 3 * 7),
        ("unit", witness.unit + 1),
        ("j_star", witness.j_star + 1),
    ):
        altered = dataclasses.replace(cert, infinite_witness=dataclasses.replace(witness, **{field: value}))
        assert _witness_check(altered)["passed"] is False, field


def test_certify_internal_inconsistency_exit2(monkeypatch):
    from fujitacert import monodromy
    from fujitacert.eigenspace import WeightTuple
    from fujitacert.residues import InternalInconsistencyError

    monkeypatch.setattr(monodromy, "sigma_sum", lambda w, j: w.n)
    with pytest.raises(InternalInconsistencyError):
        monodromy.find_infinite_character(WeightTuple(7, (1, 1, 1, 4)))
    code, out, err = run_cli(["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: internal: ")


ORACLE_ARGV = ["oracle", "-n", "5", "-m", "1,1,1,2", "-j", "1"]
_W4_TRIPLE = monodromy.triple_from_weights(WeightTuple(4, (1, 1, 1, 1)), 1)
_GINF_INVERSE = monodromy.mat_mul(_W4_TRIPLE.g0, _W4_TRIPLE.g1)


def _det_not_a_root_on_ginf_inverse(m, mat_det=monodromy.mat_det):
    """mat_det, but twice it on ginf^-1 of the W4 triple: a letter the short phase does not test,
    as its inverse letter ginf comes first, so only the class walk's lookup meets it."""
    return mat_det(m) * 2 if m == _GINF_INVERSE else mat_det(m)


@pytest.mark.parametrize(
    "owner, attr, value, argv, error",
    [
        (cyclotomic, "_SIGN_DPS_LADDER", (), ORACLE_ARGV, cyclotomic.SignUndecidableError),
        (
            cyclotomic.CyclotomicNumber,
            "is_real",
            lambda self: False,
            ORACLE_ARGV,
            cyclotomic.NonRealElementError,
        ),
        (monodromy, "_invariant_line", lambda t: None, ORACLE_ARGV, monodromy.ReducibleNoUniqueFormError),
        (
            monodromy,
            "is_irreducible",
            lambda w, j: False,
            ["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5", "--oracle"],
            monodromy.IrreducibilityRequiredError,
        ),
        # the oracle contradicts the criterion: reducible where it finds none, and the reverse
        (cli, "has_common_eigenvector", lambda t: True, ORACLE_ARGV, InternalInconsistencyError),
        (
            cli,
            "has_common_eigenvector",
            lambda t: False,
            ["oracle", "-n", "6", "-m", "1,2,2,1", "-j", "3"],
            InternalInconsistencyError,
        ),
        # a FINITE closure reaches the class walk, which looks up every letter's determinant
        (
            monodromy,
            "mat_det",
            _det_not_a_root_on_ginf_inverse,
            ["oracle", "-n", "4", "-m", "1,1,1,1", "-j", "1"],
            InternalInconsistencyError,
        ),
        # a zero determinant: the form is degenerate, which no irreducible triple's form is
        (monodromy, "real_sign", lambda x: 0, ORACLE_ARGV, monodromy.ReducibleNoUniqueFormError),
    ],
)
def test_internal_errors_exit2(monkeypatch, owner, attr, value, argv, error):
    # an infinite float band sends every real sign to the interval ladder, the step that can run out
    monkeypatch.setattr(cyclotomic, "float_error_bound", lambda x: float("inf"))
    monkeypatch.setattr(owner, attr, value)
    assert issubclass(error, InternalInconsistencyError)
    with pytest.raises(error):
        cli._COMMANDS[argv[0]](cli.build_parser().parse_args(argv), io.StringIO())
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: internal: ")


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
def test_library_error_deep_in_certify_exits2(monkeypatch, error):
    def broken(w, j):
        raise error("injected")

    # the package exports the certify function under the module's name
    monkeypatch.setattr(sys.modules["fujitacert.certify"], "sigma_sum", broken)
    argv = ["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5"]
    with pytest.raises(error):
        cli._COMMANDS[argv[0]](cli.build_parser().parse_args(argv), io.StringIO())
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == "error: internal: injected\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5", "--oracle"],
        ["oracle", "-n", "5", "-m", "1,1,1,2", "-j", "1"],
        ["sweep", "--n-max", "6"],
    ],
)
@pytest.mark.parametrize("flag", ["--cap", "--max-word"])
def test_closure_bounds_below_one_exit1(argv, flag):
    for value in ("0", "-1"):
        code, out, err = run_cli(argv + [flag, value])
        assert code == 1
        assert out == ""
        assert err == "error: --cap and --max-word must be >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5", "--oracle"],
        ["oracle", "-n", "5", "-m", "1,1,1,2", "-j", "1"],
        ["oracle", "-n", "10", "-m", "1,3,3,3", "-j", "1"],  # FINITE, order 600: the class walk runs
        ["oracle", "-n", "6", "-m", "1,1,1,3", "-j", "3"],  # qx = 1: the form is ((0, conj(s)), (s, 0))
        ["enumerate", "--n-min", "5", "--n-max", "7", "--all", "--normalize"],
        ["oracle", "-n", "5", "-m", "1,1,1,2", "-j", "2"],  # indefinite, qx != 1
        ["enumerate", "--n-min", "11", "--n-max", "11", "--all"],  # 120 m, up to 45 families sharing one text
        ["enumerate", "--n-min", "13", "--n-max", "13", "--all", "--normalize"],  # weight claims shared per m
        ["certify", "-n", "91", "-m", "5,4,46,36", "--nw", "46,44,1", "--oracle"],  # composite, folded rows
        ["certify", "-n", "97", "-m", "7,9,22,59", "--nw", "6,62,29", "--oracle"],  # prime, one dense row
    ],
)
def test_output_unchanged_under_python_O(argv):
    import fujitacert

    env = dict(os.environ, PYTHONPATH=str(Path(fujitacert.__file__).parents[1]))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "fujitacert.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        for flags in ([], ["-O"])
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def test_package_root_holds_only_zeta():
    # every name is imported from its module; the root keeps zeta for the benchmark's level warm-up
    import types

    import fujitacert

    public = {k for k, v in vars(fujitacert).items() if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == {"zeta"}
    env = dict(os.environ, PYTHONPATH=str(Path(fujitacert.__file__).parents[1]))
    argv = ["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5"]
    run = subprocess.run([sys.executable, "-m", "fujitacert.cli", *argv], env=env, capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_entrypoint_quietly():
    # a reader that stops early, as `| head` does: no BrokenPipeError traceback and not exit 1 (bad input)
    import fujitacert

    env = dict(os.environ, PYTHONPATH=str(Path(fujitacert.__file__).parents[1]))
    argv = ["enumerate", "--n-min", "5", "--n-max", "40", "--all"]
    with subprocess.Popen(
        [sys.executable, "-m", "fujitacert.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline().startswith(b'{"schema_version"')
        proc.stdout.close()
        stderr = proc.stderr.read()
        returncode = proc.wait(timeout=120)
    assert stderr == b""
    assert returncode == -signal.SIGPIPE


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every self-check is an explicit raise
    import ast

    import fujitacert

    sources = sorted(Path(fujitacert.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_mpmath_is_imported_only_inside_real_sign():
    # no module body loads mpmath, so a run whose signs all fall outside the float band never does
    import ast

    import fujitacert

    found = []
    for path in sorted(Path(fujitacert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for node in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(map(id, ast.walk(node)), node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "mpmath" for module in modules):
                found.append((path.stem, owner.get(id(node))))
    assert found == [("cyclotomic", "real_sign")]


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_standard_stream():
    code, out, _ = run_cli(["enumerate", "--n-min", "5", "--n-max", "13", "--standard-only"])
    assert code == 0
    lines = parse_lines(out)
    assert [r["result"]["family"]["n"] for r in lines] == [5, 7, 11, 13]


def test_enumerate_gcd_filter():
    code, out, _ = run_cli(["enumerate", "--n-min", "6", "--n-max", "10", "--standard-only"])
    assert code == 0
    lines = parse_lines(out)
    assert len(lines) == 1 and lines[0]["result"]["family"]["n"] == 7


def test_enumerate_all_normalized():
    code, out, _ = run_cli(
        ["enumerate", "--n-min", "5", "--n-max", "5", "--all", "--normalize"]
    )
    assert code == 0
    assert len(parse_lines(out)) == 3


def test_enumerate_empty_stream():
    code, out, _ = run_cli(["enumerate", "--n-min", "9", "--n-max", "9", "--all"])
    assert code == 0 and out == ""


def test_enumerate_bad_range():
    code, _, err = run_cli(["enumerate", "--n-min", "10", "--n-max", "5"])
    assert code == 1
    code, out, err = run_cli(["enumerate", "--n-min", "4", "--n-max", "10"])
    assert (code, out, err) == (1, "", "error: need 5 <= --n-min <= --n-max\n")


# every flag combination of enumerate: standard-only is the default, and --normalize changes only --all
ENUMERATE_FLAG_ARGVS = [
    "enumerate --n-min 5 --n-max 13",
    "enumerate --n-min 5 --n-max 13 --standard-only",
    "enumerate --n-min 5 --n-max 13 --normalize",
    "enumerate --n-min 5 --n-max 13 --standard-only --normalize",
    "enumerate --n-min 8 --n-max 11 --all --normalize",
]
ENUMERATE_FLAGS_DIGEST = "6224eafd53a0cdf163b1a8831f0791ac245ca05ad9fe33b9cdf9594794cd54fa"


def test_enumerate_flag_combinations_digest_pinned():
    # exit code, stdout and stderr of each; a schema_version change must re-pin this digest
    digest = hashlib.sha256()
    for argv in ENUMERATE_FLAG_ARGVS:
        code, out, err = run_cli(argv.split())
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == ENUMERATE_FLAGS_DIGEST


# ---------------------------------------------------------------------------
# sweep


def test_sweep_small():
    code, out, _ = run_cli(["sweep", "--n-max", "6"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["disagreements"] == []
    assert record["result"]["agreements"] == record["result"]["finiteness_checked"]
    assert all(c["passed"] for c in record["checks"])


def test_sweep_small_cap_inconclusive_still_exit0():
    code, out, _ = run_cli(["sweep", "--n-max", "6", "--cap", "5"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["inconclusive"]


def test_sweep_bound_guard():
    code, _, err = run_cli(["sweep", "--n-max", "13"])
    assert code == 1 and "safe bound" in err


def test_sweep_disagreement_exit2(monkeypatch):
    fake = SweepSummary(
        n_min=4,
        n_max=6,
        cap=10,
        max_word_len=2,
        weight_tuples=1,
        characters=1,
        irreducibility_checked=1,
        irreducibility_mismatches=(),
        finiteness_checked=1,
        agreements=0,
        disagreements=((5, (1, 1, 1, 2), 1, Finiteness.FINITE, Finiteness.INFINITE),),
        inconclusive=(),
        signature_checked=1,
        signature_mismatches=(),
    )
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: fake)
    code, out, _ = run_cli(["sweep", "--n-max", "6"])
    assert code == 2
    record = json.loads(out)
    assert record["result"]["disagreements"] == [[5, [1, 1, 1, 2], 1, "FINITE", "INFINITE"]]


SWEEP_DIGEST_N8 = "9c7535e33f3975a9404bfe1fc5ffff68a58ddf03c82316d310949074d6eae92f"


def test_sweep_output_digest_pinned():
    # stdout of the default-limit sweep over 4 <= n <= 8; a schema_version
    # change must re-pin this digest
    code, out, err = run_cli(["sweep", "--n-max", "8"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGEST_N8


ENUMERATE_DIGEST_N5_17 = "a6560eaf54d26f1d7a00c61b1a5cd428162d157290b2872657f20c11a05d0ba9"


def test_enumerate_normalize_output_digest_pinned():
    # stdout of the normalized census over 5 <= n <= 17 (805 records); a
    # schema_version change must re-pin this digest
    code, out, err = run_cli(["enumerate", "--n-min", "5", "--n-max", "17", "--all", "--normalize"])
    assert (code, err) == (0, "")
    assert out.count("\n") == 805
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGEST_N5_17


# ---------------------------------------------------------------------------
# shimura


def test_shimura_stream():
    code, out, _ = run_cli(["shimura", "--n-max", "13"])
    assert code == 0
    lines = parse_lines(out)
    by_n = {r["result"]["n"]: r["result"] for r in lines}
    assert by_n[5]["count"] == 1 and by_n[5]["candidate"] is True
    assert by_n[7]["count"] == 1 and by_n[7]["candidate"] is True
    assert set(by_n) == {5, 7, 11, 13}


def test_shimura_empty():
    code, out, _ = run_cli(["shimura", "--n-max", "6"])
    assert code == 0
    assert [r["result"]["n"] for r in parse_lines(out)] == [5]


# ---------------------------------------------------------------------------
# oracle


def test_oracle_record():
    code, out, _ = run_cli(["oracle", "-n", "4", "-m", "1,1,1,1", "-j", "1"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["closure"]["kind"] == "FINITE"
    assert record["result"]["closure"]["order"] == 8
    assert record["result"]["signature"] == [0, 2]
    assert record["result"]["traces"]["ginf"]["coefficients"] == ["0/1", "0/1"]
    assert all(c["passed"] for c in record["checks"])


def test_oracle_inconclusive_closure_is_no_disagreement():
    code, out, _ = run_cli(["oracle", "-n", "4", "-m", "1,1,1,1", "-j", "1", "--cap", "1"])
    assert code == 0
    record = json.loads(out)
    assert record["result"]["closure"] == {"kind": "INCONCLUSIVE", "order": None, "witness": None, "cap": 1}
    assert record["result"]["criterion"]["kind"] == "FINITE"
    assert {"name": "criterion_oracle_agree", "passed": True, "details": "FINITE vs INCONCLUSIVE"} in record["checks"]


def test_oracle_rejects_reducible_character():
    code, _, err = run_cli(["oracle", "-n", "6", "-m", "1,2,2,1", "-j", "3"])
    assert code == 1 and "reducible" in err


ORACLE_DIGEST_N4_TO_8 = "7e6059dc420c00b6adf900cbf6847a4762b520f901b6c6f6df8be51a95fa90de"


def test_oracle_output_digest_pinned():
    # exit code, stdout and stderr of every (tuple, j) call for 4 <= n <= 8, by the
    # digest of scripts/oracle_digest.py; a schema_version change must re-pin this digest
    assert oracle_digest.oracle_digest(4, 8) == (427, ORACLE_DIGEST_N4_TO_8)


CERTIFY_ORACLE_LEVELS = (25, 49, 77, 89, 97)
CERTIFY_ORACLE_DIGEST = "f60388c9de2eea3f66ffb9ea0e1cb6eac3c83207ec2270e292771efd9be7de09"


def test_certify_oracle_large_levels_digest_pinned():
    # exit code and stdout of certify --oracle on the standard family at large levels,
    # where the closure's finite-order tests run on n up to 97; a schema_version
    # change must re-pin this digest
    digest = hashlib.sha256()
    for n in CERTIFY_ORACLE_LEVELS:
        f = standard_family(n)
        m, nw = (",".join(map(str, v)) for v in (f.w.m, f.base_weights))
        code, out, _ = run_cli(["certify", "-n", str(n), "-m", m, "--nw", nw, "--oracle"])
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CERTIFY_ORACLE_DIGEST


ORACLE_LARGE_LEVELS = tuple(n for n in range(25, 98) if n % 2 and n % 3)
ORACLE_LARGE_LEVELS_DIGEST = "77d9af74666a14fa2938e3c519714ea48701a5b25141d9755a0e0e6ea6e9198c"


def test_oracle_large_levels_digest_pinned():
    # exit code, stdout and stderr of oracle at the witness character of the standard family, for
    # each of the 25 admissible n in [25, 97]: its traces, determinants and invariant form are
    # power-basis coefficients made by Galois images, inverse_one_minus_root and the fold; a
    # schema_version change must re-pin this digest
    assert len(ORACLE_LARGE_LEVELS) == 25
    digest = hashlib.sha256()
    for n in ORACLE_LARGE_LEVELS:
        w = standard_family(n).w
        j = monodromy.find_infinite_character(w)
        code, out, err = run_cli(["oracle", "-n", str(n), "-m", ",".join(map(str, w.m)), "-j", str(j)])
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == ORACLE_LARGE_LEVELS_DIGEST


CERTIFY_ORACLE_THOUSANDS_DIGEST = "880dc6e9ca47e7c54fc90490ac4e637511f8a84b5ce5ff78b34e07b5fb3a5050"


def test_certify_oracle_thousands_digest_pinned():
    # exit code and stdout of certify --oracle on the standard family at n = 1001 = 7*11*13
    # and the prime n = 1009, where the reduction rows differ most between composite and
    # prime levels; a schema_version change must re-pin this digest
    digest = hashlib.sha256()
    for n in (1001, 1009):
        f = standard_family(n)
        m, nw = (",".join(map(str, v)) for v in (f.w.m, f.base_weights))
        code, out, _ = run_cli(["certify", "-n", str(n), "-m", m, "--nw", nw, "--oracle"])
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CERTIFY_ORACLE_THOUSANDS_DIGEST


CERTIFY_ORACLE_4001_DIGEST = "352bb11a39d64b55af8e6f1ac3728ec0664943a189754a83eb6d3ab13f858d82"


def test_certify_oracle_4001_digest_pinned():
    # exit code and stdout of certify --oracle on the standard family at the prime n = 4001, one
    # level in the thousands the term-sparse kernels keep within the suite's budget; a
    # schema_version change must re-pin this digest
    f = standard_family(4001)
    m, nw = (",".join(map(str, v)) for v in (f.w.m, f.base_weights))
    code, out, _ = run_cli(["certify", "-n", "4001", "-m", m, "--nw", nw, "--oracle"])
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == CERTIFY_ORACLE_4001_DIGEST


AFFECTED_ARGVS = [
    "certify -n 1009 -m 1,1,1,1006 --nw 1,1,1007",
    "certify -n 10007 -m 1,1,1,10004 --nw 1,1,10005",
    "certify -n 1009 -m 2,3,5,999 --nw 1,2,1006",
    "analyze -n 1009 -m 1,2,3,1003",
    "analyze -n 12 -m 3,4,6,11",
    "analyze -n 12 -m 1,2,3,6",
    "enumerate --n-min 5 --n-max 11 --all",
    "shimura --n-max 200",
]
AFFECTED_DIGEST = "0010eae27ddb1049b87c87b085b63ce5b902811902b887d6f60036f55caa765e"


def test_splitting_output_digest_pinned():
    # exit code, stdout and stderr of the commands that read the per-character
    # splitting, at large n and with degenerate characters; a schema_version
    # change must re-pin this digest
    digest = hashlib.sha256()
    for argv in AFFECTED_ARGVS:
        code, out, err = run_cli(argv.split())
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == AFFECTED_DIGEST


# 10006 = 2 * 5003: j = 5003 is its own mirror n - j, sigma 2n when every m_i is odd
# and degenerate when some m_i is even; argv -> whether j = 5003 is degenerate
MIRROR_FIXED_POINT_CASES = {"analyze -n 10006 -m 1,1,1,10003": False, "analyze -n 10006 -m 2,3,5,9996": True}
MIRROR_FIXED_POINT_DIGEST = "576cc31507dc8b85cac0f8b1ff89ce2ddd0d361c5cddc1ec211ee9957f4bfaf2"


def test_analyze_even_level_digest_pinned():
    # exit code, stdout and stderr of analyze at an even level, in both cases of its
    # self-mirrored character; a schema_version change must re-pin this digest
    digest = hashlib.sha256()
    for argv, degenerate in MIRROR_FIXED_POINT_CASES.items():
        code, out, err = run_cli(argv.split())
        row = json.loads(out)["result"]["table"][5002]
        assert (row["j"], row["degenerate"]) == (5003, degenerate), argv
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == MIRROR_FIXED_POINT_DIGEST


# (argv, records, sha256 of stdout): the levels where most records share their text with the one before
SHARED_TEXT_DIGESTS = [
    ("enumerate --n-min 23 --n-max 31 --all --normalize", 8524, "d67caa2ed5d387d749ececee4192887c2ab69d0ef77902171bab6ca3a0981278"),
    ("enumerate --n-min 5 --n-max 13 --all", 20244, "d4de2e15f8cf900a3aca1b3dd6986aea10d8f7e725f97646916ef12135d3c973"),
]


@pytest.mark.parametrize("argv, count, digest", SHARED_TEXT_DIGESTS, ids=["23-31-normalize", "5-13-all"])
def test_enumerate_shared_text_output_digest_pinned(argv, count, digest):
    # pinned from records each encoded whole; a schema_version change must re-pin these digests
    code, out, err = run_cli(argv.split())
    assert (code, err) == (0, "")
    assert out.count("\n") == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_internal_inconsistency_exit2(monkeypatch):
    monkeypatch.setattr(
        cli, "group_closure", lambda *a, **k: FinitenessVerdict(Finiteness.FINITE, order=1)
    )
    code, out, _ = run_cli(["oracle", "-n", "5", "-m", "1,1,1,2", "-j", "1"])
    assert code == 2
    record = json.loads(out)
    assert not all(c["passed"] for c in record["checks"])


def test_enumerate_writes_each_record_before_the_next_certify(monkeypatch):
    original = cli.certify
    out = io.StringIO()
    records_before = []

    def spy(f, **kwargs):
        records_before.append(out.getvalue().count("\n"))
        return original(f, **kwargs)

    monkeypatch.setattr(cli, "certify", spy)
    argv = ["enumerate", "--n-min", "5", "--n-max", "5", "--all", "--normalize"]
    assert cli.main(argv, out=out, err=io.StringIO()) == 0
    assert records_before == [0, 1, 2]


# ---------------------------------------------------------------------------
# schema, help, determinism


def test_schema_output():
    code, out, _ = run_cli(["--schema"])
    assert code == 0
    schema = json.loads(out)
    assert schema["exit_codes"]["3"] == "not certified"
    assert "analyze" in schema["results"]


@pytest.mark.parametrize(
    "entry, argv",
    [
        ("analyze", ["analyze", "-n", "5", "-m", "1,1,1,2", "-j", "1"]),
        ("certify", ["certify", "-n", "5", "-m", "1,1,1,2", "--nw", "1,1,3", "--oracle"]),
        ("certify", ["enumerate", "--n-min", "5", "--n-max", "7", "--all", "--normalize"]),
        ("sweep", ["sweep", "--n-max", "5"]),
        ("shimura", ["shimura", "--n-max", "11"]),
        ("oracle", ORACLE_ARGV),
    ],
)
def test_emitted_keys_match_schema(entry, argv):
    code, out, _ = run_cli(argv)
    assert code == 0
    schema = records.JSON_SCHEMA
    lines = parse_lines(out)
    assert lines
    for record in lines:
        assert record["schema_version"] == schema["schema_version"]
        assert list(record) == list(schema["record"])
        assert set(record["result"]) == set(schema["results"][entry])
        for row in record["result"].get("table", []):
            assert set(row) == set(schema["results"]["analyze"]["table"][0])
        assert set(_verdict_kinds(entry, record["result"])) <= {kind.value for kind in Finiteness}


def _verdict_kinds(entry, result):
    """Every finiteness verdict kind a result prints."""
    if entry == "oracle":
        return [result["closure"]["kind"], result["criterion"]["kind"]]
    if entry == "certify" and result["oracle"] is not None:
        return [result["oracle"]["criterion"], result["oracle"]["closure"]]
    if entry == "sweep":
        return [kind for row in result["disagreements"] for kind in row[3:]]
    return []


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_gives_first_call_output():
    argvs = [
        ["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5", "--oracle"],
        ["oracle", "-n", "5", "-m", "1,1,1,2", "-j", "1", "--cap", "30"],
        ["--schema"],
    ]
    first = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        first.append(run_cli(argv))
    cli.build_parser.cache_clear()
    # one error raised inside the subparser, one after parsing
    for bad in (argvs[0][:-1] + ["--cap", "x"], ["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1"]):
        code, out, err = run_cli(bad)
        assert (code, out) == (1, "") and err.startswith("error: ")
    assert [run_cli(argv) for argv in argvs] == first
    assert [c for c, _, _ in first] == [0, 0, 0]


def test_no_command_is_invalid_input():
    code, _, err = run_cli([])
    assert code == 1 and "command is required" in err


def test_unknown_command_is_invalid_input():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 1


def test_output_is_deterministic():
    for argv in (
        ["analyze", "-n", "7", "-m", "1,1,1,4"],
        ["certify", "-n", "7", "-m", "1,1,1,4", "--nw", "1,1,5"],
        ["enumerate", "--n-min", "5", "--n-max", "7", "--all", "--normalize"],
        ["shimura", "--n-max", "11"],
    ):
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second


def test_records_roundtrip():
    for argv in (
        ["analyze", "-n", "5", "-m", "1,1,1,2"],
        ["certify", "-n", "5", "-m", "1,1,1,2", "--nw", "1,1,3"],
        ["--schema"],
    ):
        _, out, _ = run_cli(argv)
        for line in out.splitlines():
            record = json.loads(line)
            assert json.loads(records.dumps_record(record)) == record
        assert out.endswith("\n")


def _splitting_rows_reference(w):
    # the row dicts the splitting's entries were written as before their rows were encoded from sigma
    return [
        {
            "j": e.j,
            "dim_Vj": e.dim_h10 or 0,
            "split_class": e.split_class.value if e.split_class else None,
            "degenerate": e.degenerate,
        }
        for e in eigenspace_table(w)
    ]


def _analyze_rows_reference(w):
    # the row dicts analyze wrote for its table before its rows were encoded from sigma
    return [
        {
            "j": e.j,
            "degenerate": e.degenerate,
            "sigma": e.sigma if not e.degenerate else None,
            "dim_h10": e.dim_h10,
            "dim_h01": e.dim_h01,
            "signature": [e.dim_h10, e.dim_h01] if not e.degenerate else None,
            "split_class": e.split_class.value if e.split_class else None,
        }
        for e in eigenspace_table(w)
    ]


ENCODER_WEIGHTS = [w for n in range(4, 14) for w in iter_weight_tuples(n)] + [
    ResidueWeights(12, (1, 2, 3, 6)),
    ResidueWeights(12, (3, 4, 6, 11)),
    ResidueWeights(6, (0, 1, 2, 3)),
    ResidueWeights(8, (4, 4, 3, 5)),
    WeightTuple(1000, (1, 2, 3, 994)),
    WeightTuple(1009, (1, 1, 1, 1006)),
    WeightTuple(1009, (2, 3, 5, 999)),
    WeightTuple(10007, (1, 1, 1, 10004)),
]


@pytest.mark.parametrize(
    "row_dict, reference",
    [(records.splitting_row_dict, _splitting_rows_reference), (records.eigenspace_report_dict, _analyze_rows_reference)],
)
def test_character_rows_match_row_dicts(row_dict, reference):
    degenerate = 0
    for w in ENCODER_WEIGHTS:
        table = sigma_table(w)
        rows = records.character_rows(table, row_dict)
        expected = reference(w)
        assert rows.text == json.dumps(expected, ensure_ascii=False), w
        record = {"n": w.n, "table": rows, "after": [rows, None]}
        assert records.dumps_record(record) == json.dumps({"n": w.n, "table": expected, "after": [expected, None]}, ensure_ascii=False) + "\n"
        degenerate += 0 in table
    assert degenerate > 0


@pytest.mark.parametrize("value", [object(), {1, 2}, Fraction(1, 2), Finiteness, records.CharacterRows])
def test_dumps_record_rejects_other_objects(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        records.dumps_record({"rows": records.character_rows([4, 8, 12], records.splitting_row_dict), "x": value})


def test_dumps_record_refuses_a_string_spelling_the_rows_placeholder():
    rows = records.character_rows([4, 8, 12], records.splitting_row_dict)
    for record in ({"s": "\0rows\0"}, {"s": "\0rows\0", "rows": rows}):
        with pytest.raises(InternalInconsistencyError):
            records.dumps_record(record)


def test_rational_and_decimal_strings():
    assert records.rational_str(Fraction(45, 15)) == "3/1"
    assert records.rational_str(Fraction(-4, 6)) == "-2/3"
    assert records.decimal_str(Fraction(5, 2)) == "2.500000"
    assert records.decimal_str(Fraction(125, 43)) == "2.906976"
