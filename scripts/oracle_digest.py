"""Digest every `oracle` call over 4 <= n <= 12 and compare it with the pinned value.

usage: python3 scripts/oracle_digest.py

For each n, each weight tuple of `iter_weight_tuples(n)` and each character
j = 1..n-1, runs `oracle -n N -m M -j J` in process through `cli.main` and
feeds f"{code}\\n{out}{err}" to one sha256 (4489 calls).  Prints the call
count and the hex digest on stdout and the wall time of the calls on
stderr, and exits 0 when both equal the pinned values, 1 otherwise.  A change that must keep the oracle's output byte-identical
runs this at both commits.  Uses the standard library only, besides the
package itself, which it imports from src/.
"""

from __future__ import annotations

import hashlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fujitacert import cli  # noqa: E402
from fujitacert.eigenspace import iter_weight_tuples  # noqa: E402

PINNED_CALLS = 4489
PINNED_DIGEST = "c0faea6ab701472abb7a4ccb4d9f5f40e004ad00f4388b7b17c9f524a7a3752d"


def oracle_digest(n_min: int = 4, n_max: int = 12) -> tuple[int, str]:
    """(calls, sha256 hex) over every oracle call with n_min <= n <= n_max."""
    digest, calls = hashlib.sha256(), 0
    for n in range(n_min, n_max + 1):
        for w in iter_weight_tuples(n):
            m = ",".join(map(str, w.m))
            for j in range(1, n):
                out, err = io.StringIO(), io.StringIO()
                code = cli.main(["oracle", "-n", str(n), "-m", m, "-j", str(j)], out=out, err=err)
                digest.update(f"{code}\n{out.getvalue()}{err.getvalue()}".encode())
                calls += 1
    return calls, digest.hexdigest()


def main() -> int:
    start = time.perf_counter()
    calls, digest = oracle_digest()
    print(f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
    print(calls, digest)
    return 0 if (calls, digest) == (PINNED_CALLS, PINNED_DIGEST) else 1


if __name__ == "__main__":
    sys.exit(main())
