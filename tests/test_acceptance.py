"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Criteria 1-9 delegate to the named verification suites, which aggregate
the per-catalog-instance checks; criterion 10 exercises the CLI twice and
compares bytes.  Stated runtime budgets are asserted where they apply.
"""

import hashlib
import io
import time
from contextlib import redirect_stdout

from bfly.cli import main
from bfly.verify import run_suite

# sha256 of `bfly verify all --json`: every check's name, verdict and detail
VERIFY_ALL_SHA256 = "9c7460eb0879af9ff4b7074ac21353c73031c52c17714683966b25f60568da08"


def _run(suite: str, budget: float | None = None) -> None:
    start = time.perf_counter()
    results = run_suite(suite)
    elapsed = time.perf_counter() - start
    failed = [r for r in results if not r.passed]
    detail = "; ".join(f"{r.name}: {r.detail}" for r in failed)
    assert not failed, f"{len(failed)} checks failed: {detail}"
    if budget is not None:
        assert elapsed < budget, f"suite {suite} took {elapsed:.1f}s (budget {budget}s)"
    print(f"PASS {suite}: {len(results)} checks in {elapsed:.1f}s")


def test_criterion_01_oracle_ground_truth():
    # known cohomology orders and solver-vs-brute-force agreement, < 10 s
    _run("oracle", budget=10.0)


def test_criterion_02_pi0_h2_matches_second_cohomology():
    _run("h2-pi0")


def test_criterion_03_pi1_h2_matches_z1():
    _run("h2-pi1")


def test_criterion_04_butterfly_category_laws():
    # identities, associativity, beta functoriality/iso-invariance, < 60 s
    _run("butterfly-laws", budget=60.0)


def test_criterion_05_inverse_law():
    _run("inverse")


def test_criterion_06_phi_monoidal_equivalence():
    _run("phi")


def test_criterion_07_pushforward_cokernel_presentation():
    _run("pushforward-cokernel")


def test_criterion_08_opfibration_laws():
    _run("opfibration")


def test_criterion_09_characteristic_class_coherence():
    _run("class-coherence")


def test_criterion_10_determinism_and_runtime():
    outputs = []
    start = time.perf_counter()
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["verify", "all", "--json"])
        assert code == 0
        outputs.append(buf.getvalue())
    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1], "verify all --json is not byte-stable"
    digest = hashlib.sha256(outputs[0].encode()).hexdigest()
    assert digest == VERIFY_ALL_SHA256, "verify all --json changed its answers"
    assert elapsed / 2 < 300, f"verify all took {elapsed / 2:.0f}s on average"
    print(f"PASS determinism: two byte-identical runs, {elapsed / 2:.1f}s each")
