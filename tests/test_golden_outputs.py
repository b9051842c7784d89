"""Byte-for-byte guard on CLI output.

The files under ``tests/data/`` hold the stdout of ``python -m
spherecover.cli``.  The space-form files were recorded from the plain
exact arithmetic, before its fast paths: sparse canonical keys,
one-conductor ``product_sum``, same-conductor ``==``, and SO(4)
representatives read from the Spin pair.  The cyclic(1001, 2) file, at
conductor 4004, was recorded while Phi_n was still made by dividing
x^n - 1 by Phi_d for every proper divisor d, before the Moebius product
of binomials.  The knot files were recorded while the cover group was
still closed by products in the regular group of the coset table, before
it was read off the table's columns.  No fast
path may change a printed byte or an exit code.  The orbit files were
recorded while the profile was still evaluated with numpy and the
geodesics by quadrature.  The ``knot gen`` files were recorded while the
diagram check still walked the edge successors, found arcs by union-find
and validated every crossing choice of a DT code, and while the assembler
of generated diagrams still labelled their crossing slots in two passes.
The T(2,31) file was recorded while the determinant was still a dense
elimination of the 31-crossing matrix, before it was read off the Fox
matrix of the Tietze-reduced presentation.  The T(2,999) file at coset
cap 100 was recorded while that Fox matrix, 936 x 936, was still
eliminated on dense rows.
One knot file, T(3,5) at coset cap 200, records an intended change: the
enumeration over the cosets of one meridian completes below that cap,
where the regular enumeration peaked above it and reported
``infinite_or_unknown``.
The knot files were re-recorded for the ``cover-report/2`` schema, which
dropped the report's consistency key and the violations summary line of
``corpus run``: they are the ``cover-report/1`` bytes without those, and
with the schema tag bumped.  The table and csv files of ``corpus run``
were first recorded from the ``cover-report/1`` code and re-recorded the
same way, dropping the last column.
"""

import os
import subprocess
import sys

import pytest

from spherecover.config import ENV_CONFIG

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def assert_output_is_golden(argv, golden, code):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(ENV_CONFIG, None)  # the default config, whatever the caller's shell sets
    done = subprocess.run(
        [sys.executable, "-m", "spherecover.cli", *argv], env=env, capture_output=True
    )
    with open(os.path.join(TESTS, "data", golden), "rb") as fh:
        expected = fh.read()
    assert done.returncode == code, done.stderr.decode(errors="replace")
    assert done.stdout == expected


@pytest.mark.parametrize(
    "argv, golden, code",
    [
        (["spaceform", "sweep"], "spaceform_sweep.txt", 0),
        (["spaceform", "sweep", "--format", "json"], "spaceform_sweep.json", 0),
        (["spaceform", "verify", "icosahedral", "--m", "1"], "spaceform_verify_icosahedral_1.txt", 0),
        (
            ["spaceform", "verify", "tetrahedral", "--m", "7", "--k", "2"],
            "spaceform_verify_tetrahedral_7_2.txt",
            0,
        ),
        # conductor 4004: Phi_4004 of degree 1440, a 562-row power table
        (
            ["spaceform", "verify", "cyclic", "--m", "1001", "--p", "2"],
            "spaceform_verify_cyclic_1001_2.txt",
            0,
        ),
    ],
    ids=[
        "sweep-table",
        "sweep-json",
        "verify-icosahedral-1",
        "verify-tetrahedral-7-2",
        "verify-cyclic-1001-2",
    ],
)
def test_spaceform_output_is_byte_identical(argv, golden, code):
    assert_output_is_golden(argv, golden, code)


@pytest.mark.parametrize(
    "argv, golden, code",
    [
        (["corpus", "run", "--format", "json"], "corpus_run.json", 0),
        (["corpus", "run"], "corpus_run.txt", 0),
        (["corpus", "run", "--format", "csv"], "corpus_run.csv", 0),
        (["knot", "analyze", "--torus", "3", "5", "--format", "json"], "knot_analyze_torus_3_5.json", 0),
        (
            ["knot", "analyze", "--braid", "strands=4 2 2 1 2 1 2 1 2 1 2 1 -2 -3",
             "--name", "torus(3,5)", "--format", "json"],
            "knot_analyze_torus_3_5.json",
            0,
        ),
        (["knot", "analyze", "--torus", "2", "31", "--format", "json"], "knot_analyze_torus_2_31.json", 0),
        # completes below cap 200 only over the cosets of one meridian
        (
            ["knot", "analyze", "--torus", "3", "5", "--coset-cap", "200", "--format", "json"],
            "knot_analyze_torus_3_5_cap_200.json",
            0,
        ),
        # 999 crossings, 937 generators left by the Tietze pass
        (
            ["knot", "analyze", "--torus", "2", "999", "--coset-cap", "100", "--format", "json"],
            "knot_analyze_torus_2_999_cap_100.json",
            0,
        ),
    ],
    ids=[
        "corpus-run-json",
        "corpus-run-table",
        "corpus-run-csv",
        "analyze-torus-3-5-json",
        "analyze-markov-torus-3-5-json",
        "analyze-torus-2-31-json",
        "analyze-torus-3-5-cap-200-json",
        "analyze-torus-2-999-cap-100-json",
    ],
)
def test_knot_output_is_byte_identical(argv, golden, code):
    assert_output_is_golden(argv, golden, code)


@pytest.mark.parametrize(
    "argv, golden, code",
    [
        (["orbit", "profile", "2", "1", "--points", "200"], "orbit_profile_2_1.csv", 0),
        (["orbit", "compare", "--chain", "3", "2"], "orbit_compare_chain_3_2.txt", 0),
        (["orbit", "compare", "--chain", "5", "1"], "orbit_compare_chain_5_1.txt", 0),
    ],
    ids=["profile-2-1", "compare-chain-3-2", "compare-chain-5-1"],
)
def test_orbit_output_is_byte_identical(argv, golden, code):
    assert_output_is_golden(argv, golden, code)


KNOT_GEN = {
    "pd": (["--pd", "[(4,2,5,1),(8,6,1,5),(6,3,7,4),(2,7,3,8)]"], "knot_gen_pd_4_1.txt"),
    "dt-4-6-2": (["--dt", "4 6 2"], "knot_gen_dt_4_6_2.txt"),
    "dt-14-crossings": (
        ["--dt", "-26 -16 -18 -20 -22 -24 -28 -2 -4 -6 -8 -10 -12 -14"],
        "knot_gen_dt_14_crossings.txt",
    ),
    "braid": (["--braid", "strands=3 1 -2 1 -2"], "knot_gen_braid_4_1.txt"),
    "torus-3-5": (["--torus", "3", "5"], "knot_gen_torus_3_5.txt"),
    "two-bridge-15-4": (["--two-bridge", "15", "4"], "knot_gen_two_bridge_15_4.txt"),
    "montesinos": (["--montesinos", "e=-1; 1/3 2/5 1/7"], "knot_gen_montesinos.txt"),
}


@pytest.mark.parametrize("args, golden", KNOT_GEN.values(), ids=KNOT_GEN.keys())
def test_knot_gen_output_is_byte_identical(args, golden):
    assert_output_is_golden(["knot", "gen", *args], golden, 0)
