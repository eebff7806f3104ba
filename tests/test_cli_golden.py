"""The CLI's stdout, pinned byte for byte by its sha256.

The cases are the README's ``expand``, ``check`` and ``words`` commands,
expansions over rational and quadratic bases (terminating, cycling and
truncated), words with digits above 9 (the comma form), and the row
renderers of ``spectrum --full``, ``zerotemp`` and ``thermo`` in every
format, plus ``thermo`` on a shift that is not full (words with fewer
than m + 1 successors), words and the word graph at a depth whose word
keys pass int64, two commands of the benchmark's symbolic workload, and
its spectrum-deep, zerotemp-scan and thermo-gaps commands at seed 0.  Any change to the digit recursions, the solvers or the renderers
that moves one byte of output fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symbeta.cli import main

ROOT = Path(__file__).resolve().parents[1]

POT = "--potential digit_table:0.3,0,0.1,0.05"

CASES = [
    ("expand --m 1 --beta golden --a 1 --depth 20",
     "4e6a9317faaf04102fd4d7dc8b76846daf92debf846f04f9aa0d72793b4cf671"),
    ("check --m 2 --beta beta_T --depth 4",
     "674b3281a21dd750e6571ce22ffea9bb4accc151d01d07881d8b2bf7f66ba29a"),
    ("words --m 3 --beta 3.5 --depth 4 --format jsonl",
     "b552d59e1f574709dc7c007272eea59ace7355e5311b5c5526bd055e73ed21a3"),
    ("expand --m 2 --beta beta_T --a 0.7 --depth 60",
     "66955cbbe7af77ba7b65464b0beebe9e7253b87292e39fb3ec36d660fc1c0604"),
    ("expand --m 3 --beta golden --a 0.35 --depth 60 --format jsonl",
     "bc31ec1445e24146af4dafc52c942370c157efc8e456b56e207d5c472443feab"),
    ("expand --m 3 --beta 3.5 --a 0.9 --depth 120 --kneading-depth 122",
     "4ac0cf2004b77176176f7689b3bcb7f5bae73e3a924bf7989b232cdfa0087981"),
    ("expand --m 3 --beta beta_T --a 1 --depth 80 --kneading-depth 82",
     "887637c501aa41fa965614ac0457db26ad21ecc09e0b1da4c5cb7a27ef5423e7"),
    ("expand --m 12 --beta 12.5 --a 1 --depth 30 --format csv",
     "4988db60b0148b859d8c24777fd460282043b93eb3f6824e271ad00882cd4408"),
    ("check --m 4 --beta 4.7 --depth 5 --format jsonl",
     "2d7f31ba65d5ad74dde174bea7e46cba4d868b6ade54482e33ea76b7ecb2ea3e"),
    ("check --m 3 --beta beta_T --depth 4 --kneading-depth 128",
     "d45af51d4286752782f2bdff92f7172e86f02798c51b83997302f7f8e66101b6"),
    ("words --m 12 --beta 12.5 --depth 2 --format csv",
     "f22efe1a88899d01a8456399b17ddbe055260c14de7bd64981bb0720c96d3b16"),
    ("words --m 12 --beta 12.5 --depth 2 --format jsonl",
     "190dda1c08f4f532abe17fc999d8fdfef85f231a337848d8a59d8551fa0af1e4"),
    ("words --m 12 --beta 12.5 --depth 2",
     "bd56cfc3ceb9a049c3b2a36fb05c9cd60f6ae95e3895d1243f2ab85dbf951b2c"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full",
     "6731d536317df95747a340a7a07dff708424c4e24f362aa425a2d28ea9123296"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format csv",
     "89d387c973736658b195fb6b5970ed69e569b196376deadd79c167db9b782153"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format jsonl",
     "05be3c30f7558b42b4b966bcf4fd167f27f893dc7503caf61364c0c34813741e"),
    (f"zerotemp --m 3 --beta 4 --depth 3 {POT} --format csv",
     "34727bc0a1b0ce77dc882ed9cbc823e3d5884c6bdd74eae5ce049ff28981c6d9"),
    (f"thermo --m 3 --beta 4 --depth 3 {POT} --format jsonl",
     "7ce669f997071f4a6dad34089d6e2e6c97e5953a4c8e7378f6e792ea18b202d4"),
    (f"thermo --m 3 --beta 3.5 --depth 4 {POT} --seed 3 --format jsonl",
     "d4a3375c8404dbeeb88fecdac9cba736c991e15298af6abb84ccd46cfab5d8cb"),
    # the benchmark's symbolic workload: a deep expansion at a rational
    # base with a 73-bit denominator, and 155,197 word rows
    ("expand --m 3 --beta beta_T --a 1 --depth 1000 --kneading-depth 1002",
     "24a12e2a9e6742dd9e50af7a39b50fcbdc46174a4e45b5694faa6b00dfc6979d"),
    ("words --m 4 --beta 4.7 --depth 8 --format jsonl",
     "a467f3471490ee48cf15489532bbd22841a54c48b035ee70c989af2588351fd0"),
    # 4^33 > 2^63: words and forbidden words past the int64 key width
    ("words --m 3 --beta 2.9 --depth 33 --format jsonl",
     "716d3fd0ad66fce39c12b4e4b183bfb931f7f2cbb71ee672e44c10a1902bf83b"),
    ("check --m 3 --beta 2.9 --depth 33",
     "a6ede824066f7d0d0581d05477635cda7d3efef3d957a0baea4ce30707cd60b2"),
]


@pytest.mark.parametrize("argv, digest", CASES, ids=[c[0] for c in CASES])
def test_stdout_is_pinned(argv, digest, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the benchmark's spectrum-deep, zerotemp-scan and thermo-gaps commands at
# seed 0, each in its own process.
GEO = "--potential geometric:c=1,theta=0.25,kmax=12"
BENCH_CASES = [
    ("spectrum --m 5 --beta 6 --depth 7 --potential digit_table:0.3,0,0.1,0.05,0.2,0.1",
     "b5297f5a9323edb67467fa492c96e73837a9503b123c1d9591d6602dca2fffc7"),
    (f"spectrum --m 4 --beta 5 --depth 7 {GEO}",
     "59de157ce6be040c6bbb2ccd6cc88f49656751de0d4b852815c81ab40334c69e"),
    (f"spectrum --m 3 --beta 3.5 --depth 9 {GEO}",
     "018107646f049e3930677487e61dec6a8d8a057a8c90fa8e00992b8941d3b13c"),
    (f"zerotemp --m 3 --beta 3.5 --depth 7 {POT} --format csv",
     "63e68d71caa5308ecd60dab0c731f6be437ec02a2732ce1e95e4b5db973239d8"),
    (f"zerotemp --m 3 --beta 3.5 --depth 6 {POT}",
     "598af26aa42f63435c1228e73e75bf7a4356e83d11a8ae7488f780201a591f8f"),
    ("thermo --m 4 --beta 5 --depth 5 --potential digit_table:0.3,0,0.1,0.05,0.2",
     "e62ddf97f2d7ea27cf48975bd0865346db08116fe0b482feb8eaee3a3c0e9b9d"),
    (f"thermo --m 3 --beta 3.5 --depth 6 {POT}",
     "28b19e600a8a06ff08365b74e5d6017b820524942896ab06ba0b5c2c40c657c9"),
]


def run_cli(argv, threads="1"):
    """stdout of the CLI in its own process, with BLAS on ``threads`` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-m", "symbeta", *argv.split()],
                         capture_output=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("argv, digest", BENCH_CASES, ids=[c[0] for c in BENCH_CASES])
def test_benchmark_stdout_is_pinned(argv, digest):
    assert hashlib.sha256(run_cli(argv)).hexdigest() == digest


def test_stdout_does_not_depend_on_the_blas_thread_count():
    # every sum of the solves, the Gibbs state and the cross-check is a
    # fixed-order reduction, not a BLAS dot product that splits by thread
    argv = f"spectrum --m 5 --beta 6 --depth 7 {GEO}"
    assert run_cli(argv, "1") == run_cli(argv, "2")
