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
     "f030f8fd0c36cc6e15228a8e82661b9711100ff842dabdffccf82033500f8802"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format csv",
     "69c392667d657446d075485bb11e27287e95054935f7d84b3c6257b49c15cdea"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format jsonl",
     "4a9b2d548c0195469d3e2aa7d2edad5f50f527f04b19fddfdf35843aff21e7ae"),
    (f"zerotemp --m 3 --beta 4 --depth 3 {POT} --format csv",
     "d2d9431b3e01014a0534633b2270dff0f5557c4390f22890ec75f2a95487ca83"),
    (f"thermo --m 3 --beta 4 --depth 3 {POT} --format jsonl",
     "f6a60461b4ec57a104d545b15095782f0ddba7da9f97b2cfb33a53fb2cae3859"),
    (f"thermo --m 3 --beta 3.5 --depth 4 {POT} --seed 3 --format jsonl",
     "ff990863322b4386f4befbb94306d4f91029b44018842dca999cf754bc1c5a9a"),
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
     "a14d65ac772183550e67cc3f28af861d64e39f3204584ee37af6962e3a3b6afb"),
    (f"spectrum --m 4 --beta 5 --depth 7 {GEO}",
     "274a1f04a2f7964d5458ef46c5ccf5a86bb82e31de0fd888feef49ad9bf049b4"),
    (f"spectrum --m 3 --beta 3.5 --depth 9 {GEO}",
     "e75c98b8254bb2479269a2227c29dd6b3a1fc885a11858c69ba1805d4f3ddfcb"),
    (f"zerotemp --m 3 --beta 3.5 --depth 7 {POT} --format csv",
     "9b697856e8341b85ec4296383c69fab953defc46248521ec261cbb86ed87b596"),
    (f"zerotemp --m 3 --beta 3.5 --depth 6 {POT}",
     "76827c7442fe944578bbe1c0a91e19fc08c087c30f28883db59919fe3f94f5a5"),
    ("thermo --m 4 --beta 5 --depth 5 --potential digit_table:0.3,0,0.1,0.05,0.2",
     "5c464030023f16e6dd8bc7b6e97cfa0e76b037f5a60aa082efc85c3220776717"),
    (f"thermo --m 3 --beta 3.5 --depth 6 {POT}",
     "2e95c0b5c3aab2a67c5a2261927f14acccc2e29ad2e9948eee04d8e65ac1eff8"),
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
