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
     "66e77d8d0a99aeee9c148ff8494546365638ace04fe167afe258777e26676078"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format csv",
     "e9aa4196c6e5a1aef8eb5fa776c95350727deb57cbe79aaec5d0275a74e55efc"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format jsonl",
     "6befe428b4758c391f093c123f6f311eb177003219847923225b814e7e0c5bcf"),
    (f"zerotemp --m 3 --beta 4 --depth 3 {POT} --format csv",
     "1a5f70daec519b041e76ece639d4ad011cd1c1c9999b0a03baa78a0444b973c0"),
    (f"thermo --m 3 --beta 4 --depth 3 {POT} --format jsonl",
     "fad48e2894edb0dda976be3047f0001727f087f53ddc0987a8590722df1d4a1b"),
    (f"thermo --m 3 --beta 3.5 --depth 4 {POT} --seed 3 --format jsonl",
     "a570181ed4f27957be84efad3de237c4737cee2b32929ca8dec763e014255163"),
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
# seed 0.  At these sizes OpenBLAS splits np.dot across threads and the last
# printed digits depend on the thread count, so each runs in its own process
# pinned to one thread.
GEO = "--potential geometric:c=1,theta=0.25,kmax=12"
BENCH_CASES = [
    ("spectrum --m 5 --beta 6 --depth 7 --potential digit_table:0.3,0,0.1,0.05,0.2,0.1",
     "b78e6ce57ea6cb222d778425d2dee48b0af20ecfcbabc95b54b63aa8e5e1870c"),
    (f"spectrum --m 4 --beta 5 --depth 7 {GEO}",
     "8e89ebf0b24bf44e8a944173db03e23f2d78c06b102760abf3d288ff998b7b5a"),
    (f"spectrum --m 3 --beta 3.5 --depth 9 {GEO}",
     "8d2ea15ed285cd2e4f0e3e5966e7acdaef0a9a177aa91808e6b947412d72919d"),
    (f"zerotemp --m 3 --beta 3.5 --depth 7 {POT} --format csv",
     "83942c8c966eda25d2cbceb84515aba0a1b887eacde55b2216db8ff8d584d8f5"),
    (f"zerotemp --m 3 --beta 3.5 --depth 6 {POT}",
     "7609ca7974e42938609250813d09a7708755bfcd65904fd5b117b95cfa2356c5"),
    ("thermo --m 4 --beta 5 --depth 5 --potential digit_table:0.3,0,0.1,0.05,0.2",
     "562a9c1810719a42c66fd452286b46ada4ea95759af4709b251a567ac1dc30c1"),
    (f"thermo --m 3 --beta 3.5 --depth 6 {POT}",
     "1ea11086681de85f8cbf7937e7c54fc1390a74ab670d2760ab1dd798e7c9ea90"),
]


@pytest.mark.parametrize("argv, digest", BENCH_CASES, ids=[c[0] for c in BENCH_CASES])
def test_benchmark_stdout_is_pinned(argv, digest):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-m", "symbeta", *argv.split()],
                         capture_output=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == digest
