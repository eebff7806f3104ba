"""The CLI's stdout, pinned byte for byte by its sha256.

The cases are the README's ``expand``, ``check`` and ``words`` commands,
expansions over rational and quadratic bases (terminating, cycling and
truncated), words with digits above 9 (the comma form), and the row
renderers of ``spectrum --full``, ``zerotemp`` and ``thermo`` in every
format.  Any change to the digit recursions or the renderers that moves
one byte of output fails here.
"""

import hashlib

import pytest

from symbeta.cli import main

POT = "--potential digit_table:0.3,0,0.1,0.05"

CASES = [
    ("expand --m 1 --beta golden --a 1 --depth 20",
     "4e6a9317faaf04102fd4d7dc8b76846daf92debf846f04f9aa0d72793b4cf671"),
    ("check --m 2 --beta beta_T --depth 4",
     "674b3281a21dd750e6571ce22ffea9bb4accc151d01d07881d8b2bf7f66ba29a"),
    ("words --m 3 --beta 3.5 --depth 4 --format jsonl",
     "a0c6a43823f31025112fc6d80cf01fa5a72d921820aee8ecb5e7449d1368999d"),
    ("expand --m 2 --beta beta_T --a 0.7 --depth 60",
     "66955cbbe7af77ba7b65464b0beebe9e7253b87292e39fb3ec36d660fc1c0604"),
    ("expand --m 3 --beta golden --a 0.35 --depth 60 --format jsonl",
     "611dba792825c6162f0e6efd8edb47e33182b200ccb8a243bcdeb0a7c7dd93ed"),
    ("expand --m 3 --beta 3.5 --a 0.9 --depth 120 --kneading-depth 122",
     "4ac0cf2004b77176176f7689b3bcb7f5bae73e3a924bf7989b232cdfa0087981"),
    ("expand --m 3 --beta beta_T --a 1 --depth 80 --kneading-depth 82",
     "887637c501aa41fa965614ac0457db26ad21ecc09e0b1da4c5cb7a27ef5423e7"),
    ("expand --m 12 --beta 12.5 --a 1 --depth 30 --format csv",
     "4988db60b0148b859d8c24777fd460282043b93eb3f6824e271ad00882cd4408"),
    ("check --m 4 --beta 4.7 --depth 5 --format jsonl",
     "c049a431c23d80ea1705ff322f82de4348053c14a51093ead76dc74f55debab0"),
    ("check --m 3 --beta beta_T --depth 4 --kneading-depth 128",
     "d45af51d4286752782f2bdff92f7172e86f02798c51b83997302f7f8e66101b6"),
    ("words --m 12 --beta 12.5 --depth 2 --format csv",
     "f22efe1a88899d01a8456399b17ddbe055260c14de7bd64981bb0720c96d3b16"),
    ("words --m 12 --beta 12.5 --depth 2 --format jsonl",
     "d7bb10500168eae6e5320387ef7b3efbf7a26c4a856cb648fde12f75b5b88ba6"),
    ("words --m 12 --beta 12.5 --depth 2",
     "bd56cfc3ceb9a049c3b2a36fb05c9cd60f6ae95e3895d1243f2ab85dbf951b2c"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full",
     "487b30e572d46124b1fc9903df1e38b10f6071bd0d777f3adcf27b1f9dca192a"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format csv",
     "ddcaaae587ca05c960a29526eb5d5b3e6f81a484b940f3ec15e153418cf26ad4"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format jsonl",
     "cdc096b6452810b9d1aa8a061fc90ab7236c0d393ec65f39c469d7e73e4ed924"),
    (f"zerotemp --m 3 --beta 4 --depth 3 {POT} --format csv",
     "308e12764006165c1a196e267d12c5bfb658bcbde5d01a65f49d1602a1b44128"),
    (f"thermo --m 3 --beta 4 --depth 3 {POT} --format jsonl",
     "b45cef80297945b2fb5e2c5a014a20f5046d1017d13bfb8159b4e9f3307aa1a2"),
]


@pytest.mark.parametrize("argv, digest", CASES, ids=[c[0] for c in CASES])
def test_stdout_is_pinned(argv, digest, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
