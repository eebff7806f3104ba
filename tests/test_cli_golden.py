"""The CLI's stdout, pinned byte for byte by its sha256.

The cases are the README's ``expand``, ``check`` and ``words`` commands,
expansions over rational and quadratic bases (terminating, cycling and
truncated), words with digits above 9 (the comma form), and the row
renderers of ``spectrum --full``, ``zerotemp`` and ``thermo`` in every
format, plus ``thermo`` on a shift that is not full (words with fewer
than m + 1 successors).  Any change to the digit recursions or the renderers that moves
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
     "7c9878abaf291f3a5621bf9d9f77bf4e9441224328789e162a420fd1a44df447"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format csv",
     "e9aa4196c6e5a1aef8eb5fa776c95350727deb57cbe79aaec5d0275a74e55efc"),
    (f"spectrum --m 3 --beta 3.5 --depth 4 {POT} --full --format jsonl",
     "3d87235be206b44bfd904eeffebe7dba8e6eae194c440c0b55fbe1a68e86e04d"),
    (f"zerotemp --m 3 --beta 4 --depth 3 {POT} --format csv",
     "1a5f70daec519b041e76ece639d4ad011cd1c1c9999b0a03baa78a0444b973c0"),
    (f"thermo --m 3 --beta 4 --depth 3 {POT} --format jsonl",
     "8959e2912c1f74e45d2b3a5848f1137f2ea02556ac739b69c55738b53d19364e"),
    (f"thermo --m 3 --beta 3.5 --depth 4 {POT} --seed 3 --format jsonl",
     "9a93680a969f84dd0780d54eb501980b671a3ea826fc3c741c687764958f7b74"),
]


@pytest.mark.parametrize("argv, digest", CASES, ids=[c[0] for c in CASES])
def test_stdout_is_pinned(argv, digest, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
