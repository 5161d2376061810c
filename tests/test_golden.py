"""Golden digests of the `--json` output of `rees generators` and `rees slice`.

The digests pin the exact records (polynomials, bidegrees, provenance,
certificates) the constructive stack emits, so a change that speeds up a
kernel but alters any output byte fails here.  They were recorded with the
constructive stack before the batched slice solves and the row-sparse F_p
elimination went in.  A deliberate change of output must replace them in the
same commit and say why.
"""
import hashlib

import pytest

from conftest import fixture_path
from rees import cli

GENERATORS = {
    "almost_linear": "2a3b332bae918f94fdad888f390c5b30648b23d8c4c531a17fc9ae5ee24345cd",
    "final_example": "f88d3bc3717cb75027898f61cda744784fa5aa762a33552136ce484476a1d312",
    "final_variant": "a6a435a24061374f6987e3bb2b44662f5fc630c1933191ab6cce3453e2ea06cd",
    "quadric_cubic": "476a961313d8e9cdd96d7006f7c2535a768c2d73e4908662aa931fb5888210c4",
    "table1": "8f60b6e1905f981a6d76be3c8591906b6b92a1ddf58372b349acb1c422826cde",
    "table2": "1dd1249e2f9f65d51f7dbb0641ba5ff729ed819425ffc5250ed894d37e914de8",
    "table3": "8f23fcaf8991e42c1ddfdd6f3c6350153d0f640593202cbea8bad1c74b81aa11",
}

# (fixture, x-degree): every slice regime appears, c = d_2 - i >= 1
# (weight-drop and hull-basis families) and c <= 0 (hull-piece lifts)
SLICES = {
    ("quadric_cubic", 1): "5878bb2f93b7d72a2f4937bcf5ea7bbf98d3176857da507cd1b2bbe82c108f18",
    ("quadric_cubic", 2): "641958769cb11e1e370b3faec9f99b5c30592e3100377f779781452094656dd5",
    ("quadric_cubic", 3): "4aeccec5a9a6d92dbeffd6978ee3396250dc7ffb7f3db8486579acaa4c3a572e",
    ("quadric_cubic", 4): "9bbca316600b74c9728bd45a41417f0a9faa261dfdca9151d5474737e20e2544",
    ("table1", 2): "ae29c1a10d49b21f1312ac8ab29edff27a480d34da308ba0fb6590baedbd8360",
    ("table1", 3): "d10d53f40faa772e908246cc94cd75e1085ccfc53e1ae4dad7924c8c4c18e920",
    ("table1", 15): "7cfccfe28b946e4cbea246b7c55ba76c22566ac0b0b26d474ab791cc2f754cd3",
    ("table1", 16): "6fc1ea2487ca057648874504df38ac1a59f7565e28fadfe3998819546c0ffed5",
    ("table1", 17): "cc9e3519ba05a0c5a62567dad1a5d13b8ed748c80365ad60c36ec12948693669",
    ("final_example", 3): "c5770f969cb3d2f54131c08e2320d18d9092d4c0f2f6fb6f86965b29a575d821",
    ("final_example", 4): "6b48289c068df528da2fb17069b9234bb88cea513be3423179dd4331b615e2b1",
    ("final_example", 5): "17e1656108317ccbe84415d6c97c534fdc3659c7c5ce6d7744edc7153ed4d3a5",
    ("final_example", 6): "373937e3d5ec9d4ef5df9950b890a01b4ca43dd3899ca16547977abb15b86c0b",
    ("final_example", 7): "a3382724e87a38f31ba34141240a1a903dc1c1f6e621754c906a1d64260198c8",
    ("final_example", 8): "52f793f526e77e9e39a9bc9323371ee90ceebd71487fda42bf926303a9ba2969",
    ("table3", 11): "277ec52809f75970d1466726f2d2540121dbae3df12e6639373bedd04821530a",
    ("table3", 16): "57f328bc8250bc7384c5f7ed1cd4a136506d34dbcf9255710c102fb0c8c86d1a",
}


def json_digest(capsys, *argv):
    code = cli.main(["--json", *argv])
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_json_is_unchanged(capsys, name):
    got = json_digest(capsys, "generators", fixture_path(f"{name}.json"))
    assert got == GENERATORS[name]


@pytest.mark.parametrize("name,xdeg", sorted(SLICES))
def test_slice_json_is_unchanged(capsys, name, xdeg):
    got = json_digest(capsys, "slice", fixture_path(f"{name}.json"),
                      "--xdeg", str(xdeg))
    assert got == SLICES[(name, xdeg)]
