"""Golden digests of the `--json` output of several `rees` subcommands.

The digests pin the exact records (polynomials, bidegrees, provenance,
certificates), twists, trimmed slices and oracle generator counts the package
emits, so a change that speeds up a kernel but alters any output byte fails
here.  The `generators` and `slice` digests were recorded before the batched
slice solves and the row-sparse F_p elimination went in; the `sigmas`,
trimmed-slice and oracle `mingens` digests were recorded before the streaming
echelon class gave way to `linalg.independent`; the oracle basis digests
were recorded before the F_p and Q reduction loops were merged into one
kernel, and before the saturation by (x0,x1) became a saturation by x1
alone; the oracle `hilbert` and `mingens` count digests were recorded before
the two counters moved from `Poly` products to exponent tuples; the random
n = 4, 5 tower digests were recorded before the recursion's solve moved from
the S-piece to one base-ring system per step; the capped fixture and random
n = 4, 5 basis digests were recorded before the oracle's reduction moved
from exponent tuples to packed one-int monomials; the random slice and
almost-linear digests were recorded before the hull images of ambient
monomials were written as rows from the maps' memo; the random instance
digests were recorded before the height check moved from a Euclidean gcd to
one rank; the rational twins' record digests were recorded before the
fraction-free rational elimination gave way to the sparse route of F_p; the
kernel digests were recorded before `graded_kernel` moved from hand-written
equations to a ring map's piece rows; the `check` and
membership digests were recorded before the check lines moved from one CLI
function to `rees.checks`.  A deliberate change of output must replace them
in the same commit and say why.
"""
import dataclasses
import hashlib
import json
import random

import pytest

from conftest import fixture_path

from rees import cli, generators, oracle, syzygy, tower
from rees.field import PrimeField
from rees.ring import ring_R

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

# (fixture, level) for every level 1..n-1: the twists come from graded_kernel
# below the top level, and from the presentation's minors at the top level
SIGMAS = {
    ("almost_linear", 1): "fdfeb965c0d719e20ef05960741f71bd30340a6faa2381570986d9589c6a256e",
    ("almost_linear", 2): "668607c863110c6e7684502057b15a914cc061569cb2935db72341ae24362a47",
    ("almost_linear", 3): "2b9b9f809fe014e0fbe31c416a1efdd74d2c82a9308a84091f22eb71d6aca208",
    ("final_example", 1): "9068d0cd3bd2ee32be9115affea1393ebffef9ba1bf88290a229f1ca2355eb0f",
    ("final_example", 2): "c9b46c68f76dc79c8b34dc278cffc19ceff748cddee7aeef8f109ff3f0b25654",
    ("final_variant", 1): "9068d0cd3bd2ee32be9115affea1393ebffef9ba1bf88290a229f1ca2355eb0f",
    ("final_variant", 2): "c9b46c68f76dc79c8b34dc278cffc19ceff748cddee7aeef8f109ff3f0b25654",
    ("quadric_cubic", 1): "b5b40e824b911fd19a702c4475d8e55d2ca5a25d53280cefc46cc8f62331361e",
    ("quadric_cubic", 2): "6270576fb3443b34eb8547ca691297a6e3f35b55d0b49cbdea0f12051c971a11",
    ("table1", 1): "75f52faa5396689b4ada9f5530a0ea152428d4bf3518a1e2407be27a5434d7fb",
    ("table1", 2): "9be59f76e26b3fdc6a69982c3529a50877e4837ff6628aca422ac4617b15218a",
    ("table2", 1): "a7880712de95adfd5d5730f784a97b0b754ef600a9bbc8a4b5db63299db6a79b",
    ("table2", 2): "8baa59a4bc54cddc122ecef8308a78093d3fcfd1d2a3778a20038733b3079a28",
    ("table3", 1): "9068d0cd3bd2ee32be9115affea1393ebffef9ba1bf88290a229f1ca2355eb0f",
    ("table3", 2): "adfa39f5f7781e0d8ccc51226805d6662208ec9da626f8926b02948da7438d81",
}

# (fixture, x-degree) for `slice --trim`: slice_basis and trim_slice
TRIMMED_SLICES = {
    ("final_example", 4): "7ec1cd7627746bfce004c31bb02237e61ff362265cd8c35ba2ef1add1bd78ecd",
    ("final_example", 6): "43b536cda52dba7d617858d715d3c77cead45474db1cdd7138b019089dfc4f0c",
    ("quadric_cubic", 1): "fed4f26981c60156425944ea2414f6d6e106c10563719de83540cfbe2278a330",
    ("quadric_cubic", 2): "e8dfe882add77142c251ce9fbefdb9034bca22d88cb8ec509bf933ed9a2ab2bf",
    ("quadric_cubic", 3): "cc59f86fc2272801672a79aefb17b75e8ca8996697018807e3689e7ca51c002b",
    ("table1", 2): "ad9145f04f85b9d8b67b361621024a02940a0796b76e2201ecc06222bb63e4af",
    ("table1", 3): "ab67ff877a468e0fed09fe6fc126de97d62f3206204c7fe72d2c5d08e2f8cf5a",
}

# `oracle --what mingens --max-x 4 --max-t 4`
MINGENS = {
    "final_example": "d5236b7c01680c83fb9c1b1a3e977b7186e8f1179b652f61460e558717f12fc0",
    "quadric_cubic": "b824251163591fca21613d67f028803c9e645e9c6c50b66514ca1cde53e3ced8",
    "table1": "2832b94f7ebbb188b9c02c62a9c267603317dbb608abc77ce9063b5f4ff4edf4",
}


# `oracle --what hilbert|mingens --max-x 10 --max-t 5` on every fixture
ORACLE_COUNTS = {
    ("hilbert", "almost_linear"):
        "92e52391753b470aec7dbb4bb8313d1195e45fe39af109e8e15a57b39255661d",
    ("hilbert", "final_example"):
        "e391f32f9c8121b18601a335308ad70a77925ccaad0e91a7abb9d1c48aeb9dcc",
    ("hilbert", "final_variant"):
        "94a831b43ab6809b7461cb0504ae79d7cad3b72dee784c314d441d1a20f22ad4",
    ("hilbert", "quadric_cubic"):
        "78ef4445e62fda7cab01a629c8a161c4007b3c02ed38eef3b73e588281c22f6d",
    ("hilbert", "table1"):
        "dbfc44c0005786cf22fd19cad0e8d1ecae944a517ef4a2bd3d31687d1a9e6954",
    ("hilbert", "table2"):
        "b038f71bcaee7a7f8b2662c7b41c740bb9afecb3d154694040dd32123c0f9efb",
    ("hilbert", "table3"):
        "cf7b83d4f320e992b603e4771a887747446e729b296ecfeb51a16b662b95110f",
    ("mingens", "almost_linear"):
        "e80f170c28e0c295d8d6d40a26fd8352d29bcbffd5c7ab39f7f722114142730b",
    ("mingens", "final_example"):
        "fa6b4db78e1b45770ef3a8d3f8ab18777af192655b6e238bee403fab51984b76",
    ("mingens", "final_variant"):
        "e79bf00b5a8b0ac4783b8068974a0222090006c9ea87bc2faa412e7eb656c0da",
    ("mingens", "quadric_cubic"):
        "7f66118136dfe5a41983987c95b2d27de3dbf75ec67d12041f46bba02e6af84c",
    ("mingens", "table1"):
        "b276bf363f2eaa00acd8393e52e4c4c141036160b096c5e2a470ce1a0d45861a",
    ("mingens", "table2"):
        "b0efdf299a17a4a04fdababf56cdb12be91403d3d04c76c49ec0f62950ddc224",
    ("mingens", "table3"):
        "28d9d6c30b06100ea86f66370b36766795277c5f0ee1c531d8d6322da179369d",
}

# reduced basis of `oracle.saturated_ideal`, one `str(g)` per line; "rational"
# saturates the instance's rational twin, so both fields' kernels are pinned
BASES = {
    ("almost_linear", "prime"):
        "00c27271cfce39b4ae39bf7ac527d129581b26a15635f506503f100835c3ebb5",
    ("final_example", "prime"):
        "cf2bb401611140c9e25b7bd7c17fc527e47c6c5f4a709878f4397ea9456dfe45",
    ("final_example", "rational"):
        "6c7296c571e92baa4328a225dfc7a477dcdf78c97a6aff8998f86f177e43fea8",
    ("final_variant", "prime"):
        "d3012014ca8f33a4bec84b38ddf997c19aa0236d4cfd787c0c6938e0e3b77d95",
    ("quadric_cubic", "prime"):
        "d131d5cecc206825d93f2fd87939f2aadc5693a4825b958beb80803fbec0a325",
    ("quadric_cubic", "rational"):
        "19001521623e353d9ef274a98fc256683b511d290cd32b689e70e0b2219a71d7",
    ("table1", "prime"):
        "a29a5bd53f23b72acd9875fbf0fbeb92e77783123c450f1d1444acbf29686c81",
    ("table1", "rational"):
        "1a2207c6357f7d7e4a1c21b797150f5aa1499a688d96921f8329b82bc00c7746",
    ("table3", "prime"):
        "febcc8af1803e2dc2c7a6884223a554f18c2328b6c3c2e205d529615747ccc02",
}

# `oracle.saturated_ideal` capped at the T-degree `rees check` uses on the
# fixture (its records' highest), one `str(g)` per line
CAPPED_BASES = {
    ("table2", 6):
        "4f0551f6c092715efdd218f3235ac4e35bdc0b779f9acf8f6dbab9599d9eb2b8",
    ("table3", 7):
        "b1a4fb61c27e458925275ec9163955e70cff69d05744553ebc2002fc396469b8",
}

# uncapped `oracle.saturated_ideal` of `cli.random_instance(n, shape, seed)`
# over F_32003: n = 4, 5 bases, which no fixture has
RANDOM_BASES = {
    ((1, 2, 4), 0):
        "aa89c66e3d78831788d24b088f2c809d06f8a923320523fa2d661308205ce2a9",
    ((1, 1, 2, 4), 0):
        "657081ad7a6fb4eddfd1906f4cd99899e720b47ab1a637b7710f25d0d7a4ab63",
}

# `GroebnerBasis.counters` of `oracle.saturated_ideal` (the x1-saturation run,
# then the block-order run), as (pairs, coprime, chain, zero, steps, peak);
# recorded with a counting patch of the exponent-tuple core, so equal counts
# mean the packed core treats the same pairs and takes the same steps
COUNTERS = {
    ("quadric_cubic", None): [(28, 1, 15, 6, 9, 8), (36, 1, 21, 13, 16, 9)],
    ("final_variant", None): [(1275, 1, 1149, 76, 1957, 51),
                              (435, 1, 368, 65, 1556, 30)],
    ("table2", 6): [(457, 0, 366, 52, 106, 41), (467, 0, 403, 63, 198, 36)],
}

# `generators.tower_generators` records at every level of
# `cli.random_instance(n, shape, seed)` over F_32003: level >= 2 recursions
# with several pivots, which no fixture reaches
RANDOM_TOWERS = {
    ((1, 2, 4), 0, 1):
        "1c4f9da1596a305b2dff8a80334f61ab9f0eda504cdf6885d08392b8118fadcb",
    ((1, 2, 4), 0, 2):
        "ca20df14c8130d619b6934d2a28424b9149c4a04cb3b86641ad951117b83f413",
    ((1, 2, 4), 1, 1):
        "90fb43d0ca5244157a2303b99312741325e6232585d731ba7d6d13686eb65496",
    ((1, 2, 4), 1, 2):
        "10d9514267e4351bc7c4baabba678fb667d84806ba5e0ceb9d8ae29a05f853bd",
    ((2, 2, 5), 0, 1):
        "9155fc6ee7daa1764cf40c87342eaafc05638472f8e8f8a350a2fe4a60b58ba9",
    ((2, 2, 5), 0, 2):
        "24a9cee7d8add6e4411b4712c4de62e21a4379df754eea93d405440c881a11cc",
    ((2, 2, 5), 1, 1):
        "7832f50842a6513a509afa61ed6714696bf8e5f958cd884b8a432d3404f1b026",
    ((2, 2, 5), 1, 2):
        "fb20111ecd2cb88435ed114a8275af6a2a5841c7c960e3280b3a246d4028a2e9",
    ((1, 1, 2, 4), 0, 1):
        "0562d62bb49c2e4ca564f1a61abd403a04a939d021f048c8f075476e8639ff9d",
    ((1, 1, 2, 4), 0, 2):
        "a3e8ed01231175dd3b8f9516b7c30de9fdeca2e49d46e046048e2ead0eeb30a8",
    ((1, 1, 2, 4), 0, 3):
        "717eac5faca55fdb666c471a23089eb6b4503d7c66c7ff752a1f1a8ed9e2308c",
    ((1, 1, 2, 4), 1, 1):
        "c4bd79a69a7ff2256ac2cbda7e1d9ad4b3af2a2f786a948462a8399f227c7f9a",
    ((1, 1, 2, 4), 1, 2):
        "99920d67fec402555c546df41a84d77dc2340e64275bf27e487dcf14c11f4abe",
    ((1, 1, 2, 4), 1, 3):
        "fa2752b360ba2883f79d1753a9bdaf52354c50f57f10490dc71fd6da3c228d06",
    ((1, 1, 1, 3), 0, 1):
        "9f929ede5c52d3f1c961267aee67ac8e83cfa7763cf67cfe143652c61aa86c0e",
    ((1, 1, 1, 3), 0, 2):
        "d07bca59828852ccfb33fb377ab4d1711724814e0d3b301e03c6227435569ad7",
    ((1, 1, 1, 3), 0, 3):
        "ad0d92106e78e6678c74eec2b295d91811691e9189e137a6a9345cbdbe7df471",
    ((1, 1, 1, 3), 1, 1):
        "16f903b37a5fb38e0c1303711a7dd6d22c41c3bcb7410a9a8e07859d343462e8",
    ((1, 1, 1, 3), 1, 2):
        "608f2aa5fa0e7ac8cd2efa06ee4a1969ce8bc5c5298a0f995b41354f4bddc5bf",
    ((1, 1, 1, 3), 1, 3):
        "4b985bb8ec5ec8441cc076aa44766e211594b1d6f120624b18a05d463c7207a2",
}


# `generators.slice_basis` (one line of monomials per x-degree; empty for
# d_1 = 1) and `generators.slice_generators` records at x-degrees
# d_1 - 1 .. d_2 + 1 of `cli.random_instance(3, shape, seed)` over F_32003:
# these levels change T-coordinates (chi is not the identity), which no
# fixture does, so a wrongly ordered image matrix shows here
RANDOM_SLICE_BASES = {
    ((1, 2), 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ((1, 2), 1):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ((1, 3), 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ((1, 3), 1):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

RANDOM_SLICES = {
    ((1, 2), 0, 0):
        "58883c71cd4b7664283972fa771634b619a0e28698ec7729a3170c3a34e73c12",
    ((1, 2), 0, 1):
        "b1e1b4d61314edde629b3a5939c9b31dc6e5165d2308d87592ba75c1611ab661",
    ((1, 2), 0, 2):
        "15061810b09667070c85ee6b7167358fc31c68a2c218e7db11633077f8ce283c",
    ((1, 2), 0, 3):
        "5d3b320a68080a1ac4314cf3e4fb5c26f762bc403125abf128bda2b4ffb9f76f",
    ((1, 2), 1, 0):
        "9ab94ab23b4fd1da254899d8e7f67a4ab59d8a974cf7e691895820e4edfaedf8",
    ((1, 2), 1, 1):
        "73e789d1f344168ddc79130e0ad51830309f9dc13eba6e6445e8fbffe5dd4124",
    ((1, 2), 1, 2):
        "444d3657891448cc36db7ddf2fc8c196f561c67c0157c87a2d23aef6e4c29cbe",
    ((1, 2), 1, 3):
        "bedb17fa12b43e9847430124893356784f4f0768d781110df467040c4b003365",
    ((1, 3), 0, 0):
        "fd7994b82411905cd90a7c4df467a106295551b01bf100a612cc00fc739d9417",
    ((1, 3), 0, 1):
        "6ce91a90fb869106918312c775cc4a5d3c9c315b51dec132a48b0402f389dcf6",
    ((1, 3), 0, 2):
        "1c7d6ad3ba10252402e304215db35778e749191d7ad0e550b56d54486db17747",
    ((1, 3), 0, 3):
        "8139f86b144e8aa88bb25e69d7e27730b8fa00c12062105e313faaa23c0a4fa4",
    ((1, 3), 0, 4):
        "ee0b6c1fdc9b8eceaaa6cb59cc806cf2ebf70d9e4340aaa381db8a532de0df15",
    ((1, 3), 1, 0):
        "2c4f3b627b4acd159034df380b6cb7160799b46a41ad849579ca0b19883f2955",
    ((1, 3), 1, 1):
        "050806f8c5bfe5699050c1f662dea3ccb065385fefbd3767d6ee510c18a4c6c0",
    ((1, 3), 1, 2):
        "91c9add56a45d403f1b4dab29c381abccebff49015c61cd9ee90527ce4bdd707",
    ((1, 3), 1, 3):
        "b800e0d9b9604776f462481c99df1256b38ae84b9e8f9fd4a354999a471565cb",
    ((1, 3), 1, 4):
        "a5d5c4dd55fcc43b1b2d359e7513872513a6a561646aca26efb899cecbd9f32a",
}

# `generators.almost_linear_generators` records of `cli.random_instance(n,
# shape, seed)` over F_32003; (1, 1) and (1, 4) change T-coordinates at
# level n - 2
RANDOM_ALMOST_LINEAR = {
    ((1, 1), 0):
        "29bcd9e14196abcc128d61168cf17ba4a584f3962d71f253653ea67b7d115b8e",
    ((1, 1), 1):
        "baf1d8c51cdc3d83c40dc8444e7b054c5c098ef9a717959f99d9b976f281e4af",
    ((1, 4), 0):
        "d778d80c96f54f7166e64ab77d20aa13a132d7b0dc14fdf336f2397ab7aaa73a",
    ((1, 4), 1):
        "54bae8738b69f4a674fcd270f6be3b6179b8eec5afb037f780070adaa37a6743",
    ((1, 1, 2), 0):
        "3aeec93d8100470432fb3d39468b79839ebc6d90a9dfe807ecc7995f4e60e3a4",
    ((1, 1, 2), 1):
        "a71a1425d1ec4dd1192f52185fb36c85cd7a998f2baedfceed7fccc9bd0a9d20",
    ((1, 1, 1, 3), 0):
        "0cd033efd55dbc9a6a2b040375e65dfa8cf8b1e13fc9e6bda416ec94636edc1c",
    ((1, 1, 1, 3), 1):
        "8d2e782bc7a483c9d9dac3181e58b2e131df381c711e693b6f2d92523955c3c9",
}

# `generators.tower_generators` records at every level 1..n-2 of each
# fixture's rational twin, `slice_generators` at x-degrees d_1 - 1 and d_2 of
# the n = 3 twins, and `almost_linear_generators` of almost_linear's twin:
# the records over Q, whose every solve and kernel is an elimination over Q
RATIONAL_TOWERS = {
    ("almost_linear", 1):
        "23c38323ed25b94d8be21471f6cfd497da9ad35c576acac98cca98a4086a5c28",
    ("almost_linear", 2):
        "0b71fb361a5f8447f6eb61082528f78a3aa04d9fa37861baa8bb75b525b952a6",
    ("final_example", 1):
        "95aea770c85ef5ddbff2a9159bab5845ea5a4ab4911a427ee6e63706ce217f82",
    ("final_variant", 1):
        "c391888c6bf53d3b452134078fbaa4c4db437684afd08111c8861f6ec4cf732e",
    ("quadric_cubic", 1):
        "fb7e30501c2268cc2bcf6d5859aab6a8d7bd2de550e75c6b734216903030081c",
    ("table1", 1):
        "580724ff7b6234a2c26dcfd2dcbb737768179f218b3d77e98cf4ff24de844de6",
    ("table2", 1):
        "cdc8e9f4742a55618070424dcd5de5d8b99f772798179047e06cf593447a82bf",
    ("table3", 1):
        "61228d3da300c7c5b54c97adae99ab3236cd209fbd67cd7c9d078428b24a7eef",
}

RATIONAL_SLICES = {
    ("final_example", 3):
        "6477f524434a70c73a86a886661d8701646af4d7a804d236f000be63034e6b0e",
    ("final_example", 7):
        "cb52446f681a70a95569dc0eba898326e67ac059d9bff9d3ab018f01eef6935a",
    ("final_variant", 3):
        "bb912347aced621812575b11b2864a94de5988b0c7b3d78a2f84cf757c42ccb6",
    ("final_variant", 7):
        "3c28f8221d92bed0eccaa6328eee883abe733022369aa7b9d49d05d574ecc8b6",
    ("quadric_cubic", 1):
        "7e7359fd319225722f2c1b31067d6ac64cb654a09f00fb09997fe83b3f774e65",
    ("quadric_cubic", 3):
        "373155c3d5f572b5ecbadddc445934352c8bc69150ec03fc89e393e697aa4dfc",
    ("table1", 2):
        "23b5d75a0bf432b77121ba1a877736ee93fd18e42707082fed47ce5c63152b79",
    ("table1", 16):
        "75c980ca5705f834fffa225d5dc24cae626273c47a29699fcf218a00b138d609",
    ("table2", 4):
        "5dc5e0cd1e9c38c4bc7ac6e3518a53449f1d4c7c9f12bc136452cd0a2cb5ae55",
    ("table2", 16):
        "97f4f0f9804fd29b06fa55b4c03b3a669cd8ed2be854b2867818cfb875ca7373",
    ("table3", 3):
        "25cb52c48ea8955fb481f5f61157489e03346ada18eb6d58e1482f389da1fd22",
    ("table3", 16):
        "4769954d313c09e2402f6c2c66734af795732621201208c097eb34c43f0da97a",
}

RATIONAL_ALMOST_LINEAR = (
    "7cc0bc7e1f1f873cd9052bf8e1062d342b3e7fbff86583b725146c66e60aff15")


# `cli.instance_to_json` of `cli.random_instance(n, shape, seed)` over F_p
# for seeds 0-4, one sorted JSON text per line: rejection sampling draws the
# same instances, so every `rees check --seeds` twin is the same
RANDOM_INSTANCES = {
    ((1, 2), 7):
        "71a8cef7894b9e67986a11bfe77b4156dd742931ba8c4f88730722a623b284c1",
    ((1, 2), 32003):
        "39eb1f6f18ad17263062b45fc9c18340cb0d5420f4f1fc1b70f545c34ae4ca6d",
    ((2, 3), 7):
        "6089dbc37cb339dadac6ae96f80bd6d3e54c6944955adfb142cf4644dcce3b38",
    ((2, 3), 32003):
        "b959ab130f2a53dab6b56d6d1b82810feead4ebf4849fbb132fa2a3c80b2aebc",
    ((1, 1, 2), 7):
        "3978b5bb50129466a3edf92456b6c823dd740b34de801556f90a42f656a0153d",
    ((1, 1, 2), 32003):
        "5fdef1efd297eb50cbbaa6627d12c713f5a3917294b3a6d3892655c93582e018",
    ((1, 1, 1, 2), 7):
        "1f8cbfbaa097f6a72efc8e3b27177fe160364b3e26bd24cea7b8b3d09a7ec014",
    ((1, 1, 1, 2), 32003):
        "b5958465d131ea82c5066f5242221839c064522e6e4cd48104a5bee1c9400c12",
}


# `check` on every fixture: check JSON carries no records, so the fixtures
# whose checks pass with no oracle-line cap note of their own print the same
# bytes (quadric_cubic, final_example and final_variant)
CHECKS = {
    "almost_linear": "c813a0f5d50345b13a8b89ed24ee9f503f0f50c0ea85e63d55da3a1360454b91",
    "final_example": "1ac281b957796f95cf790a422f527c2f9049fb07f2edd3d02e90ca8028259238",
    "final_variant": "1ac281b957796f95cf790a422f527c2f9049fb07f2edd3d02e90ca8028259238",
    "quadric_cubic": "1ac281b957796f95cf790a422f527c2f9049fb07f2edd3d02e90ca8028259238",
    "table1": "200b9a4309658c9eaf80fc2af3c1dd1bc1a357b1c9084e112cf8de7f2444a8ae",
    "table2": "4f23214b1bcd37783d28991ecfce876d0bb6ec33735bc04748f7c668debefad5",
    "table3": "a4d6f666bf2becf7f43bca6cd4cba89cb1f5cb7f045493ebaf45ddfe396eed55",
}

# `check --seeds 2`: the instance and its first two random twins
SEEDED_CHECKS = {
    "almost_linear": "8de07bf7f9bd85236bdb3ce86b8033ed9f4c004fd59bf7fce997665b54e6ef2b",
    "final_example": "be8a0c433a6a3e8ea0dbaafe8c6b8135d2c909249e79541a6063291866df9b5c",
    "final_variant": "be8a0c433a6a3e8ea0dbaafe8c6b8135d2c909249e79541a6063291866df9b5c",
    "quadric_cubic": "d73b6667f85177da4fb6941967bb8d7a9fed3e4a5eac745497eb5e7686a251eb",
}

# `oracle --what membership --max-x 0 --max-t 0`: every record of the levels
# below the top, with its verdict against the saturation capped at their
# highest T-degree
MEMBERSHIP = {
    "almost_linear": "cc886ce2c1d74aebb51308ca6a8b2250172b56b956238a6d74f675fc303d8c94",
    "final_example": "7588fd0631dd3ae9a15dcd5f32a9f0261e26930bb6d91f581f7d75e5bd2ea3ff",
    "final_variant": "61d6a723de668dd15090f7b4dccbcae5566953c899db7239cc76a78d2f5d218c",
    "quadric_cubic": "5a56b71a886a70f110667b186448e3d92773bfdfb318220b25616a3689d27009",
    "table1": "fe93a30e9a046737528fe2deb88da1595a8e9306f48edc7de04a16e77acc08c7",
    "table2": "2766aa10af576723fa0dd07a8865911a054c8cc5ecdf4a92d0b2359efdb9b2f3",
    "table3": "87a1e4eaaf825a0821238d182ae505f4988bd36218e4661ddc37a167b55d7aa9",
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


@pytest.mark.parametrize("name,m", sorted(SIGMAS))
def test_sigmas_json_is_unchanged(capsys, name, m):
    got = json_digest(capsys, "sigmas", fixture_path(f"{name}.json"),
                      "-m", str(m))
    assert got == SIGMAS[(name, m)]


@pytest.mark.parametrize("name,xdeg", sorted(TRIMMED_SLICES))
def test_trimmed_slice_json_is_unchanged(capsys, name, xdeg):
    got = json_digest(capsys, "slice", fixture_path(f"{name}.json"),
                      "--xdeg", str(xdeg), "--trim")
    assert got == TRIMMED_SLICES[(name, xdeg)]


@pytest.mark.parametrize("name", sorted(MINGENS))
def test_oracle_mingens_json_is_unchanged(capsys, name):
    got = json_digest(capsys, "oracle", fixture_path(f"{name}.json"),
                      "--what", "mingens", "--max-x", "4", "--max-t", "4")
    assert got == MINGENS[name]


@pytest.mark.parametrize("what,name", sorted(ORACLE_COUNTS))
def test_oracle_counts_json_is_unchanged(capsys, what, name):
    got = json_digest(capsys, "oracle", fixture_path(f"{name}.json"),
                      "--what", what, "--max-x", "10", "--max-t", "5")
    assert got == ORACLE_COUNTS[(what, name)]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_json_is_unchanged(capsys, name):
    got = json_digest(capsys, "check", fixture_path(f"{name}.json"))
    assert got == CHECKS[name]


@pytest.mark.parametrize("name", sorted(SEEDED_CHECKS))
def test_seeded_check_json_is_unchanged(capsys, name):
    got = json_digest(capsys, "check", fixture_path(f"{name}.json"),
                      "--seeds", "2")
    assert got == SEEDED_CHECKS[name]


@pytest.mark.parametrize("name", sorted(MEMBERSHIP))
def test_oracle_membership_json_is_unchanged(capsys, name):
    got = json_digest(capsys, "oracle", fixture_path(f"{name}.json"),
                      "--what", "membership", "--max-x", "0", "--max-t", "0")
    assert got == MEMBERSHIP[name]


def basis_digest(K):
    text = "\n".join(str(g) for g in K.generators)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,field", sorted(BASES))
def test_saturated_basis_is_unchanged(name, field):
    inp = cli.load_instance(fixture_path(f"{name}.json"))
    if field == "rational":
        inp = oracle._rational_twin(inp)
    assert basis_digest(oracle.saturated_ideal(inp)) == BASES[(name, field)]


@pytest.mark.parametrize("name,cap", sorted(CAPPED_BASES))
def test_capped_basis_is_unchanged(name, cap):
    inp = cli.load_instance(fixture_path(f"{name}.json"))
    K = oracle.saturated_ideal(inp, t_max=cap)
    assert basis_digest(K) == CAPPED_BASES[(name, cap)]


@pytest.mark.parametrize("shape,seed", sorted(RANDOM_BASES))
def test_random_basis_is_unchanged(shape, seed):
    inp = cli.random_instance(len(shape) + 1, shape, seed, PrimeField(32003))
    K = oracle.saturated_ideal(inp)
    assert basis_digest(K) == RANDOM_BASES[(shape, seed)]


@pytest.mark.parametrize("shape,p", sorted(RANDOM_INSTANCES))
def test_random_instances_are_unchanged(shape, p):
    text = "\n".join(
        json.dumps(cli.instance_to_json(cli.random_instance(
            len(shape) + 1, shape, seed, PrimeField(p))), sort_keys=True)
        for seed in range(5))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == RANDOM_INSTANCES[(shape, p)])


def records_digest(records):
    text = json.dumps([rec.as_dict() for rec in records], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("shape,seed,m", sorted(RANDOM_TOWERS))
def test_random_tower_records_are_unchanged(shape, seed, m):
    inp = cli.random_instance(len(shape) + 1, shape, seed, PrimeField(32003))
    records = generators.tower_generators(inp, m)
    assert records_digest(records) == RANDOM_TOWERS[(shape, seed, m)]


@pytest.mark.parametrize("shape,seed", sorted(RANDOM_SLICE_BASES))
def test_random_slice_basis_is_unchanged(shape, seed):
    inp = cli.random_instance(3, shape, seed, PrimeField(32003))
    basis = generators.slice_basis(tower.build_level(inp, 1))
    text = "\n".join(" ".join(str(nu) for nu in monos)
                     for monos in basis)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == RANDOM_SLICE_BASES[(shape, seed)])


@pytest.mark.parametrize("shape,seed,xdeg", sorted(RANDOM_SLICES))
def test_random_slice_records_are_unchanged(shape, seed, xdeg):
    inp = cli.random_instance(3, shape, seed, PrimeField(32003))
    records = generators.slice_generators(inp, xdeg)
    assert records_digest(records) == RANDOM_SLICES[(shape, seed, xdeg)]


@pytest.mark.parametrize("shape,seed", sorted(RANDOM_ALMOST_LINEAR))
def test_random_almost_linear_records_are_unchanged(shape, seed):
    inp = cli.random_instance(len(shape) + 1, shape, seed, PrimeField(32003))
    records = generators.almost_linear_generators(inp)
    assert records_digest(records) == RANDOM_ALMOST_LINEAR[(shape, seed)]


def rational_twin(name):
    inp = cli.load_instance(fixture_path(f"{name}.json"))
    return oracle._rational_twin(inp)


@pytest.mark.parametrize("name,m", sorted(RATIONAL_TOWERS))
def test_rational_tower_records_are_unchanged(name, m):
    records = generators.tower_generators(rational_twin(name), m)
    assert records_digest(records) == RATIONAL_TOWERS[(name, m)]


@pytest.mark.parametrize("name,xdeg", sorted(RATIONAL_SLICES))
def test_rational_slice_records_are_unchanged(name, xdeg):
    records = generators.slice_generators(rational_twin(name), xdeg)
    assert records_digest(records) == RATIONAL_SLICES[(name, xdeg)]


def test_rational_almost_linear_records_are_unchanged():
    inp = rational_twin("almost_linear")
    records = generators.almost_linear_generators(inp)
    assert records_digest(records) == RATIONAL_ALMOST_LINEAR


@pytest.mark.parametrize("name,cap", sorted(COUNTERS, key=str))
def test_core_counters_are_unchanged(name, cap):
    inp = cli.load_instance(fixture_path(f"{name}.json"))
    K = oracle.saturated_ideal(inp, t_max=cap)
    assert [dataclasses.astuple(c) for c in K.counters] == COUNTERS[(name, cap)]
    # the counters take no part in comparing bases
    assert dataclasses.replace(K, counters=()) == K


# `syzygy.graded_kernel` output: the hull embedding (at the top level the
# presentation's minors, scaled as the kernel scan scales them) and the
# dropped-row kernels at every level ("fixtures", "rational": the fixtures'
# rational twins; "random": `cli.random_instance` shapes at p = 7 and
# 32003), and the kernels of random matrices with unequal, nondecreasing
# column degrees and positive row twists, which no tower level builds
# ("graded")
KERNELS = {
    "fixtures":
        "2792d271741e993828d8adec8b4a139b45ea51d8a313b4531820df1122cf9026",
    "graded":
        "9b0d02e55206168fffd1aca2abad42431c51ae3db3682e3667a48b4d41dfc0f6",
    "random":
        "87a2903aa24e9eb8ab120b3147f48e3d70c352d4a22eec177a6ec28e2c99dfa4",
    "rational":
        "87638acf11a3c762ec680c035ce035ff5662edc62ae3c1382beb67ebc0398ea0",
}

FIXTURES = ("almost_linear", "final_example", "final_variant", "quadric_cubic",
            "table1", "table2", "table3")


def kernel_text(K):
    return "\n".join([repr((K.col_degrees, K.row_twists))]
                     + [" | ".join(map(str, row)) for row in K.rows])


def tower_kernels(inp):
    for m in range(1, inp.n):
        yield tower.hull_embedding(inp, m)[1]
        yield from tower.build_level(inp, m).drop_row_kernels


def random_graded_kernels(seeds, field):
    """Kernels of seeded r x q matrices with q > r and generic entries.

    Entry (i, j) has degree col_degrees[j] + row_twists[i]; for generic
    entries the kernel is free of rank q - r with degrees summing to
    sum(col_degrees) + sum(row_twists)."""
    ring = ring_R(field)
    for seed in seeds:
        rng = random.Random(seed)
        q = rng.randint(2, 4)
        r = rng.randint(1, q - 1)
        cols = sorted(rng.randint(0, 3) for _ in range(q))
        if cols[0] == cols[-1]:
            cols[-1] += 1
        twists = [rng.randint(1, 3) for _ in range(r)]
        rows = [[ring.from_terms({(d - a, a): rng.randrange(field.modulus)
                                  for a in range(d + 1)})
                 for d in (c + t for c in cols)] for t in twists]
        M = syzygy.matrix_from_rows(ring, rows, cols, twists)
        yield syzygy.graded_kernel(M, q - r, sum(cols) + sum(twists))


def kernels(group):
    if group == "graded":
        return random_graded_kernels(range(12), PrimeField(32003))
    if group == "random":
        inputs = (cli.random_instance(len(shape) + 1, shape, seed, PrimeField(p))
                  for shape in ((1, 3), (2, 5), (1, 2, 4), (1, 1, 2, 4),
                                (1, 2, 5, 11))
                  for seed in (0, 1) for p in (7, 32003))
    else:
        inputs = (cli.load_instance(fixture_path(f"{name}.json"))
                  for name in FIXTURES)
        if group == "rational":
            inputs = map(oracle._rational_twin, inputs)
    return (K for inp in inputs for K in tower_kernels(inp))


@pytest.mark.parametrize("group", sorted(KERNELS))
def test_kernels_are_unchanged(group):
    text = "\n\n".join(kernel_text(K) for K in kernels(group))
    assert hashlib.sha256(text.encode()).hexdigest() == KERNELS[group]
