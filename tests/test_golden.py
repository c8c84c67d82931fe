"""Golden outputs: the sha256 of stdout from in-process `qlatin synth`, `gen`
and `claims`, in JSON and in the pretty format, of every plan `synth` would
write for m = 2..6, and of every attainable range for m = 2..8. Outputs must
stay byte for byte the same across performance and refactoring changes; a
digest here changes only with a deliberate change of output, recorded in
CHANGES.md.

To print the digests of the current code:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json

import pytest

from qlatin.cli import main
from qlatin.synthesis import plan_for, valid_cardinalities

from test_acceptance import GENERATOR_IDS

# (m, c) over m = 2, 3, 8, 16: QLS8-low, QLS8-c57, QLS8-high, low, low at the
# paper's order-12 target 105 (the planner has no order-12 special square),
# high, the low and high regimes at order 32, and the high regime at order 64,
# the largest order the cli_pipeline benchmark writes
SYNTH_TARGETS = (
    (2, 8), (2, 57), (2, 64), (3, 14), (3, 105), (3, 144), (8, 40), (8, 1000), (16, 4000)
)


def _stdout_digest(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _cases():
    for m, c in SYNTH_TARGETS:
        yield ("synth", "--m", str(m), "--c", str(c))
    for gid in GENERATOR_IDS:
        yield ("gen", gid)
    yield ("claims", "--format", "json")
    # the pretty format, which renders each value with RadExt.__repr__
    for gid in GENERATOR_IDS:
        yield ("gen", gid, "--format", "pretty")
    for m, c in ((2, 57), (3, 105)):
        yield ("synth", "--m", str(m), "--c", str(c), "--format", "pretty")
    yield ("claims",)


GOLDEN = {
    "synth --m 2 --c 8": "ac226b715fcbd481155aa0b7d39bac10db394a807da2e433f72eb031f57c88b2",
    "synth --m 2 --c 57": "52452d003cbf08997b6cf7684647be1046b90c104a9e6a334b6eadb080b7e1cc",
    "synth --m 2 --c 64": "f604abb184d877bdb9cdd90aa5d7cc96865b23f1bc339ee9b80887680b88f7f1",
    "synth --m 3 --c 14": "1a493c12abfdd4696d55ec9e735e31ee3efef12b6436d694d18efa862533a4ef",
    "synth --m 3 --c 105": "c24e895a2d8762579b10db4a2e857f86565fd405af03e1c9e5ea8a1bf918035b",
    "synth --m 3 --c 144": "f7ce97a01c8919f601be8ca9d5399f5ad9a021aecfe3c25904a3c217bf9fde66",
    "synth --m 8 --c 40": "35ae1abe5885b31d002ea94da76252e0807035991081b6ce1c311cd448b29aee",
    "synth --m 8 --c 1000": "c383bbaf0c9323e68cdcc75f8119e7947fc20355ac1996bde7c19fd463f1eb3d",
    "synth --m 16 --c 4000": "536ce252cdf3d6157fe408fcd10996179cd512402ec51392248d75bdbff4da99",
    "gen H(0)": "9748aec0bb64cce85607cdd5a54cf9b1891aca5e03c6a7060ffabcc3c6e9cdf0",
    "gen H(1)": "c9ff5920a34f008fac7eaee0cfd73db85c7577ad7c59595a6432320860a8acb0",
    "gen H(2)": "7fcbe7410d4cddbab20038ac7ec6f63736ab26085e683e4d0be9c6beffe011a0",
    "gen H(3)": "3ce9d4ed69f5993dc1ace0386db24b3f75eae8a3436355587b51360fe6a6ad6a",
    "gen H(4)": "155d4c84ca967bdb19b8b2bf317e198bc0b1e1a819abba75fa87a8f43871800e",
    "gen H(5)": "68b85883e696b0a26ae068f53a6a977083c0daa486d17574e260807725624911",
    "gen H(6)": "0340dd0cd03a47a1eb37531df4034db0e067cc370492d17e7a0ba4459b183972",
    "gen H(7)": "b50405dbc935520ae99c1b17f9b213ead19d019a08e2f045f29004cb1d6433d0",
    "gen H(8)": "1f7b8acd58d623d48f27d2ff9767dc49bd046b11187917f654c5e23ec296b7a7",
    "gen Hprime(2)": "285ab693b21c302d385459ffbb5862e33f288edb03067776e673448ec26b94b2",
    "gen Hprime(4)": "84612b85d1c08fdb5bc9aa0bc40f2b883dc7ce46c05a798a43aaea148aa3d14b",
    "gen Hprime(6)": "24734c6ec9d1cb4e7cb453ca476725db798cf6d762035ace3b7d9bf953a2f125",
    "gen Hprime(8)": "26db9cac8408ebccc5e07045b668c83407eb3b250f719b998934018e3c0e8dfb",
    "gen W0": "738d801351e4d73311c3be97d50c1da439927be043652001b0c1104d831212f9",
    "gen Wk(1)": "9c5e6e607a8c243ec1a30b29cc0bb66d273ef650960ad98101af3bb274be93b2",
    "gen Wk(2)": "e6debf1623e83b55a07b751ccbe2bc2c0dcbbdf27573efdb347832f79c95729c",
    "gen Wk(3)": "6bb8282d067e9542a8d1a8884772d17d7fb30fc3cd0581176c5e2010b39fd218",
    "gen Wk(4)": "4ad37385ea9e72bcf79232ac0383b991b0db65980f4c19d7f164fd5ef19f1009",
    "gen W(5,6)": "e9c290880366d21504ec133ba505688bf26376b75b123482f4380f23c44c0a26",
    "gen W(7,8)": "fbbda25523b68bc3cd92cb51e0a52eccee522111c6be2cafa21e6f259457cec2",
    "gen A(0)": "13f03e52889cfb2c732f3fd572021e50720a0fab82cdf5c499a011a3a0525f83",
    "gen A(2)": "b46354214814e1633a3454c550e1df7a7d4f3ca3dd6f52e2eb576e0e5d8c160f",
    "gen B(3)": "9bcca2d0216b3e3a830b1b5b85b85de6fc635aae028b0d3fdebe60eeccb5a375",
    "gen C(1)": "4119d86c17752d36e79dd23d310a7d6569982c977c8701e5eb60656efd0ce58a",
    "gen D(4)": "2220ec6df7960fb80f512e5b379c8d6375b81ecc5bbc9f4b33c9f959fb393123",
    "claims --format json": "b5859d9ef6472185cde004ed0ec082a6f7c8ab7b1290c189ed2b02f9a3d63761",
    "gen H(0) --format pretty": "77b573f1ad119a6769b674b99c384aea7722402d7917077e57aa1f815001aa60",
    "gen H(1) --format pretty": "30a89cefca39022c04cecde96f831ad0572461b20c5bc84a1f22bf1a86694344",
    "gen H(2) --format pretty": "8e33931e4f294bf5370192e3ffeb0817b23bc1d9392b3ae127508c5059b5de73",
    "gen H(3) --format pretty": "b62d9bf8621c3f514fdb464895640fc6cad842b8413facf45dcc367bb3c9aabb",
    "gen H(4) --format pretty": "cd9bc55e23a934e3b2f6ad39017dddfbc71affc7de07384bc6acd9bd4fdfc8fe",
    "gen H(5) --format pretty": "9adbd8809a8890357861de5f330f17bf4e6034d588389c22bc69375415d79553",
    "gen H(6) --format pretty": "5c7407b86d97234ceb4b6d264a549414914d0f16bfce0f85c04d4808faf8704c",
    "gen H(7) --format pretty": "b7f0a7b91938bcf3e253db07b253adde52fe75ef7ba9b8e23bfcd2b44ee80c5f",
    "gen H(8) --format pretty": "379dad257f0a43564d60793bee62dfe9119612f7f4bdef13ea7f9a49ebb00e49",
    "gen Hprime(2) --format pretty": "e144c026d4eadb8d29291e78fb50d699edb929ba2b40c89183b01a1e5a3ba7c0",
    "gen Hprime(4) --format pretty": "292640571212cf9315b1d35a9721a64d8b0976a7551ff17d3ba0c91b64fee78a",
    "gen Hprime(6) --format pretty": "f00833d955f26a68d2cdbac46337be79f3f5de4d54ae8eee80268d59d3ea8c14",
    "gen Hprime(8) --format pretty": "027eeb63205299345113a90f37ac17fb09e8907ecb952dd2b383449b7cf60bad",
    "gen W0 --format pretty": "8f80e26990b9253ac3c239ea8f66f98076cd9198994881edba6a85fd02d37e64",
    "gen Wk(1) --format pretty": "8df31f29bba440d7420bd1d17d23996fd425919ba3a38150616a824f576e97fb",
    "gen Wk(2) --format pretty": "8c1ac8bcec09b7dedefeb76e3c7f72bca6b483f446b783997ea08934f1e4b050",
    "gen Wk(3) --format pretty": "4a0c9698c88d776677e9a0ef98bc95d18c487b483c3b66bd49ddfdcb76e1a938",
    "gen Wk(4) --format pretty": "def1bdf9d6bb4ee185b15f890eaf7a6248744684f046856f348056abaed94f69",
    "gen W(5,6) --format pretty": "0499848dbdfe39817c8340d45a82e6ea793331bda1085f3a23a2915fb101cfcd",
    "gen W(7,8) --format pretty": "9b74d66ab087279a20a9bf0c0263e83ff848cfa55e29287b6d07f8ed4c5fba13",
    "gen A(0) --format pretty": "66c1de72090ad48ec7f75e88233f25db1d5f11f90b88fe63bafa742fd3354d04",
    "gen A(2) --format pretty": "3675f5298525d8f28faecd22da6ea290c386d9c9ec39831d58c8e303292b9da5",
    "gen B(3) --format pretty": "de95dbd4106748e491d36f4bccf23ce40a8e20c50affcada0abeba9e44eb19cb",
    "gen C(1) --format pretty": "5c7f2db0af374e690f60fc7311f4b427399b687abe3413c75f47dfe29fafd50c",
    "gen D(4) --format pretty": "d146204259b27a10e5002a499668c04c2782d34f585c6cb955e32682c6f9e56d",
    "synth --m 2 --c 57 --format pretty": "0bf613639b495ec842ad365d3a6ba7532af2dd05f4c8062168314818ff7cac75",
    "synth --m 3 --c 105 --format pretty": "ac672698455f6b0171ccbf3fc9bf42c5fbb0db0c4b6d0e2bbdd91f9932654b38",
    "claims": "e7b8d785d6a1153ffbb4025437e2e0941ad10ff132c77c843398f2ad7a3b74fd",
}


# sha256 over the plan JSON `synth` writes to stderr, for every valid target
# of m = 2..6 (1,360 plans), in order of m then c
PLANS_DIGEST = "49c4178331e8454bbf924021bedd8a4c3914f0fd9a7c50a3686da82493764d7e"
# sha256 over one JSON line per m = 2..8: lo, hi, excluded and the sorted
# low-reachable, high-reachable and special cardinalities
RANGES_DIGEST = "5e9d70477e89f57f28fd183f1292b1cff58b527c01a02932b6560efa3dc0976f"


def _plans_digest() -> str:
    h = hashlib.sha256()
    for m in range(2, 7):
        rng = valid_cardinalities(m)
        for c in range(rng.lo, rng.hi + 1):
            if c != rng.excluded:
                h.update((json.dumps(plan_for(m, c).to_json_dict(), indent=2) + "\n").encode())
    return h.hexdigest()


def _ranges_digest() -> str:
    h = hashlib.sha256()
    for m in range(2, 9):
        r = valid_cardinalities(m)
        fields = [r.lo, r.hi, r.excluded, sorted(r.low_reachable), sorted(r.high_reachable),
                  sorted(r.specials)]
        h.update((json.dumps(fields) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("argv", list(_cases()), ids=" ".join)
def test_stdout_is_byte_identical(argv):
    assert _stdout_digest(*argv) == GOLDEN[" ".join(argv)]


def test_every_plan_is_byte_identical():
    assert _plans_digest() == PLANS_DIGEST


def test_every_range_is_byte_identical():
    assert _ranges_digest() == RANGES_DIGEST


if __name__ == "__main__":
    for argv in _cases():
        print(f'    "{" ".join(argv)}": "{_stdout_digest(*argv)}",')
    print(f"PLANS_DIGEST = {_plans_digest()}")
    print(f"RANGES_DIGEST = {_ranges_digest()}")
