"""Golden CLI outputs: the sha256 of stdout and the exit code of each command.

The digests were taken from the code before the apex recipe was merged and
the unused surface was deleted; a refactor must leave every byte of stdout
unchanged.  To re-take them after a deliberate output change, print
`hashlib.sha256(out.encode()).hexdigest()` for each command below.
"""

from __future__ import annotations

import hashlib

import pytest

from blowups.cli import main

GOLDEN = [
    (("census", "--threads", "1", "--dim", "3", "--vmax", "200"),
     "8e06d991d8d24c81a67dd475bcb7ef43f8fd575cd4172aa4c77bc34eca2d0af9", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmax", "60"),
     "650e0699d0d2e92390de5d0d2fc16f49c8b8a9ef6dc29cddbb844930e84df6b0", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmax", "60", "--format", "csv"),
     "46f60015a920e6b8be2a38035957df7c4e558cef5d4eac23bba4f2b09affe4ea", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmax", "40", "--verdict", "canonical"),
     "bd9ef032fafb5a63bc171a8be72764c75a97817f7d311ef9e03381d3f929e67f", 0),
    (("census", "--threads", "1", "--dim", "3", "--vmax", "40",
      "--epsilon", "1/2", "--verdict", "eps-lc"),
     "73e662a3ab1e734bb896be27bdd13e64dd96bf61d95a8a61c2cd580dd7967799", 0),
    (("census", "--threads", "1", "--dim", "3", "--vmax", "40",
      "--epsilon", "2/3", "--verdict", "eps-lt"),
     "fc6496ca2d6246718e5d8f19b3822447acfcfa5039c23d1c472199f1ae93651d", 0),
    (("family-scan", "--vmax", "100"),
     "c12c5da38ec8ac82178394d1ab0946c4ea1db781ab78ea7dd212e0dda94f6a08", 0),
    (("family-table",),
     "d89d57f5ae3822c5df7d7406e569fdc2a6f8fa90db391eb7806026190772c53b", 0),
    (("family", "--id", "Q29", "--apex", "2", "--volume", "37"),
     "602f521983ded8876db10e0e6d4623fc11aa0dad9eb6967720213875b040f7bc", 0),
    (("family", "--id", "N17", "--apex", "1", "--volume", "60", "--sign", "-"),
     "36c1f2ccaefc2c61457634c13b22691dfb194bdff4b0100b6fea79426d4af5ee", 0),
    (("sporadic", "--fixtures"),
     "07ecee6fd913e0081f3c71808447ce827894531dd9350594efddf0a99c9b4ae2", 0),
    (("sporadic", "--fixtures", "--format", "csv"),
     "fcc020fbb66b681f3aa45afe28be5950a84af7cd4472debde69bf5350cf51243", 0),
    (("classify", "--weights", "32,41,71,102", "--epsilon", "1"),
     "3d611e184243df57ea67b3de1bd1da00ef980dec9d2b4a60b844e3f2e4c2d79b", 0),
    (("classify", "--weights", "6,6,10,15", "--epsilon", "1"),
     "9125693da2ffc67031dedef2769188a822c483ae9364a683b4ab2233f199e181", 0),
    (("classify", "--weights", "20,57,133,210", "--epsilon", "1/2"),
     "9daa637308c04c40c361e5d57ff3cc5cfaa79a55d1c90ab72f804eb520b04550", 0),
    (("classify", "--weights", "3,5,7,11", "--epsilon", "2/3"),
     "f1b862998dbc0a42fade2e9e4d18e81d6153c5ca4330a2258a1a9ab0cc9e3a33", 0),
    # witness-bearing outputs of the coset enumeration, taken before its
    # running-sum cutoff: a boundary witness at eps = 1, the same class k = 8
    # interior at eps = 1 and boundary at eps = 1/2, an interior one at 1/2,
    # and (7, 8, 8), whose boundary class 17 comes before the interior class
    # 20 that must be reported
    (("classify", "--weights", "2,3,5", "--epsilon", "1"),
     "627d3a3516138f85cdaa7da0c49f7f2360294478469e9bf51182e55f1feb33ad", 0),
    (("classify", "--weights", "3,4,4", "--epsilon", "1"),
     "db9d3dda3dba198955a724f4630dd46280623145e1bd64afd06572cef8fe8dc7", 0),
    (("classify", "--weights", "3,4,4", "--epsilon", "1/2"),
     "a9b30b145bcb00119657af75ea2b70b4c1668cd5b5d591a9a31fd0b50a279a5c", 0),
    (("classify", "--weights", "4,5,5", "--epsilon", "1/2"),
     "b013f3dc229862d83a6cdd655641efc21b33314993d37ff2d0fc3ec992094266", 0),
    (("classify", "--weights", "7,8,8", "--epsilon", "1/2"),
     "367f210fb758e055b0f86c9a0f7b7437e6504baa63ce75671aac6870cca624fc", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmax", "40",
      "--epsilon", "2/3", "--verdict", "eps-lt"),
     "1d14b3a4a03d0c673b5c998e8b1f15c7b12c26b9e75b21df09da2aa361434838", 0),
    # taken before every command wrote its output through `main`: bound mode
    # (which ignores --sign), a width with repeated points, and a refused
    # sign that writes nothing and exits 2
    (("family", "--id", "Q2", "--apex", "3"),
     "7a7821b23e72cbc955ae776e74cda7a6ded9e86be5b8238a0a3bcb22038d9596", 0),
    (("family", "--id", "N7", "--apex", "1", "--sign", "-"),
     "f0469743370b795628b65270bad00017d52a2186ced107e0f85e6c990a87c1af", 0),
    (("width", "--points", "[[0,0],[2,0],[0,2],[0,0],[2,0]]", "--origin-index", "0"),
     "7660ea45b1e163c7c92f03ef3c3f7165142613f156e5953069fed09ccac8bc29", 0),
    (("family", "--id", "N1", "--apex", "4", "--volume", "4", "--sign", "-"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    # taken before facets were found by one supporting-hyperplane test: the
    # k = 1 and k = 3 widths
    (("width", "--points", "[[0],[1],[-1],[0]]"),
     "49f9861adca54b756a4ee655a7a72b482c0d9b5a234acdd9dd386d992c8b35b8", 0),
    (("width", "--points", "[[0,0,0],[1,0,0],[0,1,0],[0,0,1],[1,1,1]]"),
     "6e7371c37d4688a5a56a68c94a25094187ef757e2b7d1a56735892c6302e0f63", 0),
    # taken after `ell_L` returned None for a facet holding every non-origin
    # point: the facets of the plain triangle with "ell_L": null
    (("width", "--points", "[[0,0],[2,0],[0,2]]"),
     "71e7519c65227cfdfb9bb2405e9f942c2cc14cd5cb0b43df5817c455a82635d0", 0),
    # taken while witnesses still stored their translate and point: V = 1
    # (the enumeration listed only the three vertices), the p_i = 1 vector
    # (1, V), and a census at eps < 1 that classifies many witnesses
    (("classify", "--weights", "1,1"),
     "a6b71e8daadd77978df66338684629a5f115d79e96a5e773c9eb16a4b9276f09", 0),
    (("classify", "--weights", "1,300", "--epsilon", "1/3"),
     "bb61013dbb2a5b5f8f4083f39998f26681bf1f81c6c458afa484e54d03ee8b79", 0),
    (("census", "--threads", "1", "--dim", "2", "--vmax", "150",
      "--epsilon", "3/4", "--verdict", "eps-lc"),
     "918bcaf6d323df520dc4be9087766b7bfd8c1d9c86b6e360fb5dfd6e27146f56", 0),
    # taken while every census hit still went through `json.dumps`: an empty
    # hit list under a non-null min_weight, and a census from --vmin 30
    (("census", "--threads", "1", "--dim", "4", "--vmax", "40", "--min-weight", "100"),
     "b282bcde0695b32e8d6e7543a821a126f9212a17bd5030332e29854b4d7dc3f2", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmin", "30", "--vmax", "60",
      "--min-weight", "5"),
     "64ae416c91c52bfcbd58b8090e1e38785774b896a176f76aaced1535389a995f", 0),
    # taken while eps < 1 censuses still went through `classify`: a d = 4
    # census in each eps verdict, and (1, 2, 2, 2), whose witness is the
    # self-complementary class k = V/2 = 3
    (("census", "--threads", "1", "--dim", "4", "--vmax", "30",
      "--epsilon", "2/3", "--verdict", "eps-lt"),
     "c8761d6798a680cfbfc4a1d791740756e7b51c0c61597f4cac04da1bd7787123", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmax", "30",
      "--epsilon", "1/2", "--verdict", "eps-lc"),
     "065effd1e1b7d60ae5585f5cadf6c0d3843710b923faddaef96a695fc465ece5", 0),
    (("classify", "--weights", "1,2,2,2"),
     "71386c903b38136be277f54deb9391faabd1ca6404bf9413f4859f5911302a1b", 0),
    # taken while every census candidate still went through the scalar
    # residue pass: d = 5 censuses in both eps = 1 verdicts, and a band of
    # large d = 4 indices
    (("census", "--threads", "1", "--dim", "5", "--vmax", "30"),
     "9b9ea4f936d7190d0aa17c85ff2c1fd0f961b439e754867d4fcddd64838fd0b3", 0),
    (("census", "--threads", "1", "--dim", "5", "--vmax", "24", "--verdict", "canonical"),
     "08ae97ebec297e7209aaffd778e96d5c19893f7bb023cb863649b79af94d76c6", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmin", "120", "--vmax", "124"),
     "a2fda96c1894b24a2b51a4a3d11720fb636f635ae2be7de152e7b9ed782a0965", 0),
    # taken while census verdicts at d >= 4 still placed each packed class
    # with `place_class`: the interior masks at eps = 1 and 1/2 at large V,
    # and the closed masks at a denominator of 5
    (("census", "--threads", "1", "--dim", "4", "--vmin", "120", "--vmax", "124",
      "--verdict", "canonical"),
     "9e0564742a46baa8f82c71954d1c9ac59f8350bc001e93c67181c7e7d88017f9", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmin", "120", "--vmax", "124",
      "--epsilon", "1/2", "--verdict", "eps-lc"),
     "ec33e682c9a1a95c01fa6bcb8d03fbb6960d130707399cc2d4238572b148fa91", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmin", "100", "--vmax", "102",
      "--epsilon", "4/5", "--verdict", "eps-lt"),
     "3f4a9a158a5f90fa405f47fb2a021c0cd6e4257e4a8f0919c092223e4ab14c77", 0),
    # taken while d = 3 censuses still took the scalar pass and packed rows
    # had hex-digit fields: d = 3 in three verdicts, across V = 171, where
    # d*V passes 512, and d = 4 across V = 128, where it does the same
    (("census", "--threads", "1", "--dim", "3", "--vmax", "120", "--verdict", "canonical"),
     "2f1d296186bade59d914ff5fe2e1b4225886841850d2f7285672426a7d6a0bfb", 0),
    (("census", "--threads", "1", "--dim", "3", "--vmin", "168", "--vmax", "173",
      "--epsilon", "4/5", "--verdict", "eps-lt"),
     "ba77bb6ce594572193caa66cdb003549c23c257f0b4789114a5e63e3fc5f89dd", 0),
    (("census", "--threads", "1", "--dim", "3", "--vmin", "168", "--vmax", "173",
      "--epsilon", "1/2", "--verdict", "eps-lc"),
     "6622fe1d15b18851b6fa70c1663d6db2f25d4e05aad74e5ddfa2dd544f818e3e", 0),
    (("census", "--threads", "1", "--dim", "4", "--vmin", "126", "--vmax", "130",
      "--verdict", "canonical"),
     "96006d9a1bbc8e8447afbf95848666a0e5de33a7e012e860d3998ad71b4c6c94", 0),
    # taken while packed census blocks still answered through the kernels and
    # summed all d rows of each candidate: d = 6, the first dimension whose
    # blocks keep a prefix of four weights, in two verdicts
    (("census", "--threads", "1", "--dim", "6", "--vmax", "20"),
     "287058355bbf5efd87ca481dc7b3b079ffae30101ee3d67ee1c8d11bc6abef42", 0),
    (("census", "--threads", "1", "--dim", "6", "--vmax", "20",
      "--epsilon", "1/2", "--verdict", "eps-lc"),
     "0787a3f14c3155005994fb611693d33b6ee33804fb848e3c5ff082591f1783eb", 0),
]


@pytest.mark.parametrize(
    "argv,digest,code", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_golden_output(argv, digest, code, capsys):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the help text of the parser and of each subcommand at 80 columns, taken
# while `--out` still came from a parent parser
HELP_GOLDEN = [
    ((), "b8de8bdc658b1a1d86440cd6bd5f5dfdf583509eea1b5e476b4259b21fe19a51"),
    (("classify",), "5ae3c8f2bdc4310fd747f27a105a578509895d412cdfe0095bf092cb1d77806b"),
    (("census",), "a1669a909fe84328259429fec3a81b7d1394c70b0c5a7bed7ecb524a01d0ca2d"),
    (("family",), "5b0737726101693189823d37b9d9a0026225a344b88eb980c459543f5d82d2f2"),
    (("family-table",), "72422cb4fd0c625445f785d728c7893f947709d9c82df83bd6debda8a15ed5d2"),
    (("family-scan",), "200bc38a0ebf3246e6f298b04a78b448122e2c4f795121463991a7ba6320ccae"),
    (("width",), "a8dd3731b2b2eab9cf84618852af7b9613ab44d943536ea8c810f5e7200a900a"),
    (("sporadic",), "c5c41ebcba6728a1023a92e8ee48edcd231a540118241f7f815de176d776b3ae"),
]


@pytest.mark.parametrize(
    "argv,digest", HELP_GOLDEN, ids=[" ".join(argv) or "blowups" for argv, _ in HELP_GOLDEN]
)
def test_golden_help(argv, digest, capsys, monkeypatch):
    # argparse wraps help at $COLUMNS, and from Python 3.14 colours it
    # unless $PYTHON_COLORS is 0
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHON_COLORS", "0")
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
