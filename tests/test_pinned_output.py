"""CLI stdout pinned byte for byte: sha256 digests of every command below,
recorded once, so a change to how points are stored or read cannot change
what the CLI prints.  Acceptance criterion 8 compares reruns within one
checkout; this file compares against the recorded bytes.

The inputs cover both points generators, random 2-D and 3-D points, the
hard line, and hand-written files with 1/3, negative decimals and
coordinates past int64 (one whose squared distances still fit int64 after
the shift to 0, and two whose do not).  gen random-metric is pinned in a
table of its own, at n = 1, 2, 12 and 1024: its bytes replay
random.Random.shuffle, and no command above reads them.  A third table pins
the points benchmark's sizes: euclid on 4096 random 2-D and 3-D points, line
on the 4096-point hard line and path on the 2-D set.
"""

import hashlib
import random

from conftest import run_cli

MIXED_2D = """\
1/3 -0.25
-2.5 7
18446744073709551617 -0.125
0 0
-1/7 3/4
-18446744073709551616.5 2
0.001 -0.002
5 -5
"""

MIXED_1D = """\
1/3
-0.75
18446744073709551617
-2.125
0
36893488147419103232
-1/9
4.5
"""

# 2^70 plus the squares 0, 1, 4, ..., 19^2: far coordinates, near distances
SHIFTED_1D = "".join(f"{2**70 + i * i}\n" for i in range(20))


GENS = {
    "hard_line": ["gen", "hard-line", "--k", "6"],
    "hard_line_cut": ["gen", "hard-line", "--k", "4", "--n", "27"],
    "pts2": ["gen", "random-points", "--n", "300", "--d", "2", "--seed", "11"],
    "pts3": ["gen", "random-points", "--n", "200", "--d", "3", "--seed", "12"],
}


def _commands(tmp) -> dict[str, list[str]]:
    """Every pinned command by name; writes the input files into ``tmp``."""
    files = {"mixed2": MIXED_2D, "mixed1": MIXED_1D, "shifted1": SHIFTED_1D}
    commands = {}
    for name, argv in GENS.items():
        code, out, _ = run_cli(argv)
        assert code == 0, argv
        files[name] = out
        commands[f"gen.{name}"] = argv
    paths = {}
    for name, text in files.items():
        paths[name] = tmp / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    one_d = ("hard_line", "hard_line_cut", "mixed1", "shifted1")
    for name, path in paths.items():
        strategies = ["euclid", "path", "ramsey"] + (["line"] if name in one_d else [])
        for strategy in strategies:
            argv = ["order", "--strategy", strategy, "--input", str(path), "--input-format", "points"]
            if strategy == "path":
                argv += ["--tail", "1"]
            commands[f"{strategy}.{name}"] = argv
            commands[f"{strategy}.{name}.dot"] = argv + ["--format", "dot"]
        n = len(files[name].splitlines())
        order = list(range(n))
        random.Random(f"eval:{name}").shuffle(order)
        order_path = tmp / f"{name}.order"
        order_path.write_text("".join(f"{v}\n" for v in order), encoding="utf-8")
        argv = ["eval", "--input", str(path), "--input-format", "points", "--order", str(order_path)]
        commands[f"eval.{name}"] = argv
        commands[f"eval.{name}.dot"] = argv + ["--format", "dot"]
    return commands


def stdout_digests(tmp) -> dict[str, str]:
    digests = {}
    for name, argv in _commands(tmp).items():
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return digests


PINNED = {
    "gen.hard_line": "e14c3c2d3b6de0a3e5971b2bce168146c4a24b751ee1761bd5c7da58e364ee3d",
    "gen.hard_line_cut": "9597484df5e198db2ba48002b586ca5e96bad53562bcf83cd3e4955c1ceae411",
    "gen.pts2": "0c7a3c9c84c4959f4643afed38b6fb0477bc4c332806e0cdc1849a7c039f0d3d",
    "gen.pts3": "49954a6e90eb50c84bee1ba725be02ccd015b9ae8cbca7b2cd813f4e6b90259e",
    "euclid.mixed2": "a886d4eb60dd4278e807b89cb1118af001998b6f3f3c6fefb70851447ac49d27",
    "euclid.mixed2.dot": "d7168d990b824184c11d1ce77c754d03b22390357568276d987a79371221405d",
    "path.mixed2": "9cbbac296b171ba2f40af5aa8e0a3e29a22a147511ca49a002935eedb069ec45",
    "path.mixed2.dot": "b7a063f271d3d76ed77891d5896d667e8f1d77c9cffda558ee86aa60bcf236c1",
    "ramsey.mixed2": "e55a1fee9bad6a8ce0e82f233528c900d0e964b7e5749cc45be55adc019c4f83",
    "ramsey.mixed2.dot": "6c226d488feec76df3a4f4d87610862da3babd1526a13d6bbfe76dd70f0c73db",
    "eval.mixed2": "3d04ed7d76ed28a41b9ab1b8885f673ce41356fae6ceaf733504a23aed599e75",
    "eval.mixed2.dot": "1a2173e52bd5fd34c866f55f07aa4af38ec7d8a6dd30e57a603752c9ccfc0820",
    "euclid.mixed1": "18a0208fa5f6e72a72e0e6aa154987a29e6c67006cd0e3ab1d9fc87c9458c9fc",
    "euclid.mixed1.dot": "375784ba2b155bc239776cd8d535f68d57876013b22b9e8c5aaf0cdfc5afce98",
    "path.mixed1": "d2c7003c91e1873d73d8177fb72ca5345d98c5334a08758dc98fe6a9230bcf33",
    "path.mixed1.dot": "6940807a3c17c3acdf2a6ed5a1dc2290aaa061ab1e1f52d1f0acb5f5dcd493f7",
    "ramsey.mixed1": "9a0f58c298fa557bc1aa98e56093ba0428b5b3d198d09f37de01841364bd6e0c",
    "ramsey.mixed1.dot": "02b3cfda76fc0abb30ee36045fa9c3144bc2bd00f99cdc847ebff826a120560f",
    "line.mixed1": "7c90f8f2c181fb644f01bd3e4da96894bb0bb4c34375c50b8ba59ebe15a3b003",
    "line.mixed1.dot": "314c51c014e2328ddd1304c37fc13dfda9f923e2d137af5edf24beda49f6c4f9",
    "eval.mixed1": "7771ba5c2b692159f268cc14303907b1a1251dbd20f6dbcd2c706b616a699aa4",
    "eval.mixed1.dot": "d5d052c80d1fcdd34d2f6fe7fb1d92ca54ddf97849a8c5b787987240efd00c6b",
    "euclid.shifted1": "787058abe675e68cbf9ff44775248b726a1e89b381644e55e624273926208d67",
    "euclid.shifted1.dot": "508956d277b1925819a50e981bdbf8948134858766f920de7b6ab53f4dcbb0eb",
    "path.shifted1": "55d255a242eb9066045753b69557e04e6bea5b1a4f6517165bdf4afbee88a8ec",
    "path.shifted1.dot": "d1242cc8b7d3f5b6af445c122b7fdc9ae33058a0b4d4a225e446e85cc6a2c43b",
    "ramsey.shifted1": "912cffb0b7c9768761b8881544f980d4038d2f6d6e2318e09b74640a3b76145b",
    "ramsey.shifted1.dot": "886bd9bc8fe5aa7b15d52a68cdaaa9e68e75086f404c77c4d039794f4c6d3d86",
    "line.shifted1": "96b6b93563c3e787c2595c6fac64cfad55fc675374c8b381ab10438a01261d52",
    "line.shifted1.dot": "508956d277b1925819a50e981bdbf8948134858766f920de7b6ab53f4dcbb0eb",
    "eval.shifted1": "e8b324aad1039cc943ad9cd638222fd6ba6e8c46305bd8426b00f3338e4bfcbb",
    "eval.shifted1.dot": "6d78b95caba6db0aa2040ba15ed384f9154d070f1c4afabb08f7cdc2656e268c",
    "euclid.hard_line": "6e7ea28bd97defb1491c949c8aa926d47bf36ebb96230badef205e1111418a25",
    "euclid.hard_line.dot": "7fa288ee6b315fae3a97f3185b858c05a6dc2a5ba5df527bd305429bb2e2da50",
    "path.hard_line": "15a52354d0cdcbd125e3325143f36a54493dc2b86b7ae6925ddef34d8baf8493",
    "path.hard_line.dot": "e8bddd030b83c345b6779a689d8af202225d5079ba2a40c40035979aa7c11792",
    "ramsey.hard_line": "8b61b43cff57aaa7a695a7d0224181145086954e458fecdb808f2b52bbeb5a6c",
    "ramsey.hard_line.dot": "7d8c56e8c03d2dfedc5e921ab4fc460f36903e56e3f4e4f0f01cbbcffb57dfaf",
    "line.hard_line": "414128a187d7c15e98a1352b0ddd3275beff473232da1e3e4d5eba180ef4ad34",
    "line.hard_line.dot": "7fa288ee6b315fae3a97f3185b858c05a6dc2a5ba5df527bd305429bb2e2da50",
    "eval.hard_line": "4d7949a1fcff41a40428efa21d69cf76113274dbb8df929c2faf0b242a9e9390",
    "eval.hard_line.dot": "fe6acb4b87191ae03fcf034a732c9b70a0f7fe050fa8ee8d1baffe814ac8b1d5",
    "euclid.hard_line_cut": "04fd7fc7f28d0a915968fb60f6cdd21c3dc2d873d22d7e1a88841170948872f4",
    "euclid.hard_line_cut.dot": "e7417044ab1bf33cd6ec587b05b667659bb4ec1be27640125451a1b9675be068",
    "path.hard_line_cut": "9e94aa69e0f7f4b01b073facb0611afa48f252f820f28492828329dca578343f",
    "path.hard_line_cut.dot": "bce19ca7d5f634a919ab3e456eac71ddcde5a4d4a7345f0b98d724818342501c",
    "ramsey.hard_line_cut": "3f3a9d6a6485047de1da0ddabe4ae869e327ab2581fa44130515dc33d7c2de65",
    "ramsey.hard_line_cut.dot": "8c12456e9eedb7935e887bac755136fb529e20b10f66dba3e990951a69177ce1",
    "line.hard_line_cut": "3279baf6207bbfbfb425ccc60b79730e4973f3880498b64eb054a438d9f6a68c",
    "line.hard_line_cut.dot": "e7417044ab1bf33cd6ec587b05b667659bb4ec1be27640125451a1b9675be068",
    "eval.hard_line_cut": "3657cf9bcf9cf9352b0a803b06453ebd3dac73a755e8c319295881a615b8ed14",
    "eval.hard_line_cut.dot": "3ef08d2039a4f9e09273468409c01eb02670fcc8ead9c33b50032674580de7a2",
    "euclid.pts2": "ab22fb2a241f435f71c119c6279a629ecd7509b068c236aa81e9592f0a8abb82",
    "euclid.pts2.dot": "8d3c5194341792e36615f7e40d5112cf59fe8a1cb6030e02b64448d2fd25e2c9",
    "path.pts2": "93c160c1b9507006d1f116ecfe3422c98c74fe043f6fced8411818d5a56c220c",
    "path.pts2.dot": "7406d23faa66af9e6aa516e1a0e88aa8258e0fe9e6675eeceed27a4daa4930bc",
    "ramsey.pts2": "5fe3b527535ab1309fed9aa9ace79ca22703ab58797cc10a0208d52eee5dcc1e",
    "ramsey.pts2.dot": "501997023b08fbadc26240ccb0d367fa538e96d05f3602c296845e087a2ef8b9",
    "eval.pts2": "81332b63d9b645da4ca3baaebc1318434be1f3db383c4f972bdad56239d4ac54",
    "eval.pts2.dot": "3593c0888f93cf7b1fdc579c16aece8dd7fa1c5eff8f51f4d28c9f44fae9246c",
    "euclid.pts3": "a8dd00c6315fc0391a01e68d61712034b6f6720bc45c08374888534b1455da72",
    "euclid.pts3.dot": "ead1632f5cfad132bf9c24c6e95188b151a1c84e0cc8e708daef65fbbe3cd2ec",
    "path.pts3": "ad6456a0fbb43ec6990201ab092a784cbb844093670d381378b4c1bc8a2be1a7",
    "path.pts3.dot": "3093dd65d828b9132ead67214b61b85dc2460cfdfbe7b644fb864ef468f66381",
    "ramsey.pts3": "cfc03fb0eea9577c95111fad5f7094aaf1165c9bb5b2d2cc644e6904b5bcd639",
    "ramsey.pts3.dot": "e03bc692f20d4da9476d7f4a1f7559312e3b0741eb9b0eddfa3fc8275c7ea52d",
    "eval.pts3": "57fcf7198f586a55fd3502dd3cf951e63dfa21769e507221b897e236d426412b",
    "eval.pts3.dot": "463c3d9169e7fd2d37c9f369bfeae557483cf099799081810b4820e29614e043",
}


def test_cli_stdout_matches_pinned_digests(tmp_path):
    assert stdout_digests(tmp_path) == PINNED


# The benchmark's sizes, where the cell grid settles most vertices: at
# n <= 300 above it leaves most of them to the blocked scan.
LARGE_GENS = {
    "pts4096x2": ["gen", "random-points", "--n", "4096", "--d", "2", "--seed", "21"],
    "pts4096x3": ["gen", "random-points", "--n", "4096", "--d", "3", "--seed", "22"],
    "hard_line_k12": ["gen", "hard-line", "--k", "12"],
}
LARGE_ORDERS = {
    "euclid.pts4096x2": ("pts4096x2", ["--strategy", "euclid"]),
    "euclid.pts4096x3": ("pts4096x3", ["--strategy", "euclid"]),
    "line.hard_line_k12": ("hard_line_k12", ["--strategy", "line"]),
    "path.pts4096x2": ("pts4096x2", ["--strategy", "path", "--tail", "0"]),
}

# recorded before the cell grid, from the all-pairs blocked scan
PINNED_LARGE = {
    "gen.pts4096x2": "bb1dbb04136a60855bf7e3265da9c5c988853cd778eb73ace39413c37d224ffd",
    "gen.pts4096x3": "9ebe30026723bc563494b8b2d9bf4a5f952a95a6b0323ee4c2c534b208654ba7",
    "gen.hard_line_k12": "20fb43c16b37e0679f95c4d3dc2d38d4aa57d685f3c62cf4fd57b4f6bbba081a",
    "euclid.pts4096x2": "9176fc75c065f8fe08504724e22194e0becde96badfffa8ad7d71557c4c27c24",
    "euclid.pts4096x3": "441721a98dfd8eaa5a75a84dc82636656ef75a692629e9a6f617515e1c86d5f4",
    "line.hard_line_k12": "815911816a297cac5529ace354f7f93e17f9b9f51a7237c0f370000dfaf0418e",
    "path.pts4096x2": "79d5930a89fd7866506fc9286e198ca297c6b83c3eecf6203f6325a41455e18c",
}


def test_cli_stdout_matches_pinned_digests_at_benchmark_sizes(tmp_path):
    digests = {}
    for name, argv in LARGE_GENS.items():
        argv = argv + ["-o", str(tmp_path / f"{name}.txt")]
        code, _, err = run_cli(argv)
        assert code == 0, (argv, err)
        digests[f"gen.{name}"] = hashlib.sha256((tmp_path / f"{name}.txt").read_bytes()).hexdigest()
    for name, (src, args) in LARGE_ORDERS.items():
        argv = ["order", *args, "--input", str(tmp_path / f"{src}.txt")]
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == PINNED_LARGE


METRIC_GENS = {
    "metric_1": ["gen", "random-metric", "--n", "1", "--seed", "3"],
    "metric_2": ["gen", "random-metric", "--n", "2", "--seed", "5"],
    "metric_12": ["gen", "random-metric", "--n", "12", "--seed", "7"],
    "metric_1024": ["gen", "random-metric", "--n", "1024", "--seed", "14"],
}

# recorded from the generator that called random.Random.shuffle itself
PINNED_METRIC_GENS = {
    "metric_1": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "metric_2": "c2908471e4603c8f6ab9f52329290021cb5ba5790af41d584a8400c9fca19c03",
    "metric_12": "81fcda83a88a7e8e3de2ad5ede7539af25f3981e4de45a25e65970e7c62c795c",
    "metric_1024": "47ee0c3b3986391fbb0412e4193c9b9003e6add5147108722c24fdcae09e66f9",
}


def test_gen_random_metric_matches_pinned_digests():
    digests = {}
    for name, argv in METRIC_GENS.items():
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == PINNED_METRIC_GENS
