"""sha256 of the inference commands' output, pinned the way criterion 10 pins
``simulate``: a change that alters these bytes on purpose re-pins them in the
same change.  The bytes rest on numpy's SIMD ``log``, so the digests hold for
one numpy build and set of CPU features.

The sample files are fixed decimal text built by integer arithmetic alone,
so they do not depend on any random number generator.
"""

import hashlib

import pytest
from click.testing import CliRunner

from expoverlap.cli import main


def _sample(n, step, places):
    """n observations k / 10**places, k = 1 + (i * step) mod 9973, as text."""
    ks = (1 + (i * step) % 9973 for i in range(n))
    return [f"{k // 10 ** places}.{k % 10 ** places:0{places}d}" for k in ks]


PAIRS = {
    "40x35": (_sample(40, 7919, 3), _sample(35, 104729, 4)),
    "1000x3": (_sample(1000, 7919, 3), ["0.4", "0.9", "2.6"]),
}
FORMATS = ("table", "csv", "json")
CURVES = ["curves", "--r-min", "0.05", "--r-max", "5", "--points", "41"]


def _runs():
    """Run name -> (sample pair or None, CLI arguments after --format)."""
    runs = {}
    for pair in PAIRS:
        for fmt in FORMATS:
            runs[f"{pair} estimate {fmt}"] = (pair, [fmt, "estimate"])
            for level in ("0.9", "0.999"):
                runs[f"{pair} ci {fmt} {level}"] = (pair, [fmt, "ci", "--level", level])
    for fmt in FORMATS:
        runs[f"curves {fmt}"] = (None, [fmt, *CURVES])
    runs["check json 7"] = (None, ["json", "check", "--seed", "7"])
    return runs


RUNS = _runs()

DIGESTS = {
    "40x35 estimate table": "4ee73dc1d74e4fbf8598a177d7d6caba6e0495401990e86ca7ba523f222646a3",
    "40x35 ci table 0.9": "6194cf7bc975ad0531a05dd123651b019c61661b27971bcae56fcc787baded92",
    "40x35 ci table 0.999": "d7e4626fb2271f16dcd282cf91908e67afe785d11059f6a42c35ba4ef31a6692",
    "40x35 estimate csv": "7f679bfb3450662251a52cddec57ff0476cbb242d70aa963040504a94de7b9ab",
    "40x35 ci csv 0.9": "0999eaeba285e04d35063ceca73535773ddebcec6b379a7b7295a727cf61005a",
    "40x35 ci csv 0.999": "933050cca49b03cbdf201f519995de23623359b5951631be491d2bd8478de4f8",
    "40x35 estimate json": "a8b39c023c9a397e5addc23ad8e382f57a8ad44638372e284606e2795ba23e82",
    "40x35 ci json 0.9": "734efbf87f2f67746bef01e2e508f43320913c2eda371668ddd3dcbb554814d6",
    "40x35 ci json 0.999": "02568bc588f6d5ae929160e4bf1ad97a90a4da88db48b386905ff3575e3b372d",
    "1000x3 estimate table": "9ef19d93d7817d8887900bb245a5f5b2b70a8971e28210110f521f834f62c4a1",
    "1000x3 ci table 0.9": "e6eb9fcf63441c7ed5d6599837c7e6c46402265e3da84b3d075579d6124cf07d",
    "1000x3 ci table 0.999": "680f277bf6684c9f5b1193a36d0e9bcce55d62e651cbe06c6fac99518121bd22",
    "1000x3 estimate csv": "b1c1a9c8ae2ddc222a197234ff46d85d6a696595c10917b4eccfd6e41cfd5d69",
    "1000x3 ci csv 0.9": "77924d0d78242e70633e73cb949c083e0e257f3d80ce4bbc59026bbefcd0c278",
    "1000x3 ci csv 0.999": "9be2bebfa2085d249bd6cdee1494539a28f9d1d0ff5b099961171ed6da6ca48c",
    "1000x3 estimate json": "d79c6393f13fb262f8fca62466995c73a042926f6b59af296c73c638ad1af290",
    "1000x3 ci json 0.9": "8ddf1ae7a956f86551b144622b294cf9a93e26023c63bd11ff5806b4bb7df7bc",
    "1000x3 ci json 0.999": "4fb00a8d4b7d6adc2958a81fe8110849e25ad0cc6687f9bc40a8ea898e1914e5",
    "curves table": "c9a3aa26b3af81519900ef4ed1819d65d5abf34997712a244d65b44008491e1b",
    "curves csv": "1fe8ba54bfcdb218382086e7dd684ed5f54eb08cd5abe703f43ef09c46d1ccba",
    "curves json": "8757a1441ac56ffd8d806a85f7834690682702cd176deb6d53fc2bcd0b6e9af9",
    "check json 7": "0c34df2bf456682bf9ce6584b70fa45800d02be6ed4e67abe5f37a8b0393fea2",
}


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("samples")
    files = {}
    for pair, samples in PAIRS.items():
        paths = [root / f"{pair}_{i}.txt" for i in (1, 2)]
        for path, values in zip(paths, samples):
            path.write_text("\n".join(values) + "\n")
        files[pair] = [str(p) for p in paths]
    return files


@pytest.mark.parametrize("name", list(RUNS))
def test_inference_output_digest(name, sample_files):
    pair, (fmt, command, *options) = RUNS[name]
    args = ["--format", fmt, command, *(sample_files[pair] if pair else []), *options]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == DIGESTS[name]
