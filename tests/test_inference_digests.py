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
    "40x35 estimate csv": "d2e4cf9418de64d9085fe8380b91f3b95d30cfd0a53b7bc7e0315da09b6ac51c",
    "40x35 ci csv 0.9": "396ee92ec7615b899b0236319300d7076984a8ab88becfe0b16f45741ce0e76c",
    "40x35 ci csv 0.999": "27272e3b1fbbc184737cd36fa3a407155dcc077a74f50e145ee24f975555833f",
    "40x35 estimate json": "1f23cbf3a1c55fb9c7ae2ac4ca0d572c7f15a81a9d6c5b0ee6066455783687df",
    "40x35 ci json 0.9": "4958e4ef57f2f14a2187886f3d50686c8d0cf895bcf9122407a8b591ef2dc8d1",
    "40x35 ci json 0.999": "8e292a31199221579808fd662c69241215af1c0a28440fc5c8674515131ccd9f",
    "1000x3 estimate table": "9ef19d93d7817d8887900bb245a5f5b2b70a8971e28210110f521f834f62c4a1",
    "1000x3 ci table 0.9": "e6eb9fcf63441c7ed5d6599837c7e6c46402265e3da84b3d075579d6124cf07d",
    "1000x3 ci table 0.999": "680f277bf6684c9f5b1193a36d0e9bcce55d62e651cbe06c6fac99518121bd22",
    "1000x3 estimate csv": "facac204876cca14d533d40e1af9ecf29aed930d80a88e38a799e8ba24944f12",
    "1000x3 ci csv 0.9": "b79d0f21ba54c385a270b15a8b3cb3ace233421bfbfb3c6f1ff41b5bb1a10b37",
    "1000x3 ci csv 0.999": "e8816581c96c1e1747e93a7cd2c4d0d4f2058275d8560a9bee84251b05aade99",
    "1000x3 estimate json": "b47cac29674a91d3cc3d4c2c610f8acd570bd187ce0fac912834e74d46030db8",
    "1000x3 ci json 0.9": "8df1801ff390b2eb7356b93d1fff78404c99c5ec40b9ccbcb153a1ba25dc8103",
    "1000x3 ci json 0.999": "c2a89d9452be11457f4e00ff2ffa5c1466ab10de67a10f19d602a4ed968c2b09",
    "curves table": "c9a3aa26b3af81519900ef4ed1819d65d5abf34997712a244d65b44008491e1b",
    "curves csv": "06b29cfd1ddf410dbc0c5d2e81c928a5f040c989a0a2fd0d58ad25afad80fc20",
    "curves json": "4325eea7d35c9a6a45ddd8bca9e31a22a61e191c3f7bd7d202e1827331d7d99c",
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
