"""Byte-level pins on the tree outputs: DOT text with its line order, the
count table CSV at one and two workers, and the enumeration order.

The digests were recorded from an earlier, independently written version
of the walks, so a refactor that reorders or changes any output fails
here even where the membership-level tests still pass.
"""

import hashlib

from semiforge import count_matrix, enumerate_genus, export_tree_dot

DOT_SHA256 = [
    "491ea2deae80590093fa214d1f82f8f91f39f6f7b7de85625985212a9eea4d2e",
    "c911f615b33f2203ff8a08557f3d0d556bca055c53e07a6686248eb864d834a5",
    "859748ae9b606e9582b929b33d052772477a7ae3b6666dfbbb6688beed96ce51",
    "8c7a3434532ca88a7ceb49f074e0caa4063ae5124aff931598fb9bc40b96b505",
    "28fc692878a7109e8975630e9bb0ec147c9f5b9f2f2874792c6476ca94d2daaa",
    "b2e99d937608447d4cda00fe6f8250e26798b982578a51973d76ba24677d14ce",
    "159a97c412c4d989ed6d7fd1753cf93cba0c9710fc4768e2748c04cd50b35244",
    "4c046d050531aaa6ea7b1d3cb7369061fc2f650a304ea980dac170cf62574c6d",
    "8dcf49a9bd4915b8b5466ff0809dc7822c62980a034d53558ed9be4c927b46b1",
    "99bde42d9d302d8346d8444f38e6f2fdf0ae4a559c1b8ac2b44711616bcc1797",
]
TABLE_20_SHA256 = "00a046a3340f072f55e5ab73cfd377768e14a8008213730e16470c05f96be324"
ENUM_9_SHA256 = "118a8049777e8473aac8acef15eb69b96d66424d95c48c5bc97a4e1f03e8b0ff"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_export_tree_dot_golden():
    for g, want in enumerate(DOT_SHA256):
        assert _sha256(export_tree_dot(g)) == want, f"genus {g}"


def test_count_matrix_csv_golden():
    assert _sha256(count_matrix(20, workers=1).to_csv()) == TABLE_20_SHA256
    assert _sha256(count_matrix(20, workers=2, split_depth=5).to_csv()) == TABLE_20_SHA256


def test_enumerate_genus_order_golden():
    order: list[str] = []
    assert enumerate_genus(9, lambda s: order.append(s.gap_string())) == 118
    assert _sha256("\n".join(order) + "\n") == ENUM_9_SHA256
