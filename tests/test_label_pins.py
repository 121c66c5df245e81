"""Every label set of the default grid, pinned by one SHA-256 per cell.

The pins cover each (p, e, f) cell of p <= 5, e <= 3, f <= 3: per class of
the character, h1 and W'; per grid point (chi2 class, r), the labels of
``j_v_ah`` (or that no shift subset exists) and ``l_v_ah``'s labels and
exceptional flag.  W', the signature records and the index tables feed all three routes
alike, so a bug there moves every route together; the pins see it.

The pins were computed with the brute-force route, ``j_v_ah_bruteforce``,
standing in for ``j_v_ah`` both here and inside ``l_v_ah``:
``cell_digest(cell, j_v_ah_bruteforce)`` with ``serre_basis.j_v_ah`` patched
to it.  The test recomputes them with the constructive route.
"""

import hashlib
from itertools import product

import pytest

import serreweights.io_cli as io_cli
from serreweights import (
    FieldParams,
    NoValidShift,
    char_quotient,
    character,
    exponent_class,
    h1_dimension,
    j_v_ah,
    l_v_ah,
    ts_profile,
    w_prime,
    weight_from_r,
)


def _labels(labels) -> str:
    return ",".join(str(label) for label in labels)


def cell_digest(cell, route=j_v_ah) -> str:
    """SHA-256 of the cell's lines: h1 and W' per class, then per grid point
    the route's labels and ``l_v_ah``'s exceptional flag and labels."""
    p, e, f = cell
    params = FieldParams(p, e, f)
    zeros = (0,) * (f - 1)
    lines = []
    for c in range(params.tame_order):
        chi = character(params, (c,) + zeros)
        lines.append(f"{c} h1 {h1_dimension(params, chi)} W' {w_prime(params, chi)}")
    for _, _, _, chi2_class, r in io_cli._cell_instances(cell):
        chi2 = character(params, (chi2_class,) + zeros)
        chi1_class = exponent_class(params, tuple(ri + e - 1 for ri in r)) - chi2_class
        chi1 = character(params, (chi1_class,) + zeros)
        try:
            profile = ts_profile(params, r, chi1, chi2)
            chi = char_quotient(params, chi1, chi2)
            j = _labels(sorted(route(params, profile, chi), key=lambda l: l.sort_key()))
        except NoValidShift:
            j = "no shift"
        try:
            result = l_v_ah(params, weight_from_r(params, r), chi1, chi2)
            lv = f"{result.exceptional} {_labels(result.labels)}"
        except NoValidShift:
            lv = "empty"
        lines.append(f"{chi2_class} {r} | {j} | {lv}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


CELLS = list(product((2, 3, 5), (1, 2, 3), (1, 2, 3)))

PINS = {
    (2, 1, 1): "94293f7a8a58f18669c651890366b1074225bd68649943b5d2d2bd5f1e57f4ed",
    (2, 1, 2): "d72e5b603dc2ab6246fa381f23714c819c2587b62e686a912f53746e269dcedc",
    (2, 1, 3): "8bc9cf03428caa8a1d1965f95fc5f769d78f38e6d34218c85c6b86c53fc9a9eb",
    (2, 2, 1): "b4517693ae417f89179e7072387cabc451b991a0bd45da48e345d43d0c9ad735",
    (2, 2, 2): "0ef62d2de0745d57175f5ec7c4e68cac84d0cae0eeea8002b7b893b2f6bbb9cd",
    (2, 2, 3): "b6adbb52be95ac07ab7bf809812460e82fc92900499061968b278953e1596f51",
    (2, 3, 1): "1c1311c37e6317ad023c88e6fa60f94b7ac374d0fc5e05c2fed9c961b6395b27",
    (2, 3, 2): "c59fc766e1e8c6dc03a6169dce9e8202c93a24b1b2b4196ce87d0f8e87c06ce2",
    (2, 3, 3): "f8f433be3d61f1baf8e20183d3e171f92e86be9555d0b58a2dd8adbf40fb0dc2",
    (3, 1, 1): "9910d2395d198df877a5654a791cf1f715cf477f03ea05bdcb2437f3ae5b4f3c",
    (3, 1, 2): "8a3ac8d8644f12d033dcfcc4cb8637de095561edc9868b4d0d3d32dd05f5384f",
    (3, 1, 3): "cfe58d12963bff76a9e0ccbe6795ac34e6906bf7042b935bfb760e99e219b0e5",
    (3, 2, 1): "3fb2a3eb2c1fc6cd7c699ed363bba6226a2d9995d89998379e22950926b2d8de",
    (3, 2, 2): "605b22ec119f9d943a1fd0432090368d96ce1bd339dd9513d84642867f599bf4",
    (3, 2, 3): "3d042416700a43cdf78a6c7b956190bbafb5282430f9d2073fffe64aaa5eb221",
    (3, 3, 1): "b839c997e716379c8e9e2ab485943fee547f631b795a462bc1cb5d1f33d05223",
    (3, 3, 2): "24eef7284d930a25821a56220759a59833f941d91a27b1162773d725a06aff52",
    (3, 3, 3): "8f80571da9ed624b2606b2cd42d53e2b46ac1c3757f963cab09b07a6e5852bf3",
    (5, 1, 1): "678fb3c89c2c97952a673fcae9646556e12e4db226030046d325a60839b7d519",
    (5, 1, 2): "3f0e12f22ace99a874287d80e4122d5360c9aaef26a073fd49293c06b5b5c6ba",
    (5, 1, 3): "b43fc2460a9fe773652df4658a17f781c37a6ec31aff7fa122b47aa539ca00e7",
    (5, 2, 1): "f59dd7e86787bb6de4def1a540f2e291aff18d80420265e54793f3efaa840c64",
    (5, 2, 2): "39386164d04668c42d80fe146d5fab70c83e39459a1adab881296f0b5153dca8",
    (5, 2, 3): "fe2c6e496b9a5a2a575aa62eb97174ff40cfce7e7553a405b0ec3503071f92b1",
    (5, 3, 1): "6f6e63e935b12e8f8cdea1838433967a24c711c4f789ab01023f59ffa1ebd75c",
    (5, 3, 2): "b22e41bcb0ef6e4c0a606047320e406ffe51e5e92a9e054e489dce862a495b50",
    (5, 3, 3): "4d3398697962fdf4bae0a48f1c13f401c508e29724da56b116535d5065375ec6",
}


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "p%d-e%d-f%d" % c)
def test_cell_label_sets_are_pinned(cell):
    assert cell_digest(cell) == PINS[cell]
