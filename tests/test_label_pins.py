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

The points whose quotient has the cyclotomic inertial signature, declared
cyclotomic, are pinned the same way, one SHA-256 per cell.  Those pins were
computed from the definitions (``reference_answer``: the brute-force route
and the reference W' of ``oracles``), not from ``l_v_ah``; the test checks
both ``l_v_ah`` and the reference against them.  The same pins, with their
point and exceptional counts, cover cells past that grid where (p - 1) | e:
(5, 4, f <= 3), (5, 8, f <= 2) and (7, 6, f <= 3).
"""

import hashlib
from itertools import product
from typing import Tuple

import pytest

import oracles
import serreweights.io_cli as io_cli
from serreweights import (
    BasisLabel,
    FieldParams,
    NoValidShift,
    basis_labels,
    char_quotient,
    character,
    exponent_class,
    h1_dimension,
    j_v_ah,
    j_v_ah_bruteforce,
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


# ---------------------------------------------------------------------------
# Points whose quotient has the cyclotomic inertial signature
# ---------------------------------------------------------------------------


def cyclotomic_points(cell):
    """The grid points of a cell with a shift subset whose quotient
    chi1/chi2 has the cyclotomic inertial signature, the class of
    (e, ..., e): (chi2 class, r, params, chi1, chi2, profile), in grid order.

    The grid's chi1 is in the class of r + e - 1 less chi2's, so the
    quotient's class is that of r + e - 1 less twice chi2's; only points
    where it is the cyclotomic class are built.
    """
    p, e, f = cell
    params = FieldParams(p, e, f)
    q1 = params.tame_order
    cyclotomic = exponent_class(params, (e,) * f)
    for spec in io_cli._cell_instances(cell):
        chi2_class, r = spec[3], spec[4]
        r_class = exponent_class(params, tuple(ri + e - 1 for ri in r))
        if (r_class - 2 * chi2_class - cyclotomic) % q1:
            continue
        try:
            params, chi1, chi2, _, profile = io_cli._grid_instance(spec)
        except NoValidShift:
            continue
        yield chi2_class, r, params, chi1, chi2, profile


def declared_answer(chi2_class, r, params, chi1, chi2, profile):
    """``l_v_ah`` with the quotient declared cyclotomic: (exceptional,
    labels).  Asserts the two properties of the declaration: a
    non-exceptional answer is the undeclared one, with no tres ramifiee
    class; an exceptional one is the declared quotient's whole basis."""
    weight = weight_from_r(params, r)
    result = l_v_ah(params, weight, chi1, chi2, chi_cyclotomic=True)
    if result.exceptional:
        quotient = char_quotient(params, chi1, chi2, declare_cyclotomic=True)
        assert result.labels == basis_labels(params, quotient)
        assert result.dimension == h1_dimension(params, quotient)
    else:
        assert result.labels == l_v_ah(params, weight, chi1, chi2).labels
        assert BasisLabel.tres_ramifiee() not in result.labels
    return result.exceptional, result.labels


def reference_answer(chi2_class, r, params, chi1, chi2, profile):
    """The same answer from the definitions: exceptional exactly when chi2
    is unramified on inertia and every r_i = p, and then W x {specials}
    over the reference W' (``oracles.w_prime_direct``); otherwise the
    brute-force route's labels, plus the unramified class for a trivial
    quotient."""
    p, e, f = params
    quotient = char_quotient(params, chi1, chi2, declare_cyclotomic=True)
    specials = [BasisLabel.unramified()] if quotient.declared_trivial else []
    if chi2_class == 0 and all(ri == p for ri in r):
        a = quotient.signature.a
        f_dprime = f // oracles.rotation_period(a)
        alphas = [
            BasisLabel.alpha(m, k)
            for m in oracles.w_prime_direct(p, e, f, a)
            for k in range(f_dprime)
        ]
        return True, tuple(alphas + specials + [BasisLabel.tres_ramifiee()])
    labels = sorted(j_v_ah_bruteforce(params, profile, quotient), key=BasisLabel.sort_key)
    return False, tuple(labels + specials)


def cyclotomic_digest(cell, answer) -> Tuple[str, int, int]:
    """SHA-256 of the lines "chi2 class, r | exceptional labels" over the
    cell's ``cyclotomic_points``, with their count and exceptional count."""
    lines, exceptional = [], 0
    for point in cyclotomic_points(cell):
        is_exceptional, labels = answer(*point)
        exceptional += is_exceptional
        lines.append(f"{point[0]} {point[1]} | {is_exceptional} {_labels(labels)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, len(lines), exceptional


CYCLOTOMIC_PINS = {
    (2, 1, 1): "a5500690ff6dc515173ffdaba2a6efe6e99fa5293db43c6eacaaf1aed0410997",
    (2, 1, 2): "4eb8c658d55bb01368ecca8c61ce360d6b6372ee44d7449c1bb1ee822222426e",
    (2, 1, 3): "bcf65c5517b6f2add551b146878aca50a3b78dc17c426e91083d3c1db83643cf",
    (2, 2, 1): "530503512ab73e05a2319ba87212318b18f93fad95401c36ae8e553f65a457eb",
    (2, 2, 2): "30e7df35d27f36d099e3ac122a23ef79dc9fa4eff20e2c43fe0d27219a0a0120",
    (2, 2, 3): "371916bc0124309b65e540a2670c45cd14f1506dcac13c16c44d60124ac19144",
    (2, 3, 1): "646398f561452978028875f451606c3d03c7efbc8d64074a98aee0b046ccacfc",
    (2, 3, 2): "24efd26e3b9ead0c6a4b55ad8047bda25f1577705a3a04c1d8d419b1c4d5bfc4",
    (2, 3, 3): "ed39238434ff0ddb75862f058024546992ccde329c4fa1bedd635376ed467192",
    (3, 1, 1): "d5d693930fac2afa053a780ee0cfcf08466f8c7c64876dbafbbfcaa4da91924a",
    (3, 1, 2): "69ababad989f61eb649811c341f2cabffcf249497f3be91795b91c6544087930",
    (3, 1, 3): "aab33b751760b964608b756cdcfe0937766df6437a17bbae10e7b87c8006d34c",
    (3, 2, 1): "174e62d4e10bc1f8c436d79ea840143759aecb680297e9e46f8714f52e07f9ef",
    (3, 2, 2): "d25799ad12d4c3addbb3363872dba2fc0e386e4e51302575168e8063670b1c25",
    (3, 2, 3): "9ac48d2870b0df5abb8519daef0306e4bdb24405cfa79bb1502a4fef14952c55",
    (3, 3, 1): "051dd09920e9634ec8d0c6927126d865f49a0ba4efc2b8d65b8e957f2985aa76",
    (3, 3, 2): "25cff4923ecb65bccdb2c131fbc29df0887d2c8dc60647279618ac29ecee07fe",
    (3, 3, 3): "1e07b65e9dac79afe61efc9297157f05b913d2bd12229e1b1daddd6999441d19",
    (5, 1, 1): "6f8014e2ed914ca89e7dcbb1c0fb0a161716765455c0062dd2a701052a4c5cbe",
    (5, 1, 2): "3955fe5a6add9f94da51c55a867ce1ca3a591ccd8e114b4cad86e840d0d23ca0",
    (5, 1, 3): "92e2a7fcef8c681a1a3dec756868d644502d0b5b9bfa8ceb3bb9a23211bb47a9",
    (5, 2, 1): "7c9b1d5a7c85076b41056550b9f36beeda8d3fd2c66d8adf59a6627271466ca9",
    (5, 2, 2): "abcab5b22ddc6fcaf9c4a1ec3f13c711501350598005ebab6028a1d617985aa8",
    (5, 2, 3): "4c90883306e41502fb5a31b7160387f1c7817e6ee62ece98e5c2790082cd1911",
    (5, 3, 1): "0bc5c32035eb2c062f87287ba840bec79b20b38f92a59414cc752460d8bd7071",
    (5, 3, 2): "76d8596020d15dbb5b17e82fed75410ec5b0b6461fa3366a42120fa53abdac59",
    (5, 3, 3): "f32bff12f0fbc7b939a309963c9e666a34a2e32a3e9ffcf5cf6574fe579eb6d6",
}


@pytest.mark.parametrize("answer", [declared_answer, reference_answer],
                         ids=["l_v_ah", "reference"])
def test_cyclotomic_quotients_on_the_grid_are_pinned(answer):
    """Of the grid points of p <= 5, e <= 3, f <= 3 with a shift subset, 363
    have a quotient with the cyclotomic inertial signature; declared
    cyclotomic, 27 of them (one per cell) take ``l_v_ah``'s exceptional
    branch.  Per cell, the declared answers hash to the pin that the
    reference answers give, which was computed from them."""
    points = exceptional = 0
    for cell in CELLS:
        digest, n, n_exceptional = cyclotomic_digest(cell, answer)
        assert digest == CYCLOTOMIC_PINS[cell], cell
        points += n
        exceptional += n_exceptional
    assert (points, exceptional) == (363, 27)


# Cells where p - 1 divides e, so that the cyclotomic character's
# inertial class (e, ..., e) is trivial mod p - 1: (digest, points,
# exceptional points), computed from ``reference_answer``.
RAMIFIED_CYCLOTOMIC_PINS = {
    (5, 4, 1): ("7554a73af66ed7e78424d03695c1ccb1362e5dbddb0b176507b23af2c8b5384c", 6, 1),
    (5, 4, 2): ("432a53fa0ef6bd171642d6cefa907eea5283f88aea228b91abf0fa5dcec622bc", 22, 1),
    (5, 4, 3): ("0ed570aebd26cbe26bd807e1fe2a321f74f01d9f92ddf4b124edb4b47d849dcd", 96, 1),
    (5, 8, 1): ("56137c82f17dc870109ae230b606ab0e7057376e7a397977e9205011561416aa", 6, 1),
    (5, 8, 2): ("c582efb4f71ab55f59fea20f60b919fedd900f5c717fb2df41ffa051b5da4317", 26, 1),
    (7, 6, 1): ("26ecd02935c62ae42109bc4786245cdecf91d1531158f8c6ab63617c6a77f520", 8, 1),
    (7, 6, 2): ("26c92415d54db89cc9b092a5059e79209165489d88072b72c1d4bb3fbc64feaa", 44, 1),
    (7, 6, 3): ("53523c573697e2fa3619ca1e8332fbd6c673b6da93e7731b1578ebe0478c56e0", 281, 1),
}


@pytest.mark.parametrize("answer", [declared_answer, reference_answer],
                         ids=["l_v_ah", "reference"])
@pytest.mark.parametrize("cell", [
    pytest.param(cell, marks=pytest.mark.slow) if cell == (7, 6, 3) else cell
    for cell in RAMIFIED_CYCLOTOMIC_PINS
], ids=lambda c: "p%d-e%d-f%d" % c)
def test_cyclotomic_quotients_on_ramified_cells_are_pinned(cell, answer):
    """Where (p - 1) | e, one point per cell takes the exceptional branch
    (chi2 unramified on inertia, every r_i = p).  (7, 6, 3) takes ~0.3 s
    per route, so it is under ``slow``."""
    assert cyclotomic_digest(cell, answer) == RAMIFIED_CYCLOTOMIC_PINS[cell]
