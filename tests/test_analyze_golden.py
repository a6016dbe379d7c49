"""Pinned analyze output: one sha256 per (weight, p) over a fixed corpus.

Each digest covers ``json.dumps(analyze_weight(w, p), sort_keys=True)`` and
``ratio_curve(star, p, 50).tobytes()``; a call that refuses contributes its
error message instead.  The corpus reaches every branch of both kernels:
interior stationary points, merged steps, zero-average nodes and the rescaled
retries (see test_golden_corpus_covers_every_branch).  Its weights have at
most 2^10 leaves, so the kernels run them in one chunk; the digests are also
required at chunk sizes that cut every level and every step list of the sups
(ratio_curve runs over whole arrays, so the chunk size leaves it alone).
"""
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from treerhi import DyadicWeight, TreeSpace, gen_power, gen_random, rearrangement
from treerhi import rearrange, weight
from treerhi.cli import analyze_weight
from treerhi.rearrange import _prefix_sups, _ratios_at, ratio_curve
from treerhi.weight import _power_pair, _scalings

PS = (1.5, 2.0, 3.0, 120.0)
RANDOM_SHAPES = ((2, 3), (2, 8), (3, 4), (4, 4), (8, 3), (2, 10))
SCALES = (1e100, 1e-100, 1e200, 1e-200)


def _corpus() -> dict[str, DyadicWeight]:
    cases = {}
    for k, depth in RANDOM_SHAPES:
        for seed in (0, 1):
            cases[f"random-{k}-{depth}-{seed}"] = gen_random(TreeSpace(k, depth), seed)
    for k, depth in ((2, 8), (3, 4)):
        # leaves rounded to powers of ten: long runs of equal values merge steps
        v = gen_random(TreeSpace(k, depth), 0).values
        cases[f"rounded-{k}-{depth}"] = DyadicWeight.from_leaves(
            k, depth, 10.0 ** np.round(np.log10(v)))
    cases["power-2-8"] = gen_power(TreeSpace(2, 8), 0.5)
    v = gen_random(TreeSpace(2, 8), 2).values.copy()
    v[:64] = 0.0  # whole zero nodes up to level 2
    v[200:204] = 0.0
    cases["zeros-2-8"] = DyadicWeight.from_leaves(2, 8, v)
    for base in ("random-2-8-0", "power-2-8"):
        for scale in SCALES:
            w = cases[base]
            cases[f"{base}*{scale:g}"] = DyadicWeight(w.space, w.values * scale)
    return cases


CORPUS = _corpus()


def _outputs(w: DyadicWeight, p: float):
    try:
        yield json.dumps(analyze_weight(w, p), sort_keys=True)
    except ValueError as exc:
        yield f"ValueError: {exc}"
    try:
        yield ratio_curve(rearrangement(w), p, 50).tobytes()
    except ValueError as exc:
        yield f"ValueError: {exc}"


def _digest(name: str, p: float, corpus: dict[str, DyadicWeight] = CORPUS) -> str:
    h = hashlib.sha256()
    for out in _outputs(corpus[name], p):
        h.update(out if isinstance(out, bytes) else out.encode())
    return h.hexdigest()


GOLDEN = {
    ('random-2-3-0', 1.5): "42257a982f06ef561a9a9105240812a9b2e2f560bf1a63a866f50d1140007b1b",
    ('random-2-3-0', 2.0): "f9f6ed58fe27cd431c7dd40d7b3cd0451389901fed0d4509c8c9de7e6611caf6",
    ('random-2-3-0', 3.0): "f375895e9624e0b353eed6e165c799dad8130a2eb2d91cddeb365475682a576f",
    ('random-2-3-0', 120.0): "cb40e0a9224bc1e98578aa918e224dcfc9adbb579b1951415e3ad324de1a595a",
    ('random-2-3-1', 1.5): "98f5847f95747b65e63558701dba1e8966886864791a52ed0141e75dc8669d85",
    ('random-2-3-1', 2.0): "1914200b5fc23c33a593a3aa0ee14125ca48dd420fe893c20c6de50b3b1a9600",
    ('random-2-3-1', 3.0): "09428c2c8e1bb9ecc6189bab70c6503a44b3dcf3deb75174ccba417e6964e229",
    ('random-2-3-1', 120.0): "eb4d67db52341f94c11f203dc289a63b1d89c37faa170236f05ce2771bce50f1",
    ('random-2-8-0', 1.5): "1925057c89bd1f918dd3a9c55cbad7ed3c77f151b9d322f85932b6993d1944f1",
    ('random-2-8-0', 2.0): "31ef46e004e9c67b810c5f76386f76880f16c01827b16a328b06a58463ec0866",
    ('random-2-8-0', 3.0): "14cab1962b146d928a624b7d1116a298767389728d985c295564b0a79328ba01",
    ('random-2-8-0', 120.0): "481a3c0ba8b643e56dfe3cdffcdbd1496c6bcd4f20c5095c7cf468f7eb17e7da",
    ('random-2-8-1', 1.5): "d2ce204c126193c46c4a02435a1048ebc13c869d85779028afc6b76b40d946a2",
    ('random-2-8-1', 2.0): "2f202e05ecfc594138dba3250a787271c151fa17783c3428eda91ca569f5b9e6",
    ('random-2-8-1', 3.0): "2846bc715720b6503e0705c6ca41168e1781968ea6164edf97d391ec48911462",
    ('random-2-8-1', 120.0): "c85e4aee4514d8da239ea4567f634bcbad06ff33f2f7a5309a4db8a97da1a56b",
    ('random-3-4-0', 1.5): "4d0cf558500103f4913618ad5907f1192a276639cb50329456376399e2c39f67",
    ('random-3-4-0', 2.0): "d7b82a399f7bf7a11b2554cb30de32eb3cf233c3f6099baec8c5be746870fe77",
    ('random-3-4-0', 3.0): "74690fd7e4bf8333247ceff9a1609f8400041990cfefbb01dae80df06ccafe81",
    ('random-3-4-0', 120.0): "6d3e310c9165e0b6de062b855afee5cf64d732c1f55c1001dec88c0ce83997f1",
    ('random-3-4-1', 1.5): "1f8e1f38a16484c0119e6e59f0fc648e6e1292c0b300ae329a88cdc39821e6ed",
    ('random-3-4-1', 2.0): "0dd7f2e1f31bec5b20dea6f4f580f9ed2cf633e8b5b8ec3fadd32c77a0952cbd",
    ('random-3-4-1', 3.0): "be2fb54a2b212732e62f265ff83c63fbaef22df14fa57267cb9904ca2370af7b",
    ('random-3-4-1', 120.0): "b6195b059914b7e686ab4310f6f3c575b48d2ca140b16955a387fd62be42939f",
    ('random-4-4-0', 1.5): "ed3e6ce4867d620fb1d752439a1f49c02b3a3673964aa5af4b7f6ba337555f2c",
    ('random-4-4-0', 2.0): "32866b970830779262f61aba25235a4e85f965dce23c2c98a3c5bfd6d6f43f5a",
    ('random-4-4-0', 3.0): "581445661ea5aa9ce5db7345b80d95919d4c38aa5098b314d88f2a5a29a3ac51",
    ('random-4-4-0', 120.0): "481a3c0ba8b643e56dfe3cdffcdbd1496c6bcd4f20c5095c7cf468f7eb17e7da",
    ('random-4-4-1', 1.5): "1399944e2647640db0b8d9eb1f51356d5c76d5e216d28b7528d7b1ec28ca377f",
    ('random-4-4-1', 2.0): "5cbaf1dac5555785820896f66406960fc5a9877ca3120a5e9758220f12a4e53d",
    ('random-4-4-1', 3.0): "25bb5ac05ff8400deb2238e14371eb61ccfb359cb140b34ebfd2154ddb2a5eaf",
    ('random-4-4-1', 120.0): "c85e4aee4514d8da239ea4567f634bcbad06ff33f2f7a5309a4db8a97da1a56b",
    ('random-8-3-0', 1.5): "c9f207f93a4993071c3224397d651de64ced9d66be24a07988190c9595de0bbc",
    ('random-8-3-0', 2.0): "036c188936a8d6cca6d47d5cac87d4b35d54191e17f31d85033df9eb8733818c",
    ('random-8-3-0', 3.0): "20575880e01437577d08dc82e1b33bdc019980c515394cce96fe5d5136958afd",
    ('random-8-3-0', 120.0): "3329c9cbff1d253a5b568ab51cc96eb70cfbb93acd7cfe6f6ce18877e7ebdb0d",
    ('random-8-3-1', 1.5): "806e24e3004e4ab096bf4591482c757f11de895eb7c280230f5db21e7ac09a47",
    ('random-8-3-1', 2.0): "ac028033bf4ed81d4acaa3b685b8b09678ff5ec881e732526e5891de562ef602",
    ('random-8-3-1', 3.0): "b46e32729521683a78f33788cb34f27ae080dcead10d06345ff9e35bd4f089be",
    ('random-8-3-1', 120.0): "1a9bc01aa26338e7112ff2af8c82a14c98d425fd3eed2c0d59ad725c2e909261",
    ('random-2-10-0', 1.5): "e97290c2cc75aa8577b6924ae809efd911d7141207a002e01449007b4803d900",
    ('random-2-10-0', 2.0): "3ff8a6e003245e7579b56af138e3334b04f84457abf6ff97fb3141ca65139402",
    ('random-2-10-0', 3.0): "90e71c8bf8212001b7305e45875de93ae297e95e21a8451fba54d30174969869",
    ('random-2-10-0', 120.0): "9fabf06c0a30fe224b043c38d5ba9a889bf1a86b7011f6d7cbbfe68656ac49de",
    ('random-2-10-1', 1.5): "df794b4a26a4ec830ac89cfbf6e75b1a3cf632350de18f4a0f632bc3fedfe8ef",
    ('random-2-10-1', 2.0): "0797f9dae0acc4c7a85211d678ee00b6ec1847c80aee5f2130815ca5388e6c9b",
    ('random-2-10-1', 3.0): "fd062cf9cc3031a331e683f4a02ca3e8fd35c57b5db7cde988f7d264e247ed81",
    ('random-2-10-1', 120.0): "81785c578895dcd55de4eba8912fa335ad7d89386f549108de60b054acad7d80",
    ('rounded-2-8', 1.5): "f92f5a690403b6cbec14b3f1f6c950587ed721152c2432af100156ad1c324f0e",
    ('rounded-2-8', 2.0): "1d2333e9ed7024adbab133a1b79954e0b1d742cc84ad0952e698671203b4bb85",
    ('rounded-2-8', 3.0): "5f67fa82f0f268e543ff262afb6ef3063254c0d5bc17f5e9b78345f94edbec0d",
    ('rounded-2-8', 120.0): "00438be51b3cbf46f954a8c4255db11b808923c1f4028bb7c36bf64c657f3d96",
    ('rounded-3-4', 1.5): "96e7e1f5df7f966fac0d29913a303dcf56f621617852a2592818d7db3afa9536",
    ('rounded-3-4', 2.0): "9e156e07b2b6fb9bb15e4ba0f50ee9de0f232736e2d550498b61416eaa9bbd7e",
    ('rounded-3-4', 3.0): "5876ad4fbb0e36b632e67d1dfe19ed2cfd6f5b1dcd99a03936fbc60c72faa532",
    ('rounded-3-4', 120.0): "19091a84386757ae3bc1a78a9fe869ccd10012164bc61120d1b0995b25a99385",
    ('power-2-8', 1.5): "95b4852c375db4eb9cbf173be809cb3a908db70d2290b63bac27222c42de7a0c",
    ('power-2-8', 2.0): "eaabc3d003d91348e80e132427c8c481b22d85e68598309584b7b4b8434f1232",
    ('power-2-8', 3.0): "c0476502848586301688de128f712faf450d6470b7e9a233c954b798bf6d2c8e",
    ('power-2-8', 120.0): "5ab608dc82aada02b354d94cfcf497dfc022e7ee8ba1c0b4673f6117acab737f",
    ('zeros-2-8', 1.5): "cba7b004cbafa3f4afd361e313f53259a27a66c1a7f0436701dc3737f7dce170",
    ('zeros-2-8', 2.0): "3d5eef32e0521751c421721536d802539df32d78b1caa8e749afa75473fdebba",
    ('zeros-2-8', 3.0): "e46c69f6c7db3ff26865394035f291fe3e5d8f7ae1e60ce90798bc04c099cf31",
    ('zeros-2-8', 120.0): "b3f7d3af038dd85d2f67aa9045088443b3b95bf44a4b6578c273f2bb5fe9a942",
    ('random-2-8-0*1e+100', 1.5): "1fef0330bfc06dc3636cb14c26c27a6b72469792efd65aa3b03f7719956b76c0",
    ('random-2-8-0*1e+100', 2.0): "8129af57b29914d99c23fb2d189b6398cf9a36ca129c3f4b91f9c8bfe0af8399",
    ('random-2-8-0*1e+100', 3.0): "35f57844ec94f7fb87de7a245791dcffb98bce327a81d2c86cc4ab738e0edb5f",
    ('random-2-8-0*1e+100', 120.0): "d8b15b22b9469b47e9e13ec49e88d0f499699c8a24c8c3a5ea375823526253de",
    ('random-2-8-0*1e-100', 1.5): "90a7cc86b29500149223056768e1dd807ac9410fa8a6d3e40cc613f8b605b9d5",
    ('random-2-8-0*1e-100', 2.0): "3f95000fc0f39f12d9ffdff31d5b6b0225fb10dc5d1fe6c1687dc92b31a193cc",
    ('random-2-8-0*1e-100', 3.0): "a6ab24fa9d66911d5522c409c4c38aef5078990af92e60182812aba876e578c1",
    ('random-2-8-0*1e-100', 120.0): "c4acf2eabb29650df3b6237dd682df6540d346fd6407dab9e9dedf72ebbe38e5",
    ('random-2-8-0*1e+200', 1.5): "520b1af68a0c648372d2c9e99207d585ca758ceb02c7ca41a00f2f4350aab822",
    ('random-2-8-0*1e+200', 2.0): "c74037faa643471c21413cd93940ede55f93757291611be8c13849fed1788514",
    ('random-2-8-0*1e+200', 3.0): "44dd0ac4a6f243746aff2d338c09907cc825ac3948d1d8a3286da8073a228a8b",
    ('random-2-8-0*1e+200', 120.0): "6d19cded2115ac7b71c992bc25b342628fdc4f5e5ae72e01875730a2644e92aa",
    ('random-2-8-0*1e-200', 1.5): "90b30b75b29589d2dc6fdf61e1959624af92b319cf40a2cb47a134854a24d13b",
    ('random-2-8-0*1e-200', 2.0): "93763a7b4af185a998e0c5e3dfac6354e9d4be08c0368fd988475c629498ac2e",
    ('random-2-8-0*1e-200', 3.0): "82510f23b230cc13ff47ec45b0f5e822c929822ba55d9f4912a02d50304d5a2e",
    ('random-2-8-0*1e-200', 120.0): "725f751f345c31b5262f38b787ccb7368ed55b0d405c20a1b8b62b58f72c11f4",
    ('power-2-8*1e+100', 1.5): "842c2d055adb4da6521687aefb06bb533dc9ddf70b02eef89a4e3fbf379ab077",
    ('power-2-8*1e+100', 2.0): "096cec0f29b7d7d2cfe4d523b160f64a2f1469a608510621dbbdb05c115501ba",
    ('power-2-8*1e+100', 3.0): "2635aa7c2067161e51000cfb63f0acf4e81e6284dd95aa1753feeaaff8f4b3b0",
    ('power-2-8*1e+100', 120.0): "b3e71e4835959f3b270ca36c49ccf7078f8ec8666d81881882c51d982184ee8e",
    ('power-2-8*1e-100', 1.5): "1000c66dfcdfeb341e0ed11216a4760e3749cffa783f06a8f82bce51e0c2efba",
    ('power-2-8*1e-100', 2.0): "42566309cc511afa28f58aa51227409d2f6b58be18de9318426a997094cef9d0",
    ('power-2-8*1e-100', 3.0): "fa82f09bce052e659efe75e494b251817b6bead8747dfb88bcb10bacf6456348",
    ('power-2-8*1e-100', 120.0): "2efed9a546e765e883dfaf4017239a409c4ba2b7bcdcb45fa234a2d2cdedafc7",
    ('power-2-8*1e+200', 1.5): "480d1a531a1ebdd3a3c45aa7aeeeeef4d6954edb3e00da74b2972aa46a334b88",
    ('power-2-8*1e+200', 2.0): "dd8d691b1a94f7004af2589b453f98089d53d0e421de57841f8f916b11c1d4c5",
    ('power-2-8*1e+200', 3.0): "4c7940f9ab98762bd1eda8428987e33bafddef558803b0b192a6aa74defaae89",
    ('power-2-8*1e+200', 120.0): "2554d7e3178db9ab2214ef870c156fc7ca70a112ebe7df5eb32163ee461cf903",
    ('power-2-8*1e-200', 1.5): "5c34b87a3614467c8c52257433a6a5cbe1a556c68d1e4e6599ffcc8eba6471a3",
    ('power-2-8*1e-200', 2.0): "0832d11757578788449c9731d254bd7c8bd8b5aa91d7d21fae34a9599d7d3a6c",
    ('power-2-8*1e-200', 3.0): "0f3e3802bf233cd93c11150e3d642dee0c062513c9d36da491256dcd6311b6e8",
    ('power-2-8*1e-200', 120.0): "16d9465558333ff2aee56bf8a310e892907284eea80977a8d5f4a58939684660",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_analyze_output_matches_golden(key):
    name, p = key
    assert _digest(name, p) == GOLDEN[key]


def test_repinned_bound_is_exact():
    """The one digest that moved when every site took the bound's form
    k*(c - 1) + 1: here it is the exact rational value, where k*c - k + 1
    landed one ulp above it."""
    report = analyze_weight(CORPUS["random-3-4-0"], 1.5)
    c, k = report["dyadic_constant"], report["k"]
    assert (c, k) == (2.935057272130206, 3)
    assert Fraction(report["bound"]) == k * (Fraction(c) - 1) + 1
    assert report["margin"] == report["bound"] - report["prefix_constant"]


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_analyze_output_matches_golden_in_chunks(chunk, monkeypatch):
    """Every digest again with both kernels cut into chunks of a few nodes or
    steps, on fresh weights (the node sups are cached per weight)."""
    monkeypatch.setattr(weight, "_CHUNK", chunk)
    monkeypatch.setattr(rearrange, "_CHUNK", chunk)
    corpus = _corpus()
    changed = [key for key in sorted(GOLDEN) if _digest(*key, corpus) != GOLDEN[key]]
    assert changed == []


def test_golden_corpus_covers_every_branch(monkeypatch):
    """Interior stationary points on both prefix sides, zero-average nodes,
    and rescaled retries on both kernels."""
    seen = {"interior_rh": 0, "interior_ap": 0, "zero_average_nodes": 0,
            "dyadic_retry": 0, "prefix_retry": 0}
    interior, stationary = [], rearrange._stationary

    def counted_stationary(*args):
        step, t_in = stationary(*args)
        interior.append(t_in.size)
        return step, t_in

    monkeypatch.setattr(rearrange, "_stationary", counted_stationary)
    for w in CORPUS.values():
        seen["zero_average_nodes"] += any(np.any(s == 0) for s in w.level_sums(1.0))
        star = rearrangement(w)
        for p in PS:
            for dual in (False, True):
                if dual and star.values[-1] == 0:
                    continue
                a, b = _power_pair(p, dual)
                try:
                    w._node_sups(p, (dual,))
                    _prefix_sups(star, p, (dual,))
                except ValueError:
                    continue
                # the interior points the prefix sup tried, on the values it was taken on
                values = next(v for v in _scalings(star.values)
                              if _ratios_at(star.breakpoints, v, [(a, b)])[0] is not None)
                interior.clear()
                _ratios_at(star.breakpoints, values, [(a, b)])
                side = "interior_ap" if dual else "interior_rh"
                seen[side] += sum(interior) > 0
                seen["dyadic_retry"] += w._ratio_sup(w.values, [(a, b)])[0] is None
                seen["prefix_retry"] += _ratios_at(
                    star.breakpoints, star.values, [(a, b)])[0] is None
    assert all(seen.values()), seen
