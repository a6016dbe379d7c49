"""Pinned trace output: the sha256 of ``to_json()`` over a fixed corpus.

Each case is one weight traced at every (p, t) of the grid; a trace that
refuses contributes its error message instead of its JSON.  The hashes were
recorded with the dict-based tracer, so they hold the array tracer to
byte-identical output.
"""
import hashlib

import pytest

from treerhi import DyadicWeight, TreeSpace, gen_random, trace_theorem1
from helpers import father, fractions

PS = (1.5, 2.0, 3.0)
TS = (0.1, 0.35, 0.5, 0.8, 1.0)
W8211_TS = (0.25, 0.375, 0.5, 0.8, 1.0)
CASES = [(k, depth, seed) for k, depth in ((2, 3), (2, 8), (3, 4), (4, 4), (8, 3))
         for seed in range(4)] + ["w8211"]


def _weight(case):
    if case == "w8211":
        return DyadicWeight.from_leaves(2, 2, [8, 2, 1, 1]), W8211_TS
    k, depth, seed = case
    return gen_random(TreeSpace(k, depth), seed), TS


def _traces(case):
    w, ts = _weight(case)
    for p in PS:
        for t in ts:
            try:
                yield trace_theorem1(w, p, t)
            except ValueError as exc:
                yield exc


def _digest(case) -> str:
    h = hashlib.sha256()
    for tr in _traces(case):
        text = f"ValueError: {tr}" if isinstance(tr, ValueError) else tr.to_json()
        h.update(text.encode())
    return h.hexdigest()


GOLDEN = {
    (2, 3, 0): "89a56771ae637ca5e5a501410c3537659c4cf68431b72b8528c35e70415f69e9",
    (2, 3, 1): "dedb520acf997ee8dcfccb9864ff99373fd3f95b5bc68c5068e7b97ebe8cff1e",
    (2, 3, 2): "f00f4817a991a2256fb25843d7dca00b6c4b9e59932861cd919d1fd33e79a94d",
    (2, 3, 3): "5e5b1e67bb658bbbec264dcc28194bc3e48af8cceda6a988ceac41d087b9a2bf",
    (2, 8, 0): "1f3de3ac58a5c12d748fa8c8c65d1b9febf0791092e90f2e6b33115ff922d29a",
    (2, 8, 1): "08adc459b68216cc753a07b577646ae02b9743e5699efc1463936798cc369cef",
    (2, 8, 2): "74def619125b7487aa66a91fa4f77e1c91013f67efaf4e0bf91f2d67c2f168dd",
    (2, 8, 3): "d796f06418ecd1daa1c435d9bfc4464d3c6c3aca60c281b3c1c4bd5a10230369",
    (3, 4, 0): "007f1c379207cd3794727e81d0ae39ee9184ec1eead9b1fdd8e646d4e35ec401",
    (3, 4, 1): "11e6557ec508f339317f94fcc8ddca60a6b307fde994b21212ca3bf07552e9bf",
    (3, 4, 2): "36e2f5d3cc64884c2058b91fafa910492642fa678e82af3d77f905c017d92d0d",
    (3, 4, 3): "342789318f91d0b08c7702ae648b99ddf730625db23cf206b073deaff191b35e",
    (4, 4, 0): "58d9f487e215a820501445caa447b15cbb14ae374bdff903de04848751109960",
    (4, 4, 1): "af797c9dd1f8c88838f359c64716e4c7247f93f109b6ade4df47075c89dd8b30",
    (4, 4, 2): "72ef61213c821362260a70abb8916c9b58316014b87d4a82cc4332fff488df36",
    (4, 4, 3): "2402ddfaeba3cc3287562f00c79e77700de70840a951de3309c22f1bfd6f3c63",
    (8, 3, 0): "047357af007a5589ff02d7bccacadb812c5f08d9e97c09cb8fa2a557cbc4c662",
    (8, 3, 1): "7edab55616a2b4a84fd518c4fb588cb209046ebdb9e3267299ea8ccb622e93b2",
    (8, 3, 2): "be5492a80c41ee8b6d09a51aaa70c1982cc71489d10b435c886d093aa64df6b6",
    (8, 3, 3): "3c4819639c99446df8264038a308054409888c80f1f4647579f6b3938b30dac2",
    'w8211': "84223876a530f8ebc1717086a6d08f07f1441bb64a584d056da3c9911d7bff81",
}


@pytest.mark.parametrize("case", CASES)
def test_trace_json_matches_golden(case):
    assert _digest(case) == GOLDEN[case]


def test_golden_corpus_covers_every_branch():
    """Degenerate traces, fractional fillers and fathers nested in fathers."""
    seen = {"degenerate": 0, "fractional_filler": 0, "nested_fathers": 0}
    for case in CASES:
        w, _ = _weight(case)
        for tr in _traces(case):
            if isinstance(tr, ValueError):
                continue
            seen["degenerate"] += tr.degenerate
            seen["fractional_filler"] += any(
                f != 1.0 for r in tr.records for f in fractions(r.filler).values()
            )
            distinct = {father(w.space, n) for n in tr.stopping_nodes}
            seen["nested_fathers"] += len(distinct) > len(tr.fathers)
    assert all(seen.values()), seen
