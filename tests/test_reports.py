"""Byte-level pins of the `--json` reports of every bundled case and of
the `selftest` battery.

`tomlinks trace --case <name> --json` (seed 0), `tomlinks unproject --case
<name> --json` and `tomlinks blowup --case <name> --json
--skip-saturation-oracle` must reproduce these sha256 digests of their
standard output, with exit code 0.  A change to the arithmetic kernel that
alters any equation, weight or step of a report fails here before it
reaches a golden.  `tomlinks selftest` must print its 47 lines unchanged.

The reports hold only what JSON and the tree renderer print as given:
dicts with string keys, lists, str, int, bool and None.  `json.dumps`
prints a tuple as a list, so the digests alone would not see one.
"""

import hashlib

import pytest

from tomlinks import cli
from tomlinks.acceptance import AcceptanceResult
from tomlinks.casefile import bundled_case_names
from tomlinks.cli import main

TRACE_SHA256 = {
    "10985": "2d29f0b784a5eda0178cafcca1f9a31f08c4b4735f4de5c62984338947f8b4d8",
    "11005": "3168cb4b3803ab42c1146292d0679bfffe63c6a06515ab33afa38a5d4f9db266",
    "11125-t1": "46f3042579d9130148b3586f6ff4365fa0a485143fc5055e28306fbc7812498c",
    "11125-t2": "7a34e6b18d1a11ab86ec86dedc56f6c189d983d5f48ac24256e8116414a86585",
    "11455": "06b1d323b57c1c09fc478ec7af790ee61a665952de006cbb5de44e3bb7f42bc3",
    "1169": "65e88f0bec62c4fc5c1087aae13212729ee6662d0d81e259285f15d2a63015b1",
    "1218": "b9e2f20585d252e738452e4bffccebcb6538de247661c8aa13d084788f87ca4e",
    "1253": "58bbf711c720ad4c23aff89627a977ac5f68efe5159fbbcbdcc6f0a18957b9bf",
    "1413": "21d7e0edce309de563501cd406169ca878bbf7a9c2233bed8d7cb48bf036efbe",
    "16339": "b860d7a21a467d28c9a14d96c94a53d89c60f22aa4bdee265d4f4517ddd5bb9f",
    "20652": "aa5cfbcaf568ec661024184b9d47442505cdbec750ca4063d610238fd9bb77a7",
    "24097": "33b90382c0647d506a5cc2d119e0468437b0e83c5fc063f275d9db7ea86da6d5",
    "4925": "dc6c6634a6e08d36a8b99bcd8c9eaf408ffaaf1096aef92af5c8269e65efbd5a",
    "5177": "f44f863f598d72485e923b5a04ac1615a6d44bdc5f1dd291564ff0a8ab6a3a76",
    "5279": "9e8393be9b922abcb9d6a4cd6223dadf44938431dd3f213e83a243e4aae6fb6e",
    "5305": "d05840e703c8ba4d382bb2cf85549b172c6aaf7e28b3219168f907e78c263a83",
    "5963": "5c14c4ca8cf868d3bbec434e12e0e6ba652eeb6a7d7f378fae26efd6ac4da597",
    "6865": "6e2fed172276cbd00d25aaa668d5d53239614e909fc1bc869b2de403f32b70ad",
    "tag-iii": "d8390a2e82bed030a27083d1a122d6866fcb180f36262ee0c517105e7284b1dd",
    "tag-iv": "656d81ec07fa3d4f95e50bd08ad2d7d7d906dba81ebb732a808c6d0da6c7c397",
    "tag-vii": "24f5302905ce1e2b2aec8923dc4ffebf8d8b88f5f72be8a8e8567823e3098c26",
    "tag-viii": "8e98c06168a5a7b7a33c610122654cb45ebf47ff02e3b405f21d4eacca5887f9",
}

UNPROJECT_SHA256 = {
    "10985": "7c581bfd3b63fa872c3fc9f2156767fc1bca357e1bcead9ee8725e8bd79bafdb",
    "11005": "acd4b8dbf81a09f1548d4f0f92e51e2b8bf719e4952496d56baa7c4f43d9acea",
    "11125-t1": "3b659b18db4d3fc3b8e787e2b1adcf276f15fa09f0e743d1f74ef29cf4e4916b",
    "11125-t2": "8063c21810022cfa25f8cd5062e43518bf23cd76e6900de8f42c83c0c9baf8a0",
    "11455": "4da8dc4094c0557bc88ba4229642f791131d1e3963faf2a45eb9d6701fb29198",
    "1169": "28e7b39ad3c6af05a971f193b97d0c2d0e2ffa01499555cf7bd4a91b2b70410e",
    "1218": "b8e2c0017fb9bfb6e21419063929d88c0623accdf3f58bbdbf7fff7ed0694acf",
    "1253": "0ec5e9f9f345bad8eee43e6c1979ebe9d950b95a74c7a1efb637792c70c801d1",
    "1413": "063334e166bec4129a277fe8e093fd6a313ab35ac7cff28210fb1b7ed9eb8b9b",
    "16339": "12492b5d7c9ee1c978975f280491cb41a6854d3a8a7a28a53745689cf5daf2c4",
    "20652": "410e6c43e8efdb0641a159da820d590386155cf65bd8554936970da0f34ad018",
    "24097": "b84cad37ccc3e287a7fb24b60f2dbccc81ed3f50f8a2b3c090ca283d1f918a78",
    "4925": "6ea27bd456c1a3a0ca5417ab064fcb0fc6fccff350c8f6341ea818c0aaa5a9e5",
    "5177": "124dfde66cc67b25159a3cd86282103460d8d0cead212f2a64b603caaf89d8c2",
    "5279": "d0c0abb66baf245b9ed048b1e9f43ae0db5e42e2a03c3fdc011c7570321842a7",
    "5305": "6454f8a55c14636c632cd6a6c0143913f939bf52a4264af929c801dfc142136e",
    "5963": "205223d76d6fd5eb8b3d988512a3a02cb67187c1915de6bd3a611f3089817716",
    "6865": "1174dcae19f83d15becdc2ce86a03b2805ae0b9fe1175e1ae001f3a821ec0c9d",
    "tag-iii": "84f301dc0758ca1d8ce6c562373e3cd35abd77efa41f90c16473a28cbea6b348",
    "tag-iv": "12e0a06921790ad84efcd7a48e027cfff662870a32090cd0397cc96995748f99",
    "tag-vii": "e59269b678d039fb9d5203ae9b4e17fafec2b10d5a75b0d91a7fc6c68861237b",
    "tag-viii": "d1178c18da8ef081f1be4b10b808ee9dc7261bc5767a55bd311216c8161e41ce",
}

BLOWUP_SHA256 = {
    "10985": "585f29acb6f88e4261d603252311c10f1de15aa7b5cb203d38eb1135f8c0c550",
    "11005": "55d66152aef1b1f282dd88b4a6755cac776fe79c08d0ddbabe9e36df049bf47e",
    "11125-t1": "56e7bc439d882989c6e4c33ca76215408bd9614d0456039589924965997edc0f",
    "11125-t2": "beb312458e1a9ce83b94c6b7e12216c0897c69e8967c9a2789f3bfe3fa1b7bb5",
    "11455": "ccb7f3ec967572f5c2c864df9cd34cb25edb0dd809c8424a5f81ffc5c6e706ca",
    "1169": "6692a1d63361b20da8b35ddef8de568797b526b2ced0772b1a143fb557d4551f",
    "1218": "2869365da2907c5d1a618ceee404f002f6a468700af0e8df9718b85e0203cb00",
    "1253": "40c2d2df05778bae1305aa30f593d6b27906d4a56a3d56adb0fa3259312f078f",
    "1413": "4fab4c1c9ba6f7f5787bcefe5323fee67e8577f89294353aca1b6c3ab8aa81f6",
    "16339": "390c1427d0ea5db91e280d6e5bd7a2148dcf30eda0cc44f850cb0c377678bfc7",
    "20652": "5c3c353d9af37383f5a8ed6236432f6537500299b7834b92558bed7894047e1d",
    "24097": "08fdff34edcdb9a4f597b969bd817fc8905d62fad0fa505d046554078eead706",
    "4925": "34e5133d51173574d8007c79c84a03b52e965758514b6d1d594ecf7175434efa",
    "5177": "49ef9840252abdde839a38813d0b0b226aeee220fcb480b3b659a23ecfcf7a4b",
    "5279": "1cb29a51f0fa4eb7afcd973b9d3ee34f11bd22ea45840943e3a80ae4456757b8",
    "5305": "a92eb2afc8087c109221ef23be09763339b50d7b2b758b0e75e827240250ad06",
    "5963": "9094eedd3b536e007637866781f65937c8dec537ea249bc8a4e4125fc230a81a",
    "6865": "bbc6687d3b9e0bb49b4c62b456ccc74f49e3a51909b3fad7eb0899ab43ff12b1",
    "tag-iii": "4eb155ca9c3f8f866f4c6103aaa452c12f1244cbcdaa5fb4c88fc699844c2bc4",
    "tag-iv": "810bee45d42a6a433927ac9d948003ecd9c4403ae815fbcce39725f16797c438",
    "tag-vii": "c7a0e6a682289a4551c66d27bff9ac8d53f21d5bf4b6ea8253af49d0e96e43bf",
    "tag-viii": "4beceb9f2faa5be7d7c11f9fe7179f9e81dc015b56bc13674e727c24fdfd9b18",
}


def report_digest(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_bundled_case_is_pinned():
    assert sorted(bundled_case_names()) == sorted(TRACE_SHA256) == sorted(UNPROJECT_SHA256) \
        == sorted(BLOWUP_SHA256)


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_trace_json(capsys, name):
    got = report_digest(capsys, ["trace", "--case", name, "--json"])
    assert got == TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(UNPROJECT_SHA256))
def test_unproject_json(capsys, name):
    got = report_digest(capsys, ["unproject", "--case", name, "--json"])
    assert got == UNPROJECT_SHA256[name]


@pytest.mark.parametrize("name", sorted(BLOWUP_SHA256))
def test_blowup_json(capsys, name):
    got = report_digest(
        capsys, ["blowup", "--case", name, "--json", "--skip-saturation-oracle"])
    assert got == BLOWUP_SHA256[name]


SELFTEST_SHA256 = "91d8f49ee304a4b2178e1ab6a610a7d2c83b6841ff08e948bd2afb34e44eede5"


def test_selftest_output(capsys):
    capsys.readouterr()
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 47
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_SHA256


def test_selftest_prints_details_and_exits_1_on_a_failure(monkeypatch, capsys):
    # a detail shows under a known defect or a failure, not under a pass
    results = [AcceptanceResult("1", "kept", True, "quiet"),
               AcceptanceResult("2", "known", False, "why", known_defect=True),
               AcceptanceResult("3", "broken", False, "what")]
    monkeypatch.setattr(cli, "run_acceptance", lambda budget: results)
    capsys.readouterr()
    assert main(["selftest"]) == 1
    pad = " " * 15
    assert capsys.readouterr().out == (
        f"[pass        ] 1: kept\n[known-defect] 2: known\n{pad}why\n"
        f"[FAIL        ] 3: broken\n{pad}what\n")
    monkeypatch.setattr(cli, "run_acceptance", lambda budget: results[:2])
    assert main(["selftest"]) == 0


def plain_value_errors(value, where="report") -> list[str]:
    """The places in `value` that are not a str-keyed dict, a list, str,
    int, bool or None."""
    if type(value) is dict:
        return [f"{where}: key {k!r}" for k in value if type(k) is not str] + [
            e for k, v in value.items() for e in plain_value_errors(v, f"{where}.{k}")]
    if type(value) is list:
        return [e for i, v in enumerate(value) for e in plain_value_errors(v, f"{where}[{i}]")]
    if type(value) in (str, int, bool, type(None)):
        return []
    return [f"{where}: {type(value).__name__}"]


# between them these cases take every kind of link step
PLAIN_CASES = ["10985", "20652", "24097", "6865", "tag-iv"]


@pytest.mark.parametrize("command", [
    ["trace"], ["unproject"], ["blowup", "--skip-saturation-oracle"]],
    ids=["trace", "unproject", "blowup"])
@pytest.mark.parametrize("name", PLAIN_CASES)
def test_reports_hold_only_plain_values(monkeypatch, capsys, command, name):
    emitted = []
    monkeypatch.setattr(cli, "emit", lambda data, as_json: emitted.append(data) or "")
    assert main(command + ["--case", name]) == 0
    (data,) = emitted
    assert plain_value_errors(data) == []
