"""Byte-identity of the shipped scenario outputs.

SHA-256 digests of the trajectory CSV, the mass CSV and the `simulate`
stdout of every shipped scenario, plus the `collapse` stdout of the collapse
scenarios.  The output goes to a fixed relative path, so stdout does not
depend on where the test runs.  A solver change that alters any float in
these files, or the order of any addition behind them, shows up here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from graphsand.cli import run_command

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "chain_w4_model2": {
        "csv": "4a46debe78fc92c8a859028b643543af28d745756367a29a158bff0b8beecd1f",
        "mass": "15101b098b2a013c29c9b32f8fad201ac8fe17f1b08b048aea586e984c2cf87a",
        "stdout": "6bc04dfc522d98a4f59d78fbf57ec284376d9f928177b8fd6c18550f5bb20588",
    },
    "p4_collapse_b1": {
        "csv": "8d452b5f4ca35cf0c66dd9c56d692b01313e0c504228dc915e61a837859dc392",
        "mass": "20ec21968f5f23b47ca9a3459158ab46f96ca923a298a18c5f3ea4f637822061",
        "stdout": "f68e8047c8c5c039bdba94bf62045a9bb159dd3db4b76d078e32df1f5c8a46ac",
        "collapse": "f8d592daa5715f6a58573792a36d7e5085b17c4f83273a958120e55fa71ff0a2",
    },
    "p4_collapse_b15": {
        "csv": "779907e7c1490c38148ddec4691d8d94659916b54573c29f7ec3cedfe049bd47",
        "mass": "787173c1d4d50c04f954d612838b94e9acb80ef2aeb4283a11d10c58702a903c",
        "stdout": "6dce6e62de720c7b728b733d9fb3a1930bf80836afb1f3708b7d3a2989beddbf",
        "collapse": "206f54b853e33c48321ac84be647eb4f11148ebf3deff88cf23ed8c3c1d94e0b",
    },
    "p4_collapse_b2": {
        "csv": "e2640ee0f08e2a06c0faa14797696b60459fe79c3e3cc4e29ab517fb7091b7bc",
        "mass": "10944ddfe7baa8b30dc4f85620fa90a0abca1fd565373eb25a2a4b18d661f17d",
        "stdout": "a2788ba7be01ff4a1dd7567a8642980243db2257673ef26350db30cbdded283f",
        "collapse": "4602beaaf17c02b3958ad627da91cff247ca6d5405a6d143ad2e555b143b0075",
    },
    "p4_two_sources_a2b1": {
        "csv": "2fd41add49e5bb1fec0d442ec3b5937b29ee781692af192e95a594889741e195",
        "mass": "07f1dbc13f8e59e627a05548c7bb69fb5e742ea11d9e43b8fb5fc2c3325e0281",
        "stdout": "5b17dd2c3d17f258dc3dc871e64e68f5bedea7a3570a824903c9351350b0f61d",
    },
    "p4_two_sources_a3b1": {
        "csv": "b30e807d9d97f5998b958c114044901358e4ba88b84ebeac5571d85ad752aa87",
        "mass": "b0aa693aafaf277317f9b6072f914638b2de9e10d1560408d8b477b9bfa7c784",
        "stdout": "94131c13491f31b8b1ca8bfc8f91cdbe25e7e61fbb739e20435f61826ced5d02",
    },
    "p6_collapse": {
        "csv": "61dc6baa31d25313b69918c49cc7f834aedff4387a9e6aa8ffe58de0078a0af5",
        "mass": "a44d9be51e287e7d8feb0c4fbba21a16e41b15d02f97c63b3f58dc3d14457df9",
        "stdout": "a0d74d8a0bd55807406d9167b777068a46441509276cd97ceee797782d5cc224",
        "collapse": "300715ad082d6dbfabdd26435648e52b81fb83801e16287865af6a70ec43cf3c",
    },
    "star": {
        "csv": "efc7930ddd1aea14e6cc8219aa192ac469a9f3a0c78e586c261d32a7a247127a",
        "mass": "db789d0f4ed7c2f4f0d3fa82ab679d2ad50ccb6c91ac146948aa4f3fb02ac7d3",
        "stdout": "2ec16dfd24dd8874ecf7a0dd00d87e11b306639ca534bb06100edfeaac4f5a7d",
    },
    "z_lattice": {
        "csv": "f32274500be6d054264832bd2a24aec97b9fc388543bcf288e859996cac3a96e",
        "mass": "3bf5db2d43bd5ba599a704240feb1d2dd807c9d3efd5174a3863e395f49a4ca4",
        "stdout": "c30a12770b7173c8d5c28de0c4fd5e066dc05b1c4aa36dd8de9378ba9142d322",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_covers_every_shipped_scenario():
    assert sorted(GOLDEN) == sorted(p.stem for p in SCENARIOS.glob("*.json"))
    for name, digests in GOLDEN.items():
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        assert ("collapse" in digests) == (doc["mode"] == "collapse")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_outputs_byte_identical(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scenario = str(SCENARIOS / f"{name}.json")
    assert run_command(["simulate", scenario, "--output", "out.csv"]) == 0
    got = {"csv": _sha((tmp_path / "out.csv").read_bytes()),
           "mass": _sha((tmp_path / "out.mass.csv").read_bytes()),
           "stdout": _sha(capsys.readouterr().out.encode())}
    if "collapse" in GOLDEN[name]:
        assert run_command(["collapse", scenario]) == 0
        got["collapse"] = _sha(capsys.readouterr().out.encode())
    assert got == GOLDEN[name]
