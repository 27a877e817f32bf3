"""The bundled reports stay byte-identical.

Runs `build` (text, json, dot), the 24 `solve --format json` reports and a
`verify --format json` of every found report on the bundled example under
g1/g2/g3, and compares each output's exit code and sha256 digest with the
values in `PINNED`.  Each found report is pinned a second time with its
`profile` key removed (the `answer` cases), so a change of the profile
format re-records only the `solve` pins of found reports.  The commands
run from a directory holding copies of the assets under fixed relative
names, so the paths the reports echo are the same on every machine.

`RENAMED_PINNED` pins the 24 `solve --format json` reports once more, on
the same game and graphs with players 0..4 renamed e, d, c, b, a (same
order in the game): every other game names its players so that name order
is index order, and a report that orders anything by player index where it
should order by name changes only these pins.

To print the table for the current code (after a deliberate report change):

    PYTHONPATH=src python tests/test_pinned_reports.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from equisynth import asset_path
from equisynth.cli import main

GRAPHS = ("g1", "g2", "g3")
PREDICATES = (None, "p=(0,0,1,1,1)", "p=(0,0,3,3,3)", "p[0]>=1")
MAIN_INF = (None, "v0,v1")


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _copy_assets(workdir: Path) -> None:
    shutil.copy(asset_path("five_player_game.json"), workdir / "game.json")
    for g in GRAPHS:
        shutil.copy(asset_path(f"comm_{g}.json"), workdir / f"{g}.json")


def _queries():
    """(case name, query arguments) per predicate and --main-inf set."""
    for predicate in PREDICATES:
        for main_inf in MAIN_INF:
            query = []
            if predicate:
                query += ["--predicate", predicate]
            if main_inf:
                query += ["--main-inf", main_inf]
            yield f"{predicate or '-'} {main_inf or '-'}", query


def pinned_outputs(workdir: Path) -> dict[str, tuple[int, str]]:
    """Case name -> (exit code, sha256 of stdout), run inside `workdir`."""
    _copy_assets(workdir)
    out: dict[str, tuple[int, str]] = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for g in GRAPHS:
            files = ["--game", "game.json", "--comm", f"{g}.json"]
            for fmt in ("text", "json", "dot"):
                code, text = _run(["build", *files, "--format", fmt])
                out[f"build {g} {fmt}"] = (code, _digest(text))
            for case, query in _queries():
                name = f"{g} {case}"
                code, text = _run(["solve", *files, *query, "--format", "json"])
                out[f"solve {name}"] = (code, _digest(text))
                if code == 0:
                    answer = json.loads(text)
                    del answer["profile"]
                    out[f"answer {name}"] = (
                        code, _digest(json.dumps(answer, indent=2, sort_keys=True)))
                    Path("report.json").write_text(text)
                    code, text = _run(
                        ["verify", *files, *query, "--format", "json", "report.json"])
                    out[f"verify {name}"] = (code, _digest(text))
    finally:
        os.chdir(old)
    return out


RENAMED = dict(zip("01234", "edcba"))


def renamed_outputs(workdir: Path) -> dict[str, tuple[int, str]]:
    """Case name -> (exit code, sha256 of stdout) of the `solve` reports on
    the bundled game with its players renamed by `RENAMED`, run inside
    `workdir`."""
    workdir.mkdir(exist_ok=True)
    game = json.loads(Path(asset_path("five_player_game.json")).read_text())
    game["players"] = [RENAMED[a] for a in game["players"]]
    for rows in game["transitions"].values():
        for row in rows:
            if isinstance(row["pattern"], dict):
                row["pattern"] = {RENAMED[a]: act for a, act in row["pattern"].items()}
    (workdir / "game.json").write_text(json.dumps(game))
    for g in GRAPHS:
        comm = json.loads(Path(asset_path(f"comm_{g}.json")).read_text())
        comm["edges"] = [[RENAMED[a], RENAMED[b]] for a, b in comm["edges"]]
        (workdir / f"{g}.json").write_text(json.dumps(comm))
    out: dict[str, tuple[int, str]] = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for g in GRAPHS:
            for case, query in _queries():
                code, text = _run(["solve", "--game", "game.json", "--comm", f"{g}.json",
                                   *query, "--format", "json"])
                out[f"renamed solve {g} {case}"] = (code, _digest(text))
    finally:
        os.chdir(old)
    return out


PINNED: dict[str, tuple[int, str]] = {
    'build g1 text': (0, '304028bac5954733c9c58610787bd9b272e721f2aaad4c8dfdb37c01aa412d8d'),
    'build g1 json': (0, '737ab6d3c5b83dbd95c4829a803d97af4fa568f2767c2eee4aadf181220319ce'),
    'build g1 dot': (0, 'a26e1a466daab28276928d84bbd74fa77a456d6ce1a9f39c53fa696d6ba38079'),
    'solve g1 - -': (0, 'abe696ffe02a813c0914a48e34066c2895a7d0e60328a3d0cafab3a7ddc72e90'),
    'answer g1 - -': (0, 'b6635e0729aa726e25ac738c94465874cb8a766c23334bc1c375a37875f05808'),
    'verify g1 - -': (0, '34c6e0d1f6c82aec2d871c08f1de9453ff69e948851c8066474da17be8f61a25'),
    'solve g1 - v0,v1': (0, 'fa964b49fcab5110fa4e3fc255e97ae4d688284d408ee2ac500b4d3790f77928'),
    'answer g1 - v0,v1': (0, '9f2d84833883a651008f550f01d976dcd9870696d4fd64b683cd9701cdc27023'),
    'verify g1 - v0,v1': (0, '34c6e0d1f6c82aec2d871c08f1de9453ff69e948851c8066474da17be8f61a25'),
    'solve g1 p=(0,0,1,1,1) -': (0, 'ff4dee368530c1c6ce4727f5af1b34ba91aabfef513f219ce9994b9ca4503f86'),
    'answer g1 p=(0,0,1,1,1) -': (0, '859c167a54588a804fe81d53c6463ea1baf21f8002173f742b02f944a8dacb31'),
    'verify g1 p=(0,0,1,1,1) -': (0, '34c6e0d1f6c82aec2d871c08f1de9453ff69e948851c8066474da17be8f61a25'),
    'solve g1 p=(0,0,1,1,1) v0,v1': (0, '2ad76d9d360230fc26c8b6b5e54a41a693fd4823e71ea8d504aa1ddf055f55cb'),
    'answer g1 p=(0,0,1,1,1) v0,v1': (0, '9ec7439957f90bbefda3d076db975241afbff258c093273b1e2df285c41605ca'),
    'verify g1 p=(0,0,1,1,1) v0,v1': (0, '34c6e0d1f6c82aec2d871c08f1de9453ff69e948851c8066474da17be8f61a25'),
    'solve g1 p=(0,0,3,3,3) -': (0, 'a43f716bf3a28f273f8b7f312b3f5e342146dfdd612e1c10d4cd690e199643eb'),
    'answer g1 p=(0,0,3,3,3) -': (0, 'd202dad8c7ceef9781e053c6242e75fe623055a0f8d68fd7ac7b21083ad6dded'),
    'verify g1 p=(0,0,3,3,3) -': (0, '8cc812390aa7ebe369cc2e95cda19e707cd87bc1357804019b0c3614887904c4'),
    'solve g1 p=(0,0,3,3,3) v0,v1': (1, '14432069fd57f0773fad51170d5d401b34d3951d0c78edc35a3e77c770c3c3b3'),
    'solve g1 p[0]>=1 -': (1, 'bbae4b667960f599166fdc3711a9221208e490f159159ec959fdb68d1fdb7759'),
    'solve g1 p[0]>=1 v0,v1': (1, '43c3af07366ce9b760129b5afe93ff2e9fc73a7ce041b4baf63754367d4c81a4'),
    'build g2 text': (0, 'dc5063a250002e38fa75ed206ebcace91bd6a06179e3716e91db70753db752ed'),
    'build g2 json': (0, '06e4cd7ea89d3dc42f9c905eee0c53a8dc542752510b8b2736a1dccec151a93c'),
    'build g2 dot': (0, '3e8acbc2066856057dc9834ce9d2c67948adff33b5f66a503d3b28ac9d03e383'),
    'solve g2 - -': (0, '6fc9ba8882becdb5cacc32b6d9f1a1a14d001f1ad4b18d714e35d1c46fd7ff97'),
    'answer g2 - -': (0, 'd8b59cd442bf2d450b3892389292c763da5c44e07743f0b469972897ea5fe4ba'),
    'verify g2 - -': (0, 'd4b1ddd6705fed02c5f09113b3f49e78bdeb4e5af94a570094dd0e2b84a77084'),
    'solve g2 - v0,v1': (0, '1d51261a8d61666040fe2712cae396762bf9edc07b9ccd6b19507511342351aa'),
    'answer g2 - v0,v1': (0, 'd701a8917eaad13cbd8cdce1627056a73907d472c00af2f4803abf426603b9ea'),
    'verify g2 - v0,v1': (0, 'd4b1ddd6705fed02c5f09113b3f49e78bdeb4e5af94a570094dd0e2b84a77084'),
    'solve g2 p=(0,0,1,1,1) -': (0, '5aa8e71df3d6a4d9087653c8a531b6cad6e6bce5e4056ba0734f1b87f586f852'),
    'answer g2 p=(0,0,1,1,1) -': (0, 'ea7052eac8c27d851d9c0a2cb0472397dcb1b450c325bac4d2da8afd7398ebb7'),
    'verify g2 p=(0,0,1,1,1) -': (0, 'd4b1ddd6705fed02c5f09113b3f49e78bdeb4e5af94a570094dd0e2b84a77084'),
    'solve g2 p=(0,0,1,1,1) v0,v1': (0, 'b910e4e62e4cc04ff99a22dc99ce5fd88eb6de76d6fa14eb5ff102c0d147eaa9'),
    'answer g2 p=(0,0,1,1,1) v0,v1': (0, 'fa6ec334c23eeb2a80b5d874011a61bb43f0b4301a558c908caf46d4930df85d'),
    'verify g2 p=(0,0,1,1,1) v0,v1': (0, 'd4b1ddd6705fed02c5f09113b3f49e78bdeb4e5af94a570094dd0e2b84a77084'),
    'solve g2 p=(0,0,3,3,3) -': (0, '49e027d3e1f45d82fb337e9d9321fc8e3393b46a17250a17799d688df9ae2638'),
    'answer g2 p=(0,0,3,3,3) -': (0, '1d6d9c32ecde7e0aea20f5b5aa35435edb671f52b5254e9db6e750d869da052f'),
    'verify g2 p=(0,0,3,3,3) -': (0, '0a97f0ca4586618758659a748ba033770978f564a734ecfea69e45ffb20a3948'),
    'solve g2 p=(0,0,3,3,3) v0,v1': (1, '1d4951ff202f8ec06be33815ad95c0756c128a6c92b7609c8cddb2b2df94f6ce'),
    'solve g2 p[0]>=1 -': (1, '4553355b46c5c049e0699d8d8f363d3da378b83bd04c42204513c925e10f7192'),
    'solve g2 p[0]>=1 v0,v1': (1, '4213f50efec7028b32bb706d124c6c06f10da166dbee0f6925ab79dce93e4a21'),
    'build g3 text': (0, 'e6f98cb997a3c594e1cd3c9898459a522634ac3c0fa031168bda9cccb01dbb5e'),
    'build g3 json': (0, '2d577d0638dc96d291c84686bd29fe0ac2877defe09120a1a0cf6cee544c866a'),
    'build g3 dot': (0, '81f689b2a7dacc69f9a9e24c60fed71dfebd9effb8ce53a620073b5fd8c428b8'),
    'solve g3 - -': (0, '83593b8fe8e59e16606a537d0645ef2a13f5477f65fdc7a2974e2bc11218e0d8'),
    'answer g3 - -': (0, '4c6afd7034815f8f3f7adb6a8e3c3b287e66b3d40fdf0a064412612f09201996'),
    'verify g3 - -': (0, '2923060412f8c6f6d51d74d01673a759456ad4c259e5ef0cde1a682b49258a71'),
    'solve g3 - v0,v1': (1, 'b55218513ab380ec9e7c0dfc003eefe36759be6adc601fe3f49700ec714236f7'),
    'solve g3 p=(0,0,1,1,1) -': (1, '4e0b873458657be41988abf7f04eabbffac7b599bef38b192bc2f71bdbf2c3f5'),
    'solve g3 p=(0,0,1,1,1) v0,v1': (1, '51274a5050e85faafb638a9dfafc4ab5e8b7700ec88cd118d2c4edd7bb2505cd'),
    'solve g3 p=(0,0,3,3,3) -': (0, '96d858f9f1b3749b1902e2a9ef4a6c5ea218ab05c2808a472039f10a9954fc10'),
    'answer g3 p=(0,0,3,3,3) -': (0, '6f5a7785ac79dc4f39e849b00fd98f35d24f54746d126ef8f761278c9cf3f57b'),
    'verify g3 p=(0,0,3,3,3) -': (0, 'ac9223145ef40aef8e9614abd739a4bbc6d44ac2af5552c649ad66b0b1ac15b7'),
    'solve g3 p=(0,0,3,3,3) v0,v1': (1, '3c9540c333689051cc2785042def4b361ece3109ff5d74a797e4da922db704b5'),
    'solve g3 p[0]>=1 -': (1, '9c03ead4be6b97eed5f9411a28086683a68ba82cd98fb152b65859b79752dbcc'),
    'solve g3 p[0]>=1 v0,v1': (1, '5132f1457e59bb90d55ffa8e71cd5e345757c97dd4e61ff427d0cbfc8739a754'),
}

RENAMED_PINNED: dict[str, tuple[int, str]] = {
    'renamed solve g1 - -': (0, 'cc53c37d414f2707d671c51cc23772a5e641002ee62c740174010acf12956652'),
    'renamed solve g1 - v0,v1': (0, '4f98f13f1a54d0359947e89bfce6dd4fc469663917475ed0ed93ebc3019249ce'),
    'renamed solve g1 p=(0,0,1,1,1) -': (0, 'c2617c7538119515797b1a9ae1fd79b2cf2585f315bd70245528fbaf47d710f7'),
    'renamed solve g1 p=(0,0,1,1,1) v0,v1': (0, '2696643ebba74d096770ef13da50674582a91592a3da5dae7196a2046ce628ff'),
    'renamed solve g1 p=(0,0,3,3,3) -': (0, '177552caffbe50d21a366ed468f77e92b62515401af549e3a92c33bac966ffc5'),
    'renamed solve g1 p=(0,0,3,3,3) v0,v1': (1, '14432069fd57f0773fad51170d5d401b34d3951d0c78edc35a3e77c770c3c3b3'),
    'renamed solve g1 p[0]>=1 -': (1, 'bbae4b667960f599166fdc3711a9221208e490f159159ec959fdb68d1fdb7759'),
    'renamed solve g1 p[0]>=1 v0,v1': (1, '43c3af07366ce9b760129b5afe93ff2e9fc73a7ce041b4baf63754367d4c81a4'),
    'renamed solve g2 - -': (0, '52b41162f5d427fb637e826fb2ec170ce42ca520b0539cb9680be7cc23d76f7b'),
    'renamed solve g2 - v0,v1': (0, 'f52840773d14fb67e6fcbf11504cd2edf7592d7837c646a6cdebfb3ba34395a4'),
    'renamed solve g2 p=(0,0,1,1,1) -': (0, '9a3aff225193b7ef64692e8a31d969858d1c4977858ce1f336a96621795082d4'),
    'renamed solve g2 p=(0,0,1,1,1) v0,v1': (0, '940c669c32538cbf8b7474bd40a630b623ddb0f1478fc55e85892857398b33d8'),
    'renamed solve g2 p=(0,0,3,3,3) -': (0, '67df7c57a90c83e465f84a8f1e80c17c5282ed40b6861c9b7238c458866184d9'),
    'renamed solve g2 p=(0,0,3,3,3) v0,v1': (1, '1d4951ff202f8ec06be33815ad95c0756c128a6c92b7609c8cddb2b2df94f6ce'),
    'renamed solve g2 p[0]>=1 -': (1, '4553355b46c5c049e0699d8d8f363d3da378b83bd04c42204513c925e10f7192'),
    'renamed solve g2 p[0]>=1 v0,v1': (1, '4213f50efec7028b32bb706d124c6c06f10da166dbee0f6925ab79dce93e4a21'),
    'renamed solve g3 - -': (0, 'aaa8d0ba7f4e6a12e162e82297d7d08697f9fcd0db63a33828179ce9bd1106d8'),
    'renamed solve g3 - v0,v1': (1, 'b55218513ab380ec9e7c0dfc003eefe36759be6adc601fe3f49700ec714236f7'),
    'renamed solve g3 p=(0,0,1,1,1) -': (1, '4e0b873458657be41988abf7f04eabbffac7b599bef38b192bc2f71bdbf2c3f5'),
    'renamed solve g3 p=(0,0,1,1,1) v0,v1': (1, '51274a5050e85faafb638a9dfafc4ab5e8b7700ec88cd118d2c4edd7bb2505cd'),
    'renamed solve g3 p=(0,0,3,3,3) -': (0, '95294be5a547d2ef58e657c71b60218ba65b7f75ae636346be94fd130c267d4d'),
    'renamed solve g3 p=(0,0,3,3,3) v0,v1': (1, '3c9540c333689051cc2785042def4b361ece3109ff5d74a797e4da922db704b5'),
    'renamed solve g3 p[0]>=1 -': (1, '9c03ead4be6b97eed5f9411a28086683a68ba82cd98fb152b65859b79752dbcc'),
    'renamed solve g3 p[0]>=1 v0,v1': (1, '5132f1457e59bb90d55ffa8e71cd5e345757c97dd4e61ff427d0cbfc8739a754'),
}


def test_bundled_reports_are_pinned(tmp_path):
    got = pinned_outputs(tmp_path)
    assert sorted(got) == sorted(PINNED)
    changed = {name: got[name] for name in PINNED if got[name] != PINNED[name]}
    assert not changed


def test_renamed_player_reports_are_pinned(tmp_path):
    got = renamed_outputs(tmp_path)
    assert sorted(got) == sorted(RENAMED_PINNED)
    changed = {name: got[name] for name in RENAMED_PINNED if got[name] != RENAMED_PINNED[name]}
    assert not changed


def test_solve_without_candidates_builds_nothing(tmp_path, monkeypatch):
    # No payoff vector of the bundled game gives player 0 at least 1, so
    # `solve` answers without building the epistemic game, with the pinned
    # reports; an unknown --main-inf vertex still exits 2 first.
    def no_build(*_args, **_kwargs):
        raise AssertionError("solve built a game for a query with no candidate payoff")

    monkeypatch.setattr("equisynth.cli.build_reachable", no_build)
    _copy_assets(tmp_path)
    monkeypatch.chdir(tmp_path)
    for g in GRAPHS:
        files = ["--game", "game.json", "--comm", f"{g}.json", "--predicate", "p[0]>=1"]
        for main_inf in MAIN_INF:
            query = ["--main-inf", main_inf] if main_inf else []
            code, text = _run(["solve", *files, *query, "--format", "json"])
            assert (code, _digest(text)) == PINNED[f"solve {g} p[0]>=1 {main_inf or '-'}"]
        assert _run(["solve", *files, "--main-inf", "v9"]) == (2, "")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, (code, digest) in pinned_outputs(Path(tmp)).items():
            print(f"    {name!r}: ({code}, {digest!r}),")
        print()
        for name, (code, digest) in renamed_outputs(Path(tmp, "renamed")).items():
            print(f"    {name!r}: ({code}, {digest!r}),")
