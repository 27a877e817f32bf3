"""The bundled reports stay byte-identical.

Runs `build` (text, json, dot), the 24 `solve --format json` reports and a
`verify --format json` of every found report on the bundled example under
g1/g2/g3, and compares each output's exit code and sha256 digest with the
values in `PINNED`.  Each found report is pinned a second time with its
`profile` key removed (the `answer` cases), so a change of the profile
format re-records only the `solve` pins of found reports.  The commands
run from a directory holding copies of the assets under fixed relative
names, so the paths the reports echo are the same on every machine.

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


def pinned_outputs(workdir: Path) -> dict[str, tuple[int, str]]:
    """Case name -> (exit code, sha256 of stdout), run inside `workdir`."""
    shutil.copy(asset_path("five_player_game.json"), workdir / "game.json")
    for g in GRAPHS:
        shutil.copy(asset_path(f"comm_{g}.json"), workdir / f"{g}.json")
    out: dict[str, tuple[int, str]] = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for g in GRAPHS:
            files = ["--game", "game.json", "--comm", f"{g}.json"]
            for fmt in ("text", "json", "dot"):
                code, text = _run(["build", *files, "--format", fmt])
                out[f"build {g} {fmt}"] = (code, _digest(text))
            for predicate in PREDICATES:
                for main_inf in MAIN_INF:
                    query = []
                    if predicate:
                        query += ["--predicate", predicate]
                    if main_inf:
                        query += ["--main-inf", main_inf]
                    name = f"{g} {predicate or '-'} {main_inf or '-'}"
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


PINNED: dict[str, tuple[int, str]] = {
    'build g1 text': (0, '304028bac5954733c9c58610787bd9b272e721f2aaad4c8dfdb37c01aa412d8d'),
    'build g1 json': (0, '737ab6d3c5b83dbd95c4829a803d97af4fa568f2767c2eee4aadf181220319ce'),
    'build g1 dot': (0, 'a26e1a466daab28276928d84bbd74fa77a456d6ce1a9f39c53fa696d6ba38079'),
    'solve g1 - -': (0, '507d764d18ed279d627a693be2bde6c946f3592f5076e0cf987e2fae88a36df7'),
    'answer g1 - -': (0, '698f642198a99c556f2827b5ff7f174e07a26a5648c8e49635ffec28426b9876'),
    'verify g1 - -': (0, 'c58ff1507d786452435468ac0bca556647348f341e297b526b059a3f430bc1ac'),
    'solve g1 - v0,v1': (0, '114aeeb321147bc58f31928199f6d6e513d0cc3815838a358009b2ef6852b5f4'),
    'answer g1 - v0,v1': (0, 'ce26f363ee7f644d49b5da6312ae0d1a55607a3c17d61748c6e6ea5058e994b6'),
    'verify g1 - v0,v1': (0, 'c58ff1507d786452435468ac0bca556647348f341e297b526b059a3f430bc1ac'),
    'solve g1 p=(0,0,1,1,1) -': (0, 'd94e7fe8adf2619b2393211d425345e14f52d3d9fc149f248dbdbf9524c84b42'),
    'answer g1 p=(0,0,1,1,1) -': (0, '54dddd8b50841a77b14817438003957307091f6ccd55bc15ed8a3769d85134e5'),
    'verify g1 p=(0,0,1,1,1) -': (0, 'c58ff1507d786452435468ac0bca556647348f341e297b526b059a3f430bc1ac'),
    'solve g1 p=(0,0,1,1,1) v0,v1': (0, '5af344574b1c536e1e9e6b1a97e734888e0001f127efbea55f92efeb3581f0b3'),
    'answer g1 p=(0,0,1,1,1) v0,v1': (0, '88e621862763752b202f046f3c178deb1566d485ff7fa78313cff5e2422f725f'),
    'verify g1 p=(0,0,1,1,1) v0,v1': (0, 'c58ff1507d786452435468ac0bca556647348f341e297b526b059a3f430bc1ac'),
    'solve g1 p=(0,0,3,3,3) -': (0, '1453a604666e5ea977323dab88a06d55e556d0d7c411ebe47b50d405323ab26a'),
    'answer g1 p=(0,0,3,3,3) -': (0, '69b4452c94d9ad70a37fa8f0a12f21670113eda06c374f778aad09ad969666b8'),
    'verify g1 p=(0,0,3,3,3) -': (0, 'f709e1927cb759d704d857c8e156047900b731523ff14b0341b442685e74ca5b'),
    'solve g1 p=(0,0,3,3,3) v0,v1': (1, '14432069fd57f0773fad51170d5d401b34d3951d0c78edc35a3e77c770c3c3b3'),
    'solve g1 p[0]>=1 -': (1, 'bbae4b667960f599166fdc3711a9221208e490f159159ec959fdb68d1fdb7759'),
    'solve g1 p[0]>=1 v0,v1': (1, '43c3af07366ce9b760129b5afe93ff2e9fc73a7ce041b4baf63754367d4c81a4'),
    'build g2 text': (0, 'dc5063a250002e38fa75ed206ebcace91bd6a06179e3716e91db70753db752ed'),
    'build g2 json': (0, '06e4cd7ea89d3dc42f9c905eee0c53a8dc542752510b8b2736a1dccec151a93c'),
    'build g2 dot': (0, '3e8acbc2066856057dc9834ce9d2c67948adff33b5f66a503d3b28ac9d03e383'),
    'solve g2 - -': (0, '68d01d581cc128bc3e28486911ee9880010a9aea190a93975333e3806b78016b'),
    'answer g2 - -': (0, 'b9e890b9f62f598dd01c882efe1c57258742ce9eaa28bd544353ebe89742476e'),
    'verify g2 - -': (0, '161eeaac33fcfa3ad617932a8658b777e929fb6fc086201b93450602bee3bc76'),
    'solve g2 - v0,v1': (0, '13d31cf22aebe59dd97badc58daa996c791c7eeb1be520c270a60172424e7fe9'),
    'answer g2 - v0,v1': (0, '6516bb749fae762a3a6728a2843df9c5e34d91c67eda726ca81951ae3a3dcf66'),
    'verify g2 - v0,v1': (0, '161eeaac33fcfa3ad617932a8658b777e929fb6fc086201b93450602bee3bc76'),
    'solve g2 p=(0,0,1,1,1) -': (0, 'be23f6c8eea4c05b13cf5bd56aadc3edf88888b3773e3753506215392907f9a0'),
    'answer g2 p=(0,0,1,1,1) -': (0, '58b8b94abb307d5f009ac98aa04e55f7174499788752ddbc52c09aad4d1e2c5d'),
    'verify g2 p=(0,0,1,1,1) -': (0, '161eeaac33fcfa3ad617932a8658b777e929fb6fc086201b93450602bee3bc76'),
    'solve g2 p=(0,0,1,1,1) v0,v1': (0, 'b309825a07a2aea09fd1fef685b061ddedbb899acc48fe3dae1acf54e0957e54'),
    'answer g2 p=(0,0,1,1,1) v0,v1': (0, '31f57ccf8c1a9ae010592a6050f377bdc2ad7489886021b246089945452e1b08'),
    'verify g2 p=(0,0,1,1,1) v0,v1': (0, '161eeaac33fcfa3ad617932a8658b777e929fb6fc086201b93450602bee3bc76'),
    'solve g2 p=(0,0,3,3,3) -': (0, '2d3b8f64a7529a864f77c228f83f88b6cabc6641003f57b9fb568d6e425252d9'),
    'answer g2 p=(0,0,3,3,3) -': (0, '6ba32659bb1925853508db84cb5c01158f1bc11e3deed245235f089a87e57142'),
    'verify g2 p=(0,0,3,3,3) -': (0, 'fcaed8cd6dd0b0c6c0ffc978d3a2a1ca5e382734fd061cb8130b25b9ac2092c7'),
    'solve g2 p=(0,0,3,3,3) v0,v1': (1, '1d4951ff202f8ec06be33815ad95c0756c128a6c92b7609c8cddb2b2df94f6ce'),
    'solve g2 p[0]>=1 -': (1, '4553355b46c5c049e0699d8d8f363d3da378b83bd04c42204513c925e10f7192'),
    'solve g2 p[0]>=1 v0,v1': (1, '4213f50efec7028b32bb706d124c6c06f10da166dbee0f6925ab79dce93e4a21'),
    'build g3 text': (0, 'e6f98cb997a3c594e1cd3c9898459a522634ac3c0fa031168bda9cccb01dbb5e'),
    'build g3 json': (0, '2d577d0638dc96d291c84686bd29fe0ac2877defe09120a1a0cf6cee544c866a'),
    'build g3 dot': (0, '81f689b2a7dacc69f9a9e24c60fed71dfebd9effb8ce53a620073b5fd8c428b8'),
    'solve g3 - -': (0, '8f26c06f878ef989db61556ce178f4487bbca814ab782205b9c0fa2c9000fa09'),
    'answer g3 - -': (0, '29e499127caf7f2acde61dc837dda53b89f8d35a2c699eb37eadc12a5884f1c8'),
    'verify g3 - -': (0, '76edbed9b6a286473d4dae9ec204d892191f933c967d49bd11d585e68608df1c'),
    'solve g3 - v0,v1': (1, 'b55218513ab380ec9e7c0dfc003eefe36759be6adc601fe3f49700ec714236f7'),
    'solve g3 p=(0,0,1,1,1) -': (1, '4e0b873458657be41988abf7f04eabbffac7b599bef38b192bc2f71bdbf2c3f5'),
    'solve g3 p=(0,0,1,1,1) v0,v1': (1, '51274a5050e85faafb638a9dfafc4ab5e8b7700ec88cd118d2c4edd7bb2505cd'),
    'solve g3 p=(0,0,3,3,3) -': (0, '028c6d218a577fff6ffd06fff6cc25e737873cf1b7c7f6717055ce51186477e5'),
    'answer g3 p=(0,0,3,3,3) -': (0, '472b46d63e27556bc7b4decdd920d2ba160a13d75e7f94b000517050173791a6'),
    'verify g3 p=(0,0,3,3,3) -': (0, 'b76c07c07a2752bab863c862010d6137c1e5213ef7f3d63514c0d154dd808181'),
    'solve g3 p=(0,0,3,3,3) v0,v1': (1, '3c9540c333689051cc2785042def4b361ece3109ff5d74a797e4da922db704b5'),
    'solve g3 p[0]>=1 -': (1, '9c03ead4be6b97eed5f9411a28086683a68ba82cd98fb152b65859b79752dbcc'),
    'solve g3 p[0]>=1 v0,v1': (1, '5132f1457e59bb90d55ffa8e71cd5e345757c97dd4e61ff427d0cbfc8739a754'),
}


def test_bundled_reports_are_pinned(tmp_path):
    got = pinned_outputs(tmp_path)
    assert sorted(got) == sorted(PINNED)
    changed = {name: got[name] for name in PINNED if got[name] != PINNED[name]}
    assert not changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, (code, digest) in pinned_outputs(Path(tmp)).items():
            print(f"    {name!r}: ({code}, {digest!r}),")
