"""Golden bytes: the authored corpora package to the same sha256, file by file.

A changed digest here is a change of package bytes, not a speed-up: say why
in CHANGES.md and update the README schema notes before updating it.
"""

import hashlib

import pytest

from crashtrace.pipeline import PipelineConfig, run_batch, write_ledger

import corpus

GOOD_CORPUS = {
    "case_51_101_2023/map.osm": "481ea72771eb2633e3ccc7a1d3b19c0770dd71cc89339db7f0d0075971fbf80e",
    "case_51_101_2023/map.xodr": "8bfed69f40bbbdb6d73281fa7cfe23006d3b10739d52c0cfef8f37c7d85aa7ff",
    "case_51_101_2023/report.xml": "a8534420aa279f5532d55a5daf31a156485a4f96f1b144cb73d7ed47ada5f96e",
    "case_51_101_2023/scenario.json": "08d5a30730c1f48bf16e4900d6c7b0ebd749718b8991563063dc9fd4223a4027",
    "case_51_101_2023/summary.md": "b883126d3c86e7fba435ae8ab52b2f24a8be6e86f12314eae500a152961bbb73",
    "case_51_101_2023/validation.json": "27b9a17aaf55f18faae2f433c1d14e0d444356b96714ef1a27194eb73cd2c7dd",
    "case_51_102_2023/map.osm": "b3c2bd1d12c2763301c489978e401e46fc0ec9e6fe268df6419d7fbb5dbfc676",
    "case_51_102_2023/map.xodr": "b6db1d13f8ecd7107ed45210836eb4b1c74c96598747458284a416974cd914f5",
    "case_51_102_2023/report.xml": "99d795b1884afeb923b347eaea9fd31b75c350a506338eb481944f2ec2722b62",
    "case_51_102_2023/scenario.json": "b4badb962e0dd86ff7fe761df580296dfa7b1c6bc79792a084f3bf0744ac3d69",
    "case_51_102_2023/summary.md": "03bd216c77936c881fd80444e0f8863fb14ebe2635cb663a6ddb60ef1407db84",
    "case_51_102_2023/validation.json": "13abe3d5b33eac18df12a5d90ab992b0a925fb751be9a1c4e3d25cf8ac39154d",
    "case_51_103_2023/map.osm": "edf7eafb86f691d06271d8fc3162fa45902301080b21c1a03536135a5f7ea91e",
    "case_51_103_2023/map.xodr": "c7a3ba037056586574c9ef574a14b54666cf3d8abc5cd52efbfa03045844633b",
    "case_51_103_2023/report.xml": "7af9117b9d08487f4a95199dc9e4378a8a0c1d378e707aabe605a0f46fb5ecba",
    "case_51_103_2023/scenario.json": "187652f58c4d8b79c09be80160bf8b9c0b2751d0c81dd44927b5ae70ef043b61",
    "case_51_103_2023/summary.md": "dcc649242eb7dff512523db52d4b839ac4cfebb7fbab09249c229f4e4d98e6b5",
    "case_51_103_2023/validation.json": "89fd9a3a419943cd5704c4b54d15d64b1a5b40afb67e38041f48de6065b4299d",
    "case_51_104_2023/map.osm": "32bedaa7056aeba696f0b26839604f5e4acfd5a67db00dea8b8d2416137c5555",
    "case_51_104_2023/map.xodr": "9dfbb998415e1a09e408cc69bf4bd6aec68b52bed178cbab86b9d94cc10b8e68",
    "case_51_104_2023/report.xml": "9b90f7dc3c7e83571817961bd683143a65930e6a45d0f3e91bb3eca1c2a58579",
    "case_51_104_2023/scenario.json": "fc459b4b1cb840684703eb56d4a6ce6d44ebc62a2021aa9b14c9655f9767076e",
    "case_51_104_2023/summary.md": "d426685349639374f2e247420d857587f30c3577899273fa5699b240126b7296",
    "case_51_104_2023/validation.json": "68b3dab57b288aa855c22d0f7987b999463db966ab749800ba7199380fb8c296",
    "case_51_105_2023/map.osm": "e971f7a930bdd3fa6d865f4c7a5079146a7b729f10412e2ec901993da5ee7162",
    "case_51_105_2023/map.xodr": "b966c9a38696ebf1d2ab0578878cef7a6e50b6f52b55ef82301087488a10860d",
    "case_51_105_2023/report.xml": "dbf3dec6f8e019f85bd92813064c66695ab4a6c6cb23463c0b850a7009228be7",
    "case_51_105_2023/scenario.json": "5cb6027a89dc494af4ffdb8fa55ea44aab8afd0762904113376dc6a68c9e0b6c",
    "case_51_105_2023/summary.md": "3e2a62ad6af5e2cab867513ca135cba4f8efc753e7f420fbff6d1d7b24e414a6",
    "case_51_105_2023/validation.json": "206f9dc9cd1932b5ddc4d77f16e25af7d9e67c5482525e53f25b7197c6ba4166",
    "ledger.txt": "e023fe96280e47bb8f3b651938c30bf3d1c3b73d23364f362bbdeeeb68d75a53",
}

LEDGER_CORPUS = {
    "case_51_208_2023/map.osm": "35ffcccd9043ec803bc7b0c3220b9eafaa484ee83d54067e3ed2cbe1f040a444",
    "case_51_208_2023/map.xodr": "d33f551a617b80d3aeb40b43deb1f2236f1628fcfac70617d58269a0b722a6ad",
    "case_51_208_2023/report.xml": "9b57ebdf1c62550ee84ef6a65932cec0e57d3cb4577e92a65a13b9b79a2c81c3",
    "case_51_208_2023/scenario.json": "941c2ad1310a9a142f3364f05ab371a9c81cda086734795019436d3f9269e278",
    "case_51_208_2023/summary.md": "ce7ac7597be891b29ace3a7bc3b83bf214690df00d89638fe47492765079a68f",
    "case_51_208_2023/validation.json": "35d56cf6c076abd1733f84e4cb4f72a5bc0546cbe5690f2df22123c4bd8dd74b",
    "case_51_209_2023/map.osm": "c3acbae670186a705cf1f860dc5606f1d541bd8d7f8c9c816ba75114afb290c1",
    "case_51_209_2023/map.xodr": "611c55be4c1dd0ce4d5066556921e204de9e707a96bbf7d5ec5fc020a44bfc8a",
    "case_51_209_2023/report.xml": "3bcc42234d4769a229fcb78407d9de69606a49190eb35e9f947fb797f4a51001",
    "case_51_209_2023/scenario.json": "78ceed61d05349ad8d2a823790f2958e36b7b860eed40b3d03c0c96fbdbcff65",
    "case_51_209_2023/summary.md": "5151338fce47a0c55585998749899ad2e014dfc6d726f2773cf211276b2b4bbf",
    "case_51_209_2023/validation.json": "1b7f582cccb41b3fdc7527e4609b6ed56dbe34c6063d0da90cc30d3e93280a75",
    "case_51_210_2023/map.osm": "6cbb26495d285413719065e3bb98a1d62e567c95b08343d586fb20f7fca1b2fe",
    "case_51_210_2023/map.xodr": "4eead9704c11e3a700ae55cee789a3ead1de0292a00c7be0da435732776ef210",
    "case_51_210_2023/report.xml": "1de24af18d8240be938aada7250a39ad80003697b6e14285ce23cdb2562886c0",
    "case_51_210_2023/scenario.json": "f95a240ed243cc8151d570df364057e850a7ab7a336e3d103d74ba9c2ec9d6fa",
    "case_51_210_2023/summary.md": "bff86d232d4ecd4836c848ff785c20cc17c0fc434bbb1240d00ff44fcb0b269c",
    "case_51_210_2023/validation.json": "27b9a17aaf55f18faae2f433c1d14e0d444356b96714ef1a27194eb73cd2c7dd",
    "ledger.txt": "8a4888a791e34a3dd07f2f4702b7a0e6deb4c1d959df0e84922d757b91c3b566",
}


@pytest.mark.parametrize("write_corpus, expected", [
    (corpus.write_good_corpus, GOOD_CORPUS),
    (corpus.write_ledger_corpus, LEDGER_CORPUS),
], ids=["good", "ledger"])
def test_packages_and_ledger_match_golden_sha256(tmp_path, write_corpus, expected):
    fixtures, out = tmp_path / "fixtures", tmp_path / "out"
    keys = write_corpus(fixtures)
    _, outcomes = run_batch(keys, PipelineConfig(offline=True, fixtures_dir=fixtures,
                                                 out_dir=out, parallelism=1))
    write_ledger(outcomes, out / "ledger.txt")
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert digests == expected
