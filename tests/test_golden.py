"""Output bytes at scale: sha256 of what ``classify``, ``check`` and
``wsd`` print on eight seeded instances, recorded before the simplex
kernel kept only its nonbasic columns; the rational p = 3 instance,
whose cells are clipped by rows with mixed denominators, was recorded
before the p = 3 clip moved to integer homogeneous vertices, and the
rational p = 2 instance, whose cell intervals and interval bar have
denominators above 1, before the cells kept their program's int rows.
The lifted near-collinear p = 2 instance, whose 39 cells are 21 single
points, 15 segments and 3 polygons, was recorded before the p = 3
clip's ring stopped being rebuilt by a convex hull.  A second table pins
the outputs the first does not read - the classify and check tables,
the classify figure and the dichotomic document and table - recorded
before stdout and figure writes reported their own failures; its
lifted near-collinear entry was recorded before the figures and tables
each had one writer per element.

Every label, witness and cell is an exact LP verdict, and Bland's rule
fixes which optimal vertex a degenerate program returns, so a kernel
that pivots differently changes these bytes even when every label
stays right.
"""

import hashlib
import json
import random
import re

import pytest

from conftest import anticorr_rows, random_rational_rows
from ndsupport.cli import main
from ndsupport.ratlp import format_rational

# The substitution bench/workloads.py applies: timing is not output.
_ELAPSED = re.compile(r',\n  "elapsed_seconds": [^\n]*\n')


def _points_file(path, rows, p):
    doc = {"objectives": p, "points": [[format_rational(c) for c in r] for r in rows]}
    path.write_text(json.dumps(doc) + "\n")


def _instance(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    if name == "points-300-5":
        assert main(["gen", "points", "300", "5", "--out", str(path)]) == 0
    elif name == "knapsack-15-2":
        assert main(["gen", "knapsack", "15", "2", "--out", str(path)]) == 0
    elif name == "assignment-7-3-lifted":
        spec = tmp_path / "assignment.json"
        assert main(["gen", "assignment", "7", "3", "--out", str(spec)]) == 0
        assert main(["lift", str(spec), "--out", str(path)]) == 0
    elif name == "collinear-40-2-lifted":
        rng = random.Random(1)
        xs = rng.sample(range(121), 40)
        spec = tmp_path / "collinear.json"
        _points_file(spec, [[x, 120 - x + rng.randint(0, 1)] for x in xs], 2)
        assert main(["lift", str(spec), "--out", str(path)]) == 0
    elif name == "anticorr-60-3":
        _points_file(path, anticorr_rows(1, 60, 3), 3)
    elif name == "rational-80-3":
        _points_file(path, random_rational_rows(random.Random(5), 80, 3), 3)
    elif name == "rational-60-2":
        _points_file(path, random_rational_rows(random.Random(7), 60, 2), 2)
    else:
        _points_file(path, random_rational_rows(random.Random(3), 60, 4), 4)
    capsys.readouterr()
    return str(path)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(name, tmp_path, capsys):
    """sha256 of classify --format json (elapsed removed), check --format
    json, the wsd document and, for p = 2 or 3, the wsd figure."""
    path = _instance(name, tmp_path, capsys)
    digests = []
    assert main(["classify", "--format", "json", path]) == 0
    digests.append(_sha(_ELAPSED.sub("\n", capsys.readouterr().out)))
    assert main(["check", "--format", "json", path]) == 0
    digests.append(_sha(capsys.readouterr().out))
    svg = tmp_path / "wsd.svg"
    assert main(["wsd", path, "--svg", str(svg)]) == 0
    digests.append(_sha(capsys.readouterr().out))
    if svg.exists():
        digests.append(hashlib.sha256(svg.read_bytes()).hexdigest())
    return digests


GOLDEN = {
    "points-300-5": [
        "07936a8f45f60fd2c2e4afebeb9a69987371e0c4c0ca5129d628553214055590",
        "6ccabe92af095a25b7f011b5424788910b557ec2551595bfb4cec19a1eb727cc",
        "d3a9318c639a6702828c399d47a06c153a9312d60d1e5a827a6ada7dd0e2f3ce",
    ],
    "knapsack-15-2": [
        "aa449fa403fd53ebbb28695eb50bb83213d441876ee6eed687e5d00fd91fdd04",
        "d6a0c6ce6dbcc5282d8b92c637649582520fef9a7a91ac12c729ee874406f286",
        "6a8ef3de4e770690a7f5d662185227ad163e0f3e24e365a701dafe5c863d1be0",
        "8d76f4ed5c0949ffe16ec598131465a9de55bea7c2072cecf28220695d68ecee",
    ],
    "assignment-7-3-lifted": [
        "1e1b740f47480217bfd85b019dc116991256bfa5c0955ccab71dc33803517c49",
        "c6badc5574d51ec6d94f824d6718320402fc4bcc1e88c90a86edc751d264ed0d",
        "0f98455f49ba9ea8ee6848e37375587f5aaba6c2d034674d8d65a04a540ed668",
    ],
    "collinear-40-2-lifted": [
        "e24bee2fa62d44177f72c10e70dee89cd71179032f4c1fceffe298cbde4b9f86",
        "7cde3bddf996401723688b962dff5d6019aa1290c3e4a1ea3d9c8f6de3446d6e",
        "ee2026959973c4153615af570ea595bf38c8067dfd271c8cf6342a7881c78f22",
        "3571c6c9ff1d5b96ca3af48ce02a00a070a3e3612f76e97f3de27ad3d7131afd",
    ],
    "anticorr-60-3": [
        "619786e4234fcd047191c3ef96f1e3545016c7d0248d2911f6248308237ab73b",
        "9da7cfb8f3b249a88b88d3c771c8425eb558d54ddc9f8805df084a008054d715",
        "d8e10fc92d2bdcefecd3ed6759429d2f46131edb746f5daee1e35f71c0575a54",
        "b619f42ee43b122af0d35d2649b2038e3358a79f2f50dfa714faf5c1c1972579",
    ],
    "rational-80-3": [
        "5b84059c3431ad82bbec89a89fc361be7dc658210bf3e1ce0ae892d3f9426b86",
        "9cffb5c1b84727487c4475944f3427631836676bc7ccbdac5e779c5b7f4923c4",
        "441303a152c162cbbdf5766460b0edd2defe550e8aeca78fd42ab152140906b5",
        "de8c3709c880337994e892374b3f93db4e53bac9b57fecd82f766a13dcd48b98",
    ],
    "rational-60-2": [
        "5c6dc3c291e20ebf19d2a552454b2eac1a9909259beda9a58e6a2fd6276e5b37",
        "5dfb8352dec3f1a7a3cde6065d94e79b81b3c4b26b4447db336bb666da71526e",
        "aee919d09d62ba3de54e2a5e1e73f3c8b2e9f433a788f2142f085131549dfd6c",
        "6449b9cddf98dcae19dda962511659c49aac92e64111862470b5b2c78a0c3746",
    ],
    "rational-60-4": [
        "0e5256da5a41ffb218f14b1bcc51c01a53c578a0e658a7851d57ded6ce5887bc",
        "71ed9a0ce31e8d08500e9e5efcf5d5a09c6f332bd91d78ecd82658b7be6df8d7",
        "2feb119597be8e475bb3d79e4e3c425598ea575915b9269aa85729b103b4e5b3",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_recorded_digests(name, tmp_path, capsys):
    assert output_digests(name, tmp_path, capsys) == GOLDEN[name]


# The elapsed line of the classify table: timing is not output.
_ELAPSED_LINE = re.compile(r"^elapsed: [^\n]*\n", re.MULTILINE)


def table_digests(name, tmp_path, capsys):
    """sha256 of the classify table (elapsed removed) and the check
    table and, for p = 2, the classify figure and the dichotomic json
    document and table."""
    path = _instance(name, tmp_path, capsys)
    digests = []
    svg = tmp_path / "classify.svg"
    assert main(["classify", path, "--svg", str(svg)]) == 0
    digests.append(_sha(_ELAPSED_LINE.sub("", capsys.readouterr().out)))
    assert main(["check", path]) == 0
    digests.append(_sha(capsys.readouterr().out))
    if svg.exists():
        digests.append(hashlib.sha256(svg.read_bytes()).hexdigest())
        assert main(["dichotomic", "--format", "json", path]) == 0
        digests.append(_sha(capsys.readouterr().out))
        assert main(["dichotomic", path]) == 0
        digests.append(_sha(capsys.readouterr().out))
    return digests


TABLE_GOLDEN = {
    "anticorr-60-3": [
        "aca9a2fd3b75ee10b419c4c6f4a4aff8656f9452762e3b9b24a5f14a6db19979",
        "679568ae96e6656d5d36f862b9d28de94e5988489b985ce97ada9a8b15ed1e67",
    ],
    "assignment-7-3-lifted": [
        "de634149c26d867aa86b9aaf4639d0fff0d1a3cb651f9db5e5fed69bf3ef0232",
        "e819502ae0ecfb956a8f783e6d1245bfc614234f0088963481a2ebda8f78d321",
    ],
    "collinear-40-2-lifted": [
        "f095ec06506ee34ae3c73fc883e69a4dc3198461baf7480b5a84dd8cbe113dc8",
        "2267e19f1ebdaf2ee0051db52621340938ea2be449a6a2c1bc627be42e9cacfc",
    ],
    "knapsack-15-2": [
        "81e0dba9fe94f72826699586cd73754d962b5c1e5e8885b4a2f16fa326ef20fb",
        "bd5ae993c955471061a1e54461122babeb8a50f449a780f8a6e8cf3621586659",
        "f3eabd962c0343866cd4c79e874a5caacc6c580fe73d2c8f71b1f18253e5cc86",
        "740d7d174a4e778e3b7aa9656956188f3c8eb2402fe64ffee27c47e8f57c377e",
        "fb01b49bc7b8de6b9903dac6dc5083c44c8fd2830aff84f830a8d1116f37e04e",
    ],
    "points-300-5": [
        "2b84803f3aad884866c927fc0941c5cf41f1ded0b0d79c9172756030941c107e",
        "84b00015f556b7905a09e4a5a516824b6800375cc245d6d636caac7de199a7f6",
    ],
    "rational-60-2": [
        "9261a992509358c80cf342d165acb74304b4ade9c87a0492507d2942e9498ffe",
        "76e963b14fe335f424c3a478f4ee94fdeee32a2db3cb2e651690a145821c520c",
        "846a64694f6374b8d640d0a8f7dfc1b8972fceefe0597823f8c787370db29b68",
        "b65b0cb5a583c8f9e3a86b7527f036facfc99f4b99dc7dc60dea0d86437a7d67",
        "9851a2cd06b7a89c4ef714e5e933da53e95441d1277b10ca0a0ee8371f016428",
    ],
    "rational-60-4": [
        "f81c4fcbd2e80ab288ad34b2887b5d5cf1e4f73b811ee8b9578ddf11b95c46fb",
        "4008b41388d394fb10151cbe9cd22084cd417a1571bb801def8962006e1689ea",
    ],
    "rational-80-3": [
        "98080ab31e919c5fade0a68631861901577778d5359ffbdbd840b2a77b5dda2e",
        "19a0f68d231c0c156935557940fb2602f7f9c8664002f36068ba54378955f541",
    ],
}


@pytest.mark.parametrize("name", sorted(TABLE_GOLDEN))
def test_table_and_figure_bytes_match_recorded_digests(name, tmp_path, capsys):
    assert table_digests(name, tmp_path, capsys) == TABLE_GOLDEN[name]
