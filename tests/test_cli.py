import json

import pytest

from hopfk.cli import main
from hopfk.diagio import (
    DataFormatError,
    builtin_algebra,
    builtin_group,
    builtin_hom,
    dump_algebra,
    dump_diagram,
    parse_algebra,
    parse_diagram,
    parse_group,
    parse_hom,
    result_record,
)
from hopfk.heegaard import connected_sum, lens_diagram
from hopfk.hopf import validate_hopf
from hopfk.scalars import Scalar


# -- serialization round trips -------------------------------------------------


def test_algebra_roundtrip(kp, fs3):
    for H in (kp, fs3):
        data = json.loads(json.dumps(dump_algebra(H)))
        back = parse_algebra(data)
        assert back.dim == H.dim
        assert back.mul == H.mul
        assert back.delta == H.delta
        assert back.counit == H.counit
        assert back.antipode == H.antipode
        assert back.crossing == H.crossing
        assert validate_hopf(back).passed


def test_diagram_roundtrip(z2):
    D = connected_sum(
        lens_diagram(2).with_colors(z2, (1,)),
        lens_diagram(3).with_colors(z2, (0,)),
    )
    data = json.loads(json.dumps(dump_diagram(D)))
    back = parse_diagram(data, z2)
    assert back == D
    # colors can be dropped on request
    plain = parse_diagram(data, ignore_colors=True)
    assert not plain.colored and plain.uncolored() == D.uncolored()


def test_builtin_names():
    assert builtin_group("z6").order == 6
    assert builtin_group("cyclic-2").order == 2
    assert builtin_group("s4").order == 24
    assert builtin_hom("sign-s3").target.order == 2
    assert builtin_hom("mod2-z4").source.order == 4
    assert builtin_hom("trivial-z5").target.order == 1
    assert builtin_algebra("kp").dim == (4, 4)
    assert builtin_algebra("fun-sign-s3").dim == (3, 3)
    for bad in ("z", "q8", "mod3-z4", "fun-nope"):
        with pytest.raises(DataFormatError):
            builtin_group(bad) if bad[0] in "zq" else builtin_hom(bad)


def test_parse_group_table_and_hom():
    G = parse_group({"names": ["e", "a"], "mul": [[0, 1], [1, 0]]})
    assert G.order == 2
    phi = parse_hom({"source": "z4", "target": "z2", "image": [0, 1, 0, 1]})
    assert phi.fiber(1) == (1, 3)
    with pytest.raises(DataFormatError):
        parse_hom({"source": "z4", "target": "z2", "image": [0, 1, 1, 0]})
    with pytest.raises(DataFormatError):
        parse_group({"names": ["e"]})


def test_malformed_algebra_rejected(kp):
    data = dump_algebra(kp)
    broken = dict(data)
    broken["counit"] = ["1", "not-a-scalar", "0", "0"]
    with pytest.raises(DataFormatError):
        parse_algebra(broken)
    broken = dict(data)
    del broken["delta"]
    with pytest.raises(DataFormatError):
        parse_algebra(broken)
    broken = dict(data)
    broken["delta"] = {k: v for k, v in data["delta"].items() if k != "0|0"}
    with pytest.raises(DataFormatError):
        parse_algebra(broken)


def test_malformed_diagram_rejected(z2):
    with pytest.raises(DataFormatError):
        parse_diagram({"genus": 1})
    D = lens_diagram(2).with_colors(z2, (1,))
    data = dump_diagram(D)
    with pytest.raises(DataFormatError):
        parse_diagram(data)  # colors present but no group given


def test_result_record(kp, z2):
    D = lens_diagram(2).with_colors(z2, (1,))
    rec = result_record(D, Scalar(8), Scalar(2))
    assert rec == {"Z": "8", "K": "2", "genus": 1, "colors": ["1"]}


# -- command line ----------------------------------------------------------------


@pytest.fixture()
def rp3_file(tmp_path, z2):
    path = tmp_path / "rp3.json"
    D = lens_diagram(2).with_colors(z2, (1,))
    path.write_text(json.dumps(dump_diagram(D)))
    return str(path)


def test_cli_validate_algebra(capsys):
    assert main(["validate-algebra", "kp"]) == 0
    out = capsys.readouterr().out
    assert "validate_hopf: pass" in out
    assert "check_structural_lemmas: pass" in out


def test_cli_validate_algebra_catches_breakage(tmp_path, kp, capsys):
    data = dump_algebra(kp)
    data["antipode"]["1"] = data["antipode"]["0"]  # identity is not involutory here
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate-algebra", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_invariant(rp3_file, capsys):
    assert main(["invariant", "--algebra", "kp", "--diagram", rp3_file]) == 0
    assert "K = 2" in capsys.readouterr().out
    assert (
        main(["invariant", "--algebra", "kp", "--diagram", rp3_file, "--json"]) == 0
    )
    rec = json.loads(capsys.readouterr().out)
    assert rec["K"] == "2" and rec["Z"] == "8"


def test_cli_colorings(rp3_file, capsys):
    assert main(["colorings", "--diagram", rp3_file, "--group", "z2"]) == 0
    out = capsys.readouterr().out
    assert "total: 2" in out


def test_cli_lens_table(capsys):
    assert main(["lens-table", "--algebra", "kp", "--max-n", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_key = {(r["p"], r["color"]): r["K"] for r in rows}
    assert by_key[(2, "0")] == "4" and by_key[(2, "1")] == "2"
    assert by_key[(4, "1")] == "0"
    assert by_key[(1, "0")] == "1"


def test_cli_oracle_compare(rp3_file, capsys):
    assert main(["oracle-compare", "--phi", "sign-s3", "--diagram", rp3_file]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_move_fuzz(rp3_file, capsys):
    rc = main(
        [
            "move-fuzz",
            "--algebra",
            "kp",
            "--diagram",
            rp3_file,
            "--steps",
            "5",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline K = 2" in out and "PASS" in out


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["invariant", "--algebra", "kp", "--diagram", missing]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate-algebra", str(garbled)]) == 2
    capsys.readouterr()


def test_cli_uncolored_diagram_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(dump_diagram(lens_diagram(2))))
    assert main(["invariant", "--algebra", "kp", "--diagram", str(path)]) == 2
    capsys.readouterr()


def test_cli_json_deterministic(rp3_file, capsys):
    argv = ["invariant", "--algebra", "kp", "--diagram", rp3_file, "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_oversized_groups_rejected(rp3_file, capsys):
    for argv, message in (
        (["colorings", "--diagram", rp3_file, "--group", "s12"], "more than"),
        (["colorings", "--diagram", rp3_file, "--group", "z100000"], "more than"),
        (["validate-algebra", "fun-trivial-s12"], "more than"),
        (["oracle-compare", "--phi", "mod2-z100000", "--diagram", rp3_file], "more than"),
        (["oracle-compare", "--phi", "mod0-z4", "--diagram", rp3_file], "modulus"),
        (["validate-algebra", "fun-mod0-z4"], "modulus"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
    assert main(["colorings", "--diagram", rp3_file, "--group", "s4"]) == 0
    assert "total: 10" in capsys.readouterr().out  # elements of S4 squaring to 1
