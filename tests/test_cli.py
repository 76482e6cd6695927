import json
import time
from dataclasses import replace

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
from hopfk.groups import GroupHom
from hopfk.heegaard import connected_sum, lens_diagram
from hopfk.hopf import build_function_hopf, conjugation_crossing, dual_variants, validate_hopf
from hopfk.scalars import Scalar


# -- serialization round trips -------------------------------------------------


def test_algebra_roundtrip(kp, fs3, s3):
    idhom = GroupHom(s3, s3, tuple(range(s3.order)))
    conj = replace(build_function_hopf(idhom), crossing=conjugation_crossing(idhom))
    opposite = dual_variants(kp, "opposite")
    assert opposite.crossing is None and "crossing" not in dump_algebra(opposite)
    for H in (kp, fs3, opposite, conj):
        text = json.dumps(dump_algebra(H))
        back = parse_algebra(json.loads(text))
        assert json.dumps(dump_algebra(back)) == text
        assert back.dim == H.dim
        assert back.mul == H.mul
        assert back.delta == H.delta
        assert back.counit == H.counit
        assert back.antipode == H.antipode
        assert back.crossing == H.crossing
        assert validate_hopf(back).passed
    # The crossing is nested b, then a, in JSON and keyed (b, a) in memory.
    assert set(dump_algebra(conj)["crossing"]) == set(s3.names)


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
    # integer fields take JSON integers only: no floats, no booleans
    cases = [
        (lambda d: d.update(genus=1.9), "genus must be an integer, got 1.9"),
        (lambda d: d.update(genus=True), "genus must be an integer, got True"),
        (lambda d: d["crossings"][0].update(sign=1.5), "crossing sign must be an integer, got 1.5"),
        (lambda d: d["crossings"][0].update(id=0.0), "crossing id must be an integer, got 0.0"),
        (lambda d: d["crossings"][1].update(upper=False),
         "crossing upper must be an integer, got False"),
        (lambda d: d["crossings"][1].update(lower="0"),
         "crossing lower must be an integer, got '0'"),
        (lambda d: d["upper_orders"][0].__setitem__(1, 1.0),
         "upper_orders entry must be an integer, got 1.0"),
        (lambda d: d.update(lower_orders=[5]), "lower_orders must be a list of integers, got 5"),
        (lambda d: d.update(colors=[True]), "unknown group element True"),
    ]
    for edit, message in cases:
        broken = json.loads(json.dumps(data))
        edit(broken)
        with pytest.raises(DataFormatError) as exc:
            parse_diagram(broken, z2)
        assert str(exc.value) == message


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


def test_cli_validate_algebra_partial_crossing(tmp_path, kp, capsys):
    data = dump_algebra(kp)
    del data["crossing"]["0"]["1"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    assert main(["validate-algebra", str(path)]) == 2
    assert "error: missing crossing component at (0, 1)" in capsys.readouterr().err


def test_cli_malformed_algebra_blocks(tmp_path, kp, capsys):
    def broken(edit):
        data = dump_algebra(kp)
        edit(data)
        return data

    cases = [
        (broken(lambda d: d["crossing"].update({"0": "identity"})),
         "crossing[0] must be an object keyed by group elements"),
        (broken(lambda d: d["delta"].update({"01": d["delta"].pop("0|1")})),
         "delta key '01' is not 2 names joined by '|'"),
        (broken(lambda d: d["crossing"]["0"].update({"q": d["crossing"]["0"].pop("1")})),
         "unknown group element 'q'"),
        (broken(lambda d: d["mul"].pop("1")), "missing mul component at 1"),
        (broken(lambda d: d["dim"].pop()), "dim list length differs from group order"),
        (broken(lambda d: d["group"].update(names=["e", "a"]) or d["mul"].update(a=d["mul"]["1"])),
         "mul keys '1' and 'a' name the same component"),
        (broken(lambda d: d.update(dim=[4.7, 4])), "dim entry must be an integer, got 4.7"),
        (broken(lambda d: d.update(dim=[4, True])), "dim entry must be an integer, got True"),
        (broken(lambda d: d.update(dim=[-1, 4])), "dim entry must be non-negative, got -1"),
    ]
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        assert main(["validate-algebra", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_group_tables_refused_at_load(tmp_path, kp, rp3_file, capsys):
    # names the algebra codec cannot write back, and table entries that are
    # not JSON integers, are refused at load, for a group file and for the
    # group of an algebra file
    z2 = [[0, 1], [1, 0]]
    cases = [
        (["e", "e"], z2, "group element name 'e' appears twice"),
        (["e", "a|b"], z2, "group element name 'a|b' contains '|'"),
        ([0, 1], z2, "group element name 0 is not a string"),
        (["e", None], z2, "group element name None is not a string"),
        (["e", "a"], [[0, 1], [1, 0.0]], "group mul row entry must be an integer, got 0.0"),
        (["e", "a"], [[0, 1], [True, 0]], "group mul row entry must be an integer, got True"),
    ]
    for i, (names, mul, message) in enumerate(cases):
        with pytest.raises(DataFormatError) as exc:
            parse_group({"names": names, "mul": mul})
        assert str(exc.value) == message
        group = tmp_path / f"group{i}.json"
        group.write_text(json.dumps({"names": names, "mul": mul}))
        assert main(["colorings", "--diagram", rp3_file, "--group", str(group)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        data = dump_algebra(kp)
        data["group"] = {"names": names, "mul": mul}
        algebra = tmp_path / f"algebra{i}.json"
        algebra.write_text(json.dumps(data))
        assert main(["validate-algebra", str(algebra)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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


def test_cli_colorings_search_is_bounded(tmp_path, capsys):
    # 120^5 (about 2.5e10) color vectors over S5: refused before enumerating.
    D = lens_diagram(1)
    for _ in range(4):
        D = connected_sum(D, lens_diagram(1))
    path = tmp_path / "sum5.json"
    path.write_text(json.dumps(dump_diagram(D)))
    start = time.perf_counter()
    assert main(["colorings", "--diagram", str(path), "--group", "s5"]) == 1
    assert time.perf_counter() - start < 5
    assert "resource error: search space exceeds 100000000 tuples" in capsys.readouterr().err


def test_cli_lens_table(capsys):
    assert main(["lens-table", "--algebra", "kp", "--max-n", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_key = {(r["p"], r["color"]): r["K"] for r in rows}
    assert by_key[(2, "0")] == "4" and by_key[(2, "1")] == "2"
    assert by_key[(4, "1")] == "0"
    assert by_key[(1, "0")] == "1"


def test_cli_rejects_a_bad_entry_cap(monkeypatch, capsys):
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("HOPFK_ENTRY_CAP", bad)
        assert main(["lens-table", "--algebra", "kp", "--max-n", "3"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: HOPFK_ENTRY_CAP must be a positive integer, got '{bad}'\n"


def test_cli_oracle_compare(rp3_file, capsys):
    assert main(["oracle-compare", "--phi", "sign-s3", "--diagram", rp3_file]) == 0
    assert "PASS" in capsys.readouterr().out


def test_hom_image_must_be_a_list(tmp_path, rp3_file, capsys):
    # a string is not read as a sequence of one-character element names
    for image in ("0101", {"0": 0}):
        data = {"source": "z4", "target": "z2", "image": image}
        message = f"image must be a list of group elements, got {image!r}"
        with pytest.raises(DataFormatError) as exc:
            parse_hom(data)
        assert str(exc.value) == message
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(data))
        assert main(["oracle-compare", "--phi", str(path), "--diagram", rp3_file]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
