import ast
import json
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import hopfk.cli
from hopfk.cli import main
from hopfk.diagio import (
    DataFormatError,
    UnknownNameError,
    _parse_scalar,
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
from hopfk.groups import GroupHom, symmetric_group, trivial_hom
from hopfk.heegaard import connected_sum, lens_diagram, mirror_diagram
from hopfk.hopf import build_function_hopf, conjugation_crossing, dual_variants, structure_maps, validate_hopf
from hopfk.invariant import contract_invariant
from hopfk.scalars import ONE, Scalar


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


def test_loaded_unit_entries_are_the_shared_one(mul_count):
    # Entries 1 given as the string "1" (as dumped) and as the integer 1.
    text = dump_algebra(builtin_algebra("kp"))
    ints = dict(text, mul={a: json.loads(json.dumps(m).replace('"1"', "1")) for a, m in text["mul"].items()})
    for loaded in (parse_algebra(text), parse_algebra(ints)):
        stored = [v for _, _, t in structure_maps(loaded) for v in t.data.values()]
        assert ONE in stored and all(v is ONE for v in stored if v == ONE)
    assert _parse_scalar("2", "mul") == 2 and _parse_scalar(-1, "mul") == -ONE
    # So GradedTensor.contract skips their products as it does for builtins.
    H = build_function_hopf(trivial_hom(symmetric_group(4)))
    back = parse_algebra(json.loads(json.dumps(dump_algebra(H))))
    report, calls = mul_count(validate_hopf, back)
    assert report.passed and calls == 0


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
    # the JSON parsers take a builtin name in place of an object
    assert parse_hom("mod2-z4") == builtin_hom("mod2-z4")
    assert parse_algebra("kp").dim == (4, 4)
    for bad in ("z", "q8", "mod3-z4", "fun-nope"):
        with pytest.raises(DataFormatError):
            builtin_group(bad) if bad[0] in "zq" else builtin_hom(bad)
    # counts are ASCII digits: a superscript two or an Arabic-Indic one names nothing
    for bad in ("s\u00b2", "z\u0661", "cyclic-\u0663", "symmetric-\uff13"):
        with pytest.raises(UnknownNameError):
            builtin_group(bad)
    for bad in ("mod\u00b2-z4", "mod2-z\u0664", "trivial-s\u00b2"):
        with pytest.raises(UnknownNameError):
            builtin_hom(bad)


def test_parse_group_table_and_hom():
    G = parse_group({"names": ["e", "a"], "mul": [[0, 1], [1, 0]]})
    assert G.order == 2
    phi = parse_hom({"source": "z4", "target": "z2", "image": [0, 1, 0, 1]})
    assert phi.fiber(1) == (1, 3)
    with pytest.raises(DataFormatError):
        parse_hom({"source": "z4", "target": "z2", "image": [0, 1, 1, 0]})
    with pytest.raises(DataFormatError):
        parse_group({"names": ["e"]})
    # an index given as a string is ASCII digits; "\u0661" is an unknown name
    assert parse_hom({"source": "z4", "target": "z2", "image": ["0", "1", "0", "1"]}) == phi
    with pytest.raises(DataFormatError, match="unknown group element"):
        parse_hom({"source": "z4", "target": "z2", "image": ["0", "\u0661", "0", "\u0661"]})


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
        (lambda d: d.update(colors="1"), "colors must be a list of group elements, got '1'"),
        (lambda d: d.update(colors={"1": 5}),
         "colors must be a list of group elements, got {'1': 5}"),
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
        (broken(lambda d: d.update(counit=[True, False, "0", "0"])),
         "bad scalar entry in counit: True"),
    ]
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        assert main(["validate-algebra", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_algebra_and_hom_objects(tmp_path, kp, rp3_file, capsys):
    short = dump_algebra(kp)
    short["mul"]["0"] = short["mul"]["0"][:3]
    with pytest.raises(DataFormatError, match=r"^mul\[0\] shape mismatch$"):
        parse_algebra(short)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(short))
    assert main(["validate-algebra", str(path)]) == 2
    assert capsys.readouterr().err == "error: mul[0] shape mismatch\n"
    with pytest.raises(DataFormatError, match="^bad algebra object: 'dim'$"):
        parse_algebra({"group": "z2"})
    with pytest.raises(DataFormatError, match="^bad homomorphism object: 'target'$"):
        parse_hom({"source": "z2"})
    with pytest.raises(DataFormatError, match="^not a homomorphism: image list has length 1, expected 2$"):
        parse_hom({"source": "z2", "target": "z2", "image": ["0"]})
    path = tmp_path / "short-hom.json"
    path.write_text(json.dumps({"source": "z2", "target": "z2", "image": ["0"]}))
    assert main(["oracle-compare", "--phi", str(path), "--diagram", rp3_file]) == 2
    assert capsys.readouterr().err == "error: not a homomorphism: image list has length 1, expected 2\n"
    with pytest.raises(DataFormatError, match="^not a homomorphism: identity is not mapped to identity"):
        parse_hom({"source": "z2", "target": "z2", "image": ["1", "1"]})


def test_bad_group_tables_refused_at_load(tmp_path, kp, rp3_file, capsys):
    # malformed groups, names the algebra codec cannot write back, and table
    # entries that are not JSON integers, are refused at load, for a group
    # file and for the group of an algebra file
    z2 = [[0, 1], [1, 0]]
    cases = [
        (42, "group must be a name or an object"),
        ([["e", "a"], z2], "group must be a name or an object"),
        ({"names": "ea", "mul": z2}, "group names and mul must be lists"),
        ({"names": ["e", "a"], "mul": {"e": [0, 1], "a": [1, 0]}},
         "group names and mul must be lists"),
        ({"names": ["e", "a"], "mul": [[0, 1]]},
         "invalid group table: multiplication table is not square"),
        ({"names": ["e", "a"], "mul": [[0, 0], [0, 0]]},
         "invalid group table: no two-sided identity element"),
        ({"names": ["e", "a"], "mul": [[0, 1], [1, 2]]},
         "invalid group table: table entry 2 out of range"),
        ({"names": ["e", "e"], "mul": z2}, "group element name 'e' appears twice"),
        ({"names": ["e", "a|b"], "mul": z2}, "group element name 'a|b' contains '|'"),
        ({"names": [0, 1], "mul": z2}, "group element name 0 is not a string"),
        ({"names": ["e", None], "mul": z2}, "group element name None is not a string"),
        ({"names": ["e", "a"], "mul": [[0, 1], [1, 0.0]]},
         "group mul row entry must be an integer, got 0.0"),
        ({"names": ["e", "a"], "mul": [[0, 1], [True, 0]]},
         "group mul row entry must be an integer, got True"),
    ]
    for i, (table, message) in enumerate(cases):
        with pytest.raises(DataFormatError) as exc:
            parse_group(table)
        assert str(exc.value) == message
        group = tmp_path / f"group{i}.json"
        group.write_text(json.dumps(table))
        assert main(["colorings", "--diagram", rp3_file, "--group", str(group)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        data = dump_algebra(kp)
        data["group"] = table
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


@pytest.mark.parametrize("argv, env, code", [
    (["validate-algebra", "kp"], {}, 0),
    (["validate-algebra", "nope.json"], {}, 2),
    (["lens-table", "--algebra", "kp", "--max-n", "1"], {"HOPFK_ENTRY_CAP": "abc"}, 1),
])
def test_the_process_exits_with_mains_code(tmp_path, argv, env, code):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "hopfk.cli", *argv], cwd=tmp_path, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert run.returncode == code, run.stdout + run.stderr


@pytest.mark.parametrize("content", [
    b"[" * 200_000,  # nested past the recursion limit
    b"1" * 5_000,  # an integer over the int-to-str digit limit
    b"\xff\xfe[]",  # not UTF-8
], ids=["deep", "long-int", "not-utf8"])
@pytest.mark.parametrize("argv", [["invariant", "--algebra", "kp", "--diagram"], ["validate-algebra"]],
                         ids=["invariant", "validate-algebra"])
def test_cli_hostile_json_is_an_input_error(tmp_path, capsys, content, argv):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not valid JSON: ") and "Traceback" not in err


NINES = "9" * 5_000  # more digits than int() converts by default


@pytest.mark.parametrize("site", ["builtin_group", "builtin_hom", "element_index", "parse_scalar"])
def test_cli_digit_string_of_any_length_is_an_input_error(tmp_path, capsys, site):
    diagram = tmp_path / "d.json"
    diagram.write_text(json.dumps(dump_diagram(lens_diagram(1))))
    if site == "builtin_group":
        argv = ["colorings", "--group", f"z{NINES}", "--diagram", str(diagram)]
    elif site == "builtin_hom":
        argv = ["oracle-compare", "--phi", f"mod2-z{NINES}", "--diagram", str(diagram)]
    elif site == "element_index":
        diagram.write_text(json.dumps({**dump_diagram(lens_diagram(1)), "colors": [NINES]}))
        argv = ["invariant", "--algebra", "kp", "--diagram", str(diagram)]
    else:
        record = dump_algebra(builtin_algebra("fun-trivial-z2"))
        record["unit"]["0"][0] = NINES
        algebra = tmp_path / "a.json"
        algebra.write_text(json.dumps(record))
        argv = ["validate-algebra", str(algebra)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "set_int_max_str_digits" not in err


def test_cli_uncolored_diagram_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(dump_diagram(lens_diagram(2))))
    assert main(["invariant", "--algebra", "kp", "--diagram", str(path)]) == 2
    capsys.readouterr()


def test_cli_long_error_message_is_cut(tmp_path, rp3_file, capsys):
    # the message quotes the whole 300,000-element genus; stderr shows its
    # first 1,000 characters and its length
    data = json.loads(pathlib.Path(rp3_file).read_text())
    data["genus"] = [0] * 300_000
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    assert main(["invariant", "--algebra", "kp", "--diagram", str(path)]) == 2
    err = capsys.readouterr().err
    message = f"genus must be an integer, got {data['genus']}"
    assert err == f"error: {message[:1000]}… ({len(message)} characters)\n"
    assert len(err.encode()) < 1100


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
        (["colorings", "--diagram", rp3_file, "--group", "z0"], "group 'z0' needs order >= 1"),
        (["colorings", "--diagram", rp3_file, "--group", "cyclic-0"],
         "group 'cyclic-0' needs order >= 1"),
        (["colorings", "--diagram", rp3_file, "--group", "s0"], "group 's0' needs degree >= 1"),
        (["validate-algebra", "fun-trivial-z0"], "group 'z0' needs order >= 1"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
    assert main(["colorings", "--diagram", rp3_file, "--group", "s4"]) == 0
    assert "total: 10" in capsys.readouterr().out  # elements of S4 squaring to 1


def test_non_ascii_digits_are_unknown_names(rp3_file, capsys):
    # names that are neither builtins nor files: exit 2, never a raw int() error
    for argv in (
        ["validate-algebra", "fun-trivial-s\u00b2"],
        ["validate-algebra", "fun-mod\u00b2-z4"],
        ["colorings", "--diagram", rp3_file, "--group", "z\u0661"],
        ["oracle-compare", "--phi", "mod2-z\u0664", "--diagram", rp3_file],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and "invalid literal" not in err


def test_colors_given_as_non_ascii_digits_are_unknown(tmp_path, z2, capsys):
    data = dump_diagram(lens_diagram(2).with_colors(z2, (1,)))
    data["colors"] = ["\u0661"]
    path = tmp_path / "colored.json"
    path.write_text(json.dumps(data))
    assert main(["invariant", "--algebra", "kp", "--diagram", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown group element '\u0661'\n"


def test_an_empty_color_list_keeps_its_group(tmp_path, z2, capsys):
    # An empty list is a color vector too: it resolves against the group
    # and fails on its length, as a list one too long does.
    data = dump_diagram(lens_diagram(2).with_colors(z2, (1,)))
    path = tmp_path / "colored.json"
    for colors in ([], ["1", "0"]):
        path.write_text(json.dumps(dict(data, colors=colors)))
        assert main(["invariant", "--algebra", "kp", "--diagram", str(path)]) == 1
        assert capsys.readouterr() == (
            "validate_diagram: FAIL\n  violation: color vector length differs from genus\n", ""
        )


def test_element_index_out_of_range_is_an_input_error(tmp_path, z2, rp3_file, capsys):
    message = "group element index 2 out of range"
    hom = {"source": "z4", "target": "z2", "image": [0, 1, 0, 2]}
    with pytest.raises(DataFormatError) as exc:
        parse_hom(hom)
    assert str(exc.value) == message
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(hom))
    assert main(["oracle-compare", "--phi", str(path), "--diagram", rp3_file]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    data = dump_diagram(lens_diagram(2).with_colors(z2, (1,)))
    data["colors"] = [2]
    with pytest.raises(DataFormatError) as exc:
        parse_diagram(data, z2)
    assert str(exc.value) == message
    path = tmp_path / "colored.json"
    path.write_text(json.dumps(data))
    assert main(["invariant", "--algebra", "kp", "--diagram", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# An algebra over the trivial group whose one component, the identity one, is 0.
ZERO_DIM_ALGEBRA = {"group": "z1", "dim": [0], "mul": {"0": []}, "unit": {"0": []},
                    "delta": {"0|0": []}, "counit": [], "antipode": {"0": []}}


def test_zero_dimensional_identity_component_is_refused(tmp_path, capsys):
    H = parse_algebra(ZERO_DIM_ALGEBRA)
    algebra = tmp_path / "zero.json"
    algebra.write_text(json.dumps(ZERO_DIM_ALGEBRA))
    assert main(["validate-algebra", str(algebra)]) == 1
    out = capsys.readouterr().out
    assert "validate_hopf: FAIL" in out and "violation: identity component has dimension 0" in out
    D = lens_diagram(2).with_colors(H.pi, (0,))
    with pytest.raises(ValueError, match="^identity component must have nonzero dimension$"):
        contract_invariant(H, D)
    diagram = tmp_path / "l2.json"
    diagram.write_text(json.dumps(dump_diagram(D)))
    assert main(["invariant", "--algebra", str(algebra), "--diagram", str(diagram)]) == 1
    assert capsys.readouterr().err == "error: identity component must have nonzero dimension\n"


@pytest.mark.parametrize("argv", [
    ["lens-table", "--algebra", "kp", "--max-n", "-2"],
    ["move-fuzz", "--algebra", "kp", "--diagram", "unused.json", "--steps", "-4"],
    ["lens-table", "--algebra", "kp", "--max-n", "0"],
])
def test_count_options_refuse_values_below_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hopfk ") and f"must be at least 1, got {argv[-1]}" in err
    # the option's help says what it counts
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    help_text = {
        "--max-n": "--max-n MAX_N K for p = 1..2*MAX_N: every coloring of the genus-1 diagram with relator x^p",
        "--steps": "--steps STEPS number of random moves applied, K checked after each (default 10)",
    }[argv[-2]]
    assert help_text in " ".join(capsys.readouterr().out.split())


# -- golden output -----------------------------------------------------------------

# (argv, exit code, stdout, stdout under --json, stderr in both modes).  A name
# in braces is a file written by the ``golden_files`` fixture.
GOLDEN = [
    (
        ["validate-algebra", "kp"],
        0,
        (
            "validate_hopf: pass\n"
            "check_structural_lemmas: pass\n"
            "validate_crossing: pass\n"
        ),
        (
            '{"check": "validate_hopf", "passed": true, "violations": [], "warnings": []}\n'
            '{"check": "check_structural_lemmas", "passed": true, "violations": [], '
            '"warnings": []}\n'
            '{"check": "validate_crossing", "passed": true, "violations": [], "warnings": []}\n'
        ),
        "",
    ),
    (
        ["validate-algebra", "{bad}"],
        1,
        (
            "validate_hopf: FAIL\n"
            "  violation: antipode law (S x id) fails in H_1 at 0\n"
            "  violation: antipode law (id x S) fails in H_1 at 0\n"
            "  violation: S_1 is not anti-multiplicative at (0,1)\n"
            "  violation: antipode is not anti-comultiplicative at (1,1) basis 1\n"
        ),
        (
            '{"check": "validate_hopf", "passed": false, "violations": ["antipode law (S x id) '
            'fails in H_1 at 0", "antipode law (id x S) fails in H_1 at 0", "S_1 is not '
            'anti-multiplicative at (0,1)", "antipode is not anti-comultiplicative at (1,1) '
            'basis 1"], "warnings": []}\n'
        ),
        "",
    ),
    (
        ["validate-algebra", "{nocross}"],
        0,
        (
            "validate_hopf: pass\n"
            "check_structural_lemmas: pass\n"
            "validate_crossing: pass\n"
            "  warning: crossing data not provided\n"
        ),
        (
            '{"check": "validate_hopf", "passed": true, "violations": [], "warnings": []}\n'
            '{"check": "check_structural_lemmas", "passed": true, "violations": [], '
            '"warnings": []}\n'
            '{"check": "validate_crossing", "passed": true, "violations": [], "warnings": '
            '["crossing data not provided"]}\n'
        ),
        "",
    ),
    (
        ["invariant", "--algebra", "kp", "--diagram", "{rp3}"],
        0,
        (
            "Z = 8\n"
            "K = 2\n"
        ),
        '{"K": "2", "Z": "8", "colors": ["1"], "genus": 1}\n',
        "",
    ),
    (
        ["colorings", "--diagram", "{rp3}", "--group", "z2"],
        0,
        (
            "0\n"
            "1\n"
            "total: 2\n"
        ),
        '{"colorings": [["0"], ["1"]]}\n',
        "",
    ),
    (
        ["oracle-compare", "--phi", "mod2-z4", "--diagram", "{rp3}"],
        0,
        (
            "contraction K = 0\n"
            "lift count    = 0\n"
            "PASS\n"
        ),
        '{"K": "0", "lift_count": 0, "status": "PASS"}\n',
        "",
    ),
    (
        ["move-fuzz", "--algebra", "kp", "--diagram", "{rp3}", "--steps", "6", "--seed", "3"],
        0,
        (
            "seed = 3\n"
            "baseline K = 2\n"
            "  reverse: K = 2 ok\n"
            "  stabilize: K = 2 ok\n"
            "  stabilize: K = 2 ok\n"
            "  reverse: K = 2 ok\n"
            "  destabilize: K = 2 ok\n"
            "  stabilize: K = 2 ok\n"
            "PASS\n"
        ),
        (
            '{"baseline_K": "2", "seed": 3, "status": "PASS", "steps": [{"K": "2", "constant": '
            'true, "move": "reverse"}, {"K": "2", "constant": true, "move": "stabilize"}, '
            '{"K": "2", "constant": true, "move": "stabilize"}, {"K": "2", "constant": true, '
            '"move": "reverse"}, {"K": "2", "constant": true, "move": "destabilize"}, {"K": '
            '"2", "constant": true, "move": "stabilize"}]}\n'
        ),
        "",
    ),
    (
        ["invariant", "--algebra", "kp", "--diagram", "{sum}"],
        0,
        (
            "Z = 128\n"
            "K = 8\n"
        ),
        '{"K": "8", "Z": "128", "colors": ["1", "0"], "genus": 2}\n',
        "",
    ),
    (
        ["colorings", "--diagram", "{sum}", "--group", "z2"],
        0,
        (
            "0 0\n"
            "0 1\n"
            "1 0\n"
            "1 1\n"
            "total: 4\n"
        ),
        '{"colorings": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]}\n',
        "",
    ),
    (
        ["oracle-compare", "--phi", "mod2-z4", "--diagram", "{sum}"],
        0,
        (
            "contraction K = 0\n"
            "lift count    = 0\n"
            "PASS\n"
        ),
        '{"K": "0", "lift_count": 0, "status": "PASS"}\n',
        "",
    ),
    (
        ["move-fuzz", "--algebra", "kp", "--diagram", "{sum}", "--steps", "6", "--seed", "3"],
        0,
        (
            "seed = 3\n"
            "baseline K = 8\n"
            "  reverse: K = 8 ok\n"
            "  slide: K = 8 ok\n"
            "  reverse: K = 8 ok\n"
            "  stabilize: K = 8 ok\n"
            "  reverse: K = 8 ok\n"
            "  stabilize: K = 8 ok\n"
            "PASS\n"
        ),
        (
            '{"baseline_K": "8", "seed": 3, "status": "PASS", "steps": [{"K": "8", "constant": '
            'true, "move": "reverse"}, {"K": "8", "constant": true, "move": "slide"}, {"K": '
            '"8", "constant": true, "move": "reverse"}, {"K": "8", "constant": true, "move": '
            '"stabilize"}, {"K": "8", "constant": true, "move": "reverse"}, {"K": "8", '
            '"constant": true, "move": "stabilize"}]}\n'
        ),
        "",
    ),
    (
        ["lens-table", "--algebra", "kp", "--max-n", "3"],
        0,
        (
            "p=1 color=0 K=1\n"
            "p=2 color=0 K=4\n"
            "p=2 color=1 K=2\n"
            "p=3 color=0 K=1\n"
            "p=4 color=0 K=4\n"
            "p=4 color=1 K=0\n"
            "p=5 color=0 K=1\n"
            "p=6 color=0 K=4\n"
            "p=6 color=1 K=2\n"
        ),
        (
            '[{"K": "1", "color": "0", "p": 1}, {"K": "4", "color": "0", "p": 2}, {"K": "2", '
            '"color": "1", "p": 2}, {"K": "1", "color": "0", "p": 3}, {"K": "4", "color": "0", '
            '"p": 4}, {"K": "0", "color": "1", "p": 4}, {"K": "1", "color": "0", "p": 5}, '
            '{"K": "4", "color": "0", "p": 6}, {"K": "2", "color": "1", "p": 6}]\n'
        ),
        "",
    ),
    (
        ["invariant", "--algebra", "kp", "--diagram", "{plain}"],
        2,
        "",
        "",
        "error: diagram file carries no colors\n",
    ),
    (
        ["oracle-compare", "--phi", "mod2-z4", "--diagram", "{plain}"],
        2,
        "",
        "",
        "error: diagram file carries no colors\n",
    ),
    (
        ["move-fuzz", "--algebra", "kp", "--diagram", "{plain}"],
        2,
        "",
        "",
        "error: diagram file carries no colors\n",
    ),
    (
        ["invariant", "--algebra", "kp", "--diagram", "{l3}"],
        1,
        (
            "validate_diagram: FAIL\n"
            "  violation: color condition fails on lower circle 0: word x1.x1.x1 evaluates to "
            "'1'\n"
        ),
        (
            '{"check": "validate_diagram", "passed": false, "violations": ["color condition '
            "fails on lower circle 0: word x1.x1.x1 evaluates to '1'\"], \"warnings\": []}\n"
        ),
        "",
    ),
    (
        ["oracle-compare", "--phi", "mod2-z4", "--diagram", "{l3}"],
        1,
        (
            "validate_diagram: FAIL\n"
            "  violation: color condition fails on lower circle 0: word x1.x1.x1 evaluates to "
            "'1'\n"
        ),
        (
            '{"check": "validate_diagram", "passed": false, "violations": ["color condition '
            "fails on lower circle 0: word x1.x1.x1 evaluates to '1'\"], \"warnings\": []}\n"
        ),
        "",
    ),
    (
        ["move-fuzz", "--algebra", "kp", "--diagram", "{l3}"],
        1,
        (
            "validate_diagram: FAIL\n"
            "  violation: color condition fails on lower circle 0: word x1.x1.x1 evaluates to "
            "'1'\n"
        ),
        (
            '{"check": "validate_diagram", "passed": false, "violations": ["color condition '
            "fails on lower circle 0: word x1.x1.x1 evaluates to '1'\"], \"warnings\": []}\n"
        ),
        "",
    ),
    (
        ["colorings", "--diagram", "{broken}", "--group", "z2"],
        1,
        (
            "validate_diagram: FAIL\n"
            "  violation: crossing 0 appears twice in upper orders (circles 0 and 0)\n"
            "  violation: crossings [1] missing from upper orders\n"
        ),
        (
            '{"check": "validate_diagram", "passed": false, "violations": ["crossing 0 appears '
            'twice in upper orders (circles 0 and 0)", "crossings [1] missing from upper '
            'orders"], "warnings": []}\n'
        ),
        "",
    ),
]


@pytest.fixture()
def golden_files(tmp_path, kp, z2):
    summed = connected_sum(lens_diagram(2), mirror_diagram(lens_diagram(4)))
    broken = dump_diagram(lens_diagram(2))
    broken["upper_orders"] = [[0, 0]]
    bad = dump_algebra(kp)
    bad["antipode"]["1"] = bad["antipode"]["0"]
    nocross = dump_algebra(kp)
    del nocross["crossing"]
    contents = {
        "rp3": dump_diagram(lens_diagram(2).with_colors(z2, (1,))),
        "sum": dump_diagram(summed.with_colors(z2, (1, 0))),
        "plain": dump_diagram(lens_diagram(2)),
        "l3": dump_diagram(lens_diagram(3).with_colors(z2, (1,))),  # x^3 != 1 at x = 1
        "broken": broken,
        "bad": bad,
        "nocross": nocross,
    }
    files = {}
    for name, data in contents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        files[name] = str(path)
    return files


@pytest.mark.parametrize(
    "argv, code, text, as_json, err",
    GOLDEN,
    ids=["-".join(a.strip("{}") for a in case[0] if not a.startswith("--")) for case in GOLDEN],
)
def test_cli_golden_bytes(golden_files, capsys, argv, code, text, as_json, err):
    # the full stdout, stderr and exit code, in text and in --json mode
    argv = [a.format(**golden_files) for a in argv]
    for extra, out in (([], text), (["--json"], as_json)):
        assert main(argv + extra) == code
        assert capsys.readouterr() == (out, err)


def test_json_dumps_called_only_in_emit():
    # one output path: cli.py serialises a record in ``_emit`` and nowhere else
    tree = ast.parse(pathlib.Path(hopfk.cli.__file__).read_text())

    def dumps_calls(root):
        return [
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        ]

    (emit,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_emit"]
    assert dumps_calls(tree) == dumps_calls(emit) and len(dumps_calls(emit)) == 1
