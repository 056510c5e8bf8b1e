"""CLI: output contracts, JSON round trips, exit codes."""

import json

import pytest

from p1covers import Poly, make_field
from p1covers.cli import main

F3 = make_field(3)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_disc_human(capsys):
    code, out, _ = run(capsys, "disc", "x^5 + x", "--p", "3")
    assert code == 0
    assert "disc: x^4 + 2" in out
    assert "inf: 4" in out


def test_disc_json_round_trip(capsys):
    code, out, _ = run(capsys, "disc", "x^5 + x", "--p", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["disc"] == "x^4 + 2"
    assert Poly.parse(payload["disc"], F3) == Poly.parse("x^4+2", F3)
    assert payload["mass"] == 8
    for item in payload["lengths"]:
        assert isinstance(item["mult"], int)


def test_lengths(capsys):
    code, out, _ = run(capsys, "lengths", "x^2+1 / x", "--p", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mass"] == 2
    assert {item["point"] for item in payload["lengths"]} == {"1", "2"}


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "x^2", "x^2 + 1", "--p", "3", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["equivalent"] is True
    assert payload["witness"] == {"a": "1", "b": "1", "c": "0", "d": "1"}
    code, out, _ = run(capsys, "equiv", "x^2", "x^2 + 2*x + 1", "--p", "3", "--json")
    assert json.loads(out)["equivalent"] is False


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "x^4", "--p", "3", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["normalized"] == "x^4 / x^3 + x + 1"
    assert payload["source_change"] == {"a": "1", "b": "1", "c": "1", "d": "0"}


def test_cartier_json(capsys):
    code, out, _ = run(capsys, "cartier", "x", "--p", "3", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["matrix"] == [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "2"]]
    assert payload["kernel_dim"] == 1 and payload["image_dim"] == 2
    assert payload["kernel_basis"] == [["0", "1", "0"]]
    # printed X-polynomials re-parse
    code, out, _ = run(capsys, "cartier", "x^3 + x^2 + 1", "--p", "2", "--json")
    payload = json.loads(out)
    for row in payload["matrix"]:
        for entry in row:
            Poly.parse(entry, make_field(2))


def test_tangent_with_oracle_and_lift(capsys):
    code, out, _ = run(capsys, "tangent", "x^4 / x^3+x+1", "--p", "3",
                       "--variant", "xd", "--oracle", "--order", "4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["dim"] == 2
    assert payload["oracle"] == 2 and payload["oracle_agrees"] is True
    assert payload["obstructed_at"] is None
    assert all(item["success"] for item in payload["lifts"])
    for vec in payload["basis"]:
        Poly.parse(vec["g1"], F3)
        Poly.parse(vec["h1"], F3)


def test_tangent_xli(capsys):
    code, out, _ = run(capsys, "tangent", "x^2+1 / x", "--p", "3",
                       "--variant", "xli", "--oracle", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["dim"] == 2 and payload["oracle_agrees"] is True
    assert all(len(vec["eps"]) == 2 for vec in payload["basis"])


def test_family_verify(capsys):
    code, out, _ = run(capsys, "family", "osserman", "--p", "3",
                       "--verify", "9", "--json")
    payload = json.loads(out)
    assert code == 0
    rep = payload["verify"]
    assert rep["disc_constant"] and rep["pairwise_inequivalent"]
    assert len(rep["samples"]) == 9


def test_family_wild_needs_cover(capsys):
    code, _, err = run(capsys, "family", "wild", "--p", "3")
    assert code == 2 and "cover" in err


def test_census_json_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "census.json"
    code, out, _ = run(capsys, "census", "--p", "3", "--d", "2", "--json",
                       "--out", str(out_file))
    assert code == 0 and out == ""
    payload = json.loads(out_file.read_text())
    assert payload["summary"]["total_classes"] == 9
    assert payload["summary"]["raw_planes"] == 13
    assert payload["summary"]["violations"] == []
    assert len(payload["records"]) == 9
    for rec in payload["records"]:
        Poly.parse(rec["disc"], F3)


def test_family_verify_field_contains_family_field(capsys):
    # the wild point lies in F_4, so five parameters come from F_16, not F_8
    code, out, _ = run(capsys, "family", "wild", "x^4 + x^3 + x^2 + x / x^3 + x^2 + 1",
                       "--p", "2", "--verify", "5", "--json")
    assert code == 0
    assert len(json.loads(out)["verify"]["samples"]) == 5


@pytest.mark.parametrize("seed", range(6))
def test_family_verify_skips_degenerate_parameter(capsys, seed):
    # t = 1 drops the fiber to degree 2; no seed may sample it
    code, out, _ = run(capsys, "family", "wild", "x^3 + x^2 + 1 / x", "--p", "2",
                       "--verify", "5", "--seed", str(seed), "--json")
    rep = json.loads(out)["verify"]
    assert code == 0 and len(rep["samples"]) == 5 and "1" not in rep["samples"]
    assert rep["disc_constant"] and rep["length_divisor_constant"]
    assert rep["pairwise_inequivalent"]


def test_census_max_ext_bounds_points_only(capsys):
    # every point of P^1(F_2) is ramified for some d = 4 classes; the
    # tangent stage needs no extension, so max_ext 1 is enough without points
    code1, out1, _ = run(capsys, "census", "--p", "2", "--d", "4", "--max-ext", "1",
                         "--no-points", "--json")
    code4, out4, _ = run(capsys, "census", "--p", "2", "--d", "4", "--no-points", "--json")
    assert code1 == code4 == 0 and out1 == out4


def test_census_human(capsys):
    code, out, _ = run(capsys, "census", "--p", "2", "--d", "2")
    assert code == 0
    assert "classes" in out


def test_census_text_builds_no_json_records(capsys, monkeypatch):
    from p1covers.census import CensusRecord
    code1, out1, _ = run(capsys, "census", "--p", "3", "--d", "3")

    def refuse(self):
        raise AssertionError("a text census built a JSON record")

    monkeypatch.setattr(CensusRecord, "to_json", refuse)
    code2, out2, _ = run(capsys, "census", "--p", "3", "--d", "3")
    assert code1 == code2 == 0 and out1 == out2
    assert "records (distinct discriminants)" in out2


def test_census_threads_match(capsys):
    code1, out1, _ = run(capsys, "census", "--p", "3", "--d", "3", "--json")
    code2, out2, _ = run(capsys, "census", "--p", "3", "--d", "3", "--json",
                         "--threads", "2")
    assert code1 == code2 == 0 and out1 == out2


def test_seed_determinism(capsys):
    code1, out1, _ = run(capsys, "family", "power", "--p", "3",
                         "--verify", "5", "--seed", "7", "--json")
    code2, out2, _ = run(capsys, "family", "power", "--p", "3",
                         "--verify", "5", "--seed", "7", "--json")
    assert code1 == code2 == 0 and out1 == out2


def test_exit_codes(capsys):
    code, _, err = run(capsys, "disc", "x^2", "--p", "4")
    assert code == 2 and "prime" in err
    code, _, err = run(capsys, "disc", "x^2 +", "--p", "3")
    assert code == 2
    code, _, err = run(capsys, "disc", "x^2", "--p", "2")
    assert code == 2 and "inseparable" in err
    code, _, err = run(capsys, "census", "--p", "3", "--ext", "2", "--d", "4",
                       "--budget", "100")
    assert code == 1 and "budget" in err
    code, _, err = run(capsys, "disc", "x^5 + x", "--p", "3", "--max-ext", "1")
    assert code == 1 and "split" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_census_rejects_threads_below_one(capsys, threads):
    code, out, err = run(capsys, "census", "--p", "2", "--d", "2", "--threads", threads)
    assert code == 2 and "process" in err and out == ""


def test_family_rejects_negative_verify(capsys):
    code, out, err = run(capsys, "family", "power", "--p", "3", "--verify", "-2")
    assert code == 2 and "--verify" in err and out == ""


def test_argparse_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["disc", "x", "--p"])
    assert exc.value.code == 2
