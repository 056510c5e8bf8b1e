"""CLI: output contracts, JSON round trips, exit codes."""

import json
import os
import time

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


def test_census_json_streams_the_whole_document(tmp_path, capsys):
    # the record-by-record writer gives the bytes of one json.dumps of the
    # whole payload, on stdout and in --out, and for an empty record list
    from p1covers.census import census_by_disc, tame_violations
    from p1covers.cli import _census_json
    result = census_by_disc(F3, 3, points=True)
    summary = result.summary()
    summary["violations"] = tame_violations(result.records, dim_key=str)

    def whole(records):
        payload = {"summary": summary, "records": [r.to_json() for r in records]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    assert result.records
    for records in (result.records, result.records[:1], ()):
        assert "".join(_census_json(summary, records)) == whole(records)
    out_file = tmp_path / "census.json"
    code, out, _ = run(capsys, "census", "--p", "3", "--d", "3", "--points", "--json")
    code2, out2, _ = run(capsys, "census", "--p", "3", "--d", "3", "--points", "--json",
                         "--out", str(out_file))
    assert code == code2 == 0 and out2 == ""
    assert out == out_file.read_text() == whole(result.records)


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
    t0 = time.perf_counter()
    code, _, err = run(capsys, "disc", "x^1000000000", "--p", "3")
    assert code == 2 and "exceeds 1024" in err and time.perf_counter() - t0 < 1


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_census_rejects_budget_below_one(capsys, budget):
    code, out, err = run(capsys, "census", "--p", "2", "--d", "2", "--budget", budget)
    assert code == 2 and "budget must be at least 1" in err and out == ""


def test_census_points_flags_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--p", "2", "--d", "2", "--points", "--no-points"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_census_rejects_threads_below_one(capsys, threads):
    code, out, err = run(capsys, "census", "--p", "2", "--d", "2", "--threads", threads)
    assert code == 2 and "process" in err and out == ""


@pytest.mark.parametrize("command", ["normalize", "tangent"])
def test_max_ext_below_one_rejected(capsys, command):
    code, out, err = run(capsys, command, "x^4", "--p", "3", "--max-ext", "0")
    assert code == 2 and "max_ext must be at least 1" in err and out == ""


@pytest.mark.parametrize("argv,message", [
    (["tangent", "x", "--p", "3", "--order", "0"], "lift order"),
    (["tangent", "x", "--p", "3", "--order", "1"], "lift order"),
    (["disc", "x", "--p", "3", "--max-ext", "0"], "max_ext"),
    (["census", "--p", "2", "--d", "1", "--points", "--max-ext", "0"], "max_ext"),
    (["census", "--p", "2", "--d", "2", "--no-points", "--max-ext", "0"], "max_ext"),
    (["census", "--p", "2", "--d", "2", "--max-ext", "0"], "max_ext"),
    (["family", "wild", "x^5 + x", "--p", "3", "--max-ext", "0"], "max_ext"),
])
def test_flag_bounds_checked_before_the_data(capsys, argv, message):
    # none of these covers has a tangent vector to lift or a root to find
    # beyond F_q, so only a check on entry rejects the flag
    code, out, err = run(capsys, *argv)
    assert code == 2 and message in err and out == ""


@pytest.mark.parametrize("argv", [
    ["disc", "x^4", "--p", "3", "--threads", "2"],
    ["disc", "x^4", "--p", "3", "--seed", "1"],
    ["equiv", "x^4", "x^4", "--p", "3", "--max-ext", "2"],
    ["cartier", "x^4", "--p", "3", "--max-ext", "2"],
])
def test_flags_only_where_read(argv):
    # each subcommand registers only the flags it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_family_rejects_negative_verify(capsys):
    code, out, err = run(capsys, "family", "power", "--p", "3", "--verify", "-2")
    assert code == 2 and "--verify" in err and out == ""


def test_family_verify_count_beyond_the_largest_field(capsys):
    code, out, err = run(capsys, "family", "wild", "x^4", "--p", "3", "--verify", "100000000")
    assert code == 2 and out == ""
    assert "--verify count 100000000 exceeds the parameters of GF(3^12)" in err
    assert "extension degree" not in err


def test_family_verify_count_limit(capsys, monkeypatch):
    from p1covers import cli
    from p1covers.cover import Cover
    counts = []

    def fake_verify(fam, ts, max_ext):
        counts.append(len(ts))
        return dict.fromkeys(("disc_constant", "length_divisor_constant",
                              "pairwise_inequivalent"), True)

    monkeypatch.setattr(cli, "verify_family", fake_verify)
    code, out, err = run(capsys, "family", "power", "--p", "3",
                         "--verify", str(cli.MAX_VERIFY))
    assert code == 0 and err == "" and counts == [cli.MAX_VERIFY]

    def no_cover(*args):
        raise AssertionError("a cover was built before the count was refused")

    monkeypatch.setattr(Cover, "__init__", no_cover)
    code, out, err = run(capsys, "family", "power", "--p", "3",
                         "--verify", str(cli.MAX_VERIFY + 1))
    assert code == 2 and out == "" and counts == [cli.MAX_VERIFY]
    assert f"--verify count {cli.MAX_VERIFY + 1} exceeds the limit of {cli.MAX_VERIFY}" in err


def test_argparse_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["disc", "x", "--p"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [("disc", "x^5+x", "--p", "3"),
                                  ("census", "--p", "2", "--d", "3", "--json")])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_an_input_error(capsys, tmp_path, argv, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    code, printed, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and printed == ""
    assert err.startswith("error: cannot write --out ") and str(out) in err
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_failed_out_write_is_an_input_error(capsys):
    code, printed, err = run(capsys, "disc", "x^5+x", "--p", "3", "--out", "/dev/full")
    assert code == 2 and printed == ""
    assert err.startswith("error: cannot write --out /dev/full: ")
