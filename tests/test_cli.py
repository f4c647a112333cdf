"""Command-line interface tests."""

import json

import pytest
from click.testing import CliRunner

from pixelsim.cli import main
from pixelsim.scenarios import scenario_to_dict
from helpers import random_scenario


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestParse:
    def test_parse_fbp(self):
        result = invoke("parse", "fbp", "fb.1.1596403881668.1116446470")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["creation_time"] == 1596403881668
        assert data["random_number"] == 1116446470

    def test_parse_fbc(self):
        result = invoke("parse", "fbc", "fb.2.1000.SomeClickId")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["fbclid"] == "SomeClickId"
        assert data["fbclid_canonical"] is False

    def test_parse_url(self):
        result = invoke("parse", "url", "https://a.example/p?fbclid=X&q=1")
        data = json.loads(result.output)
        assert data["origin"] == "a.example"
        assert ["fbclid", "X"] in data["query"]

    def test_parse_error_exits_nonzero(self):
        result = invoke("parse", "fbp", "xx.1.2.3")
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_over_long_segment_is_an_error_line(self):
        result = invoke("parse", "fbp", "fb.1.0." + "9" * 5000)
        assert result.exit_code == 1
        assert "error: malformed cookie (over-long segment)" in result.output


class TestRun:
    def test_run_writes_outputs(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(scenario_to_dict(random_scenario(5))), encoding="utf-8"
        )
        out = tmp_path / "out"
        result = invoke("run", str(scenario_path), "--out", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert "counters" in report
        assert (out / "world.json").exists()
        # CI runs this scenario under two string-hash seeds and diffs the
        # outputs, which checks the order of links and multi-key profiles
        # only if graph.json holds some.
        graph = json.loads((out / "graph.json").read_text(encoding="utf-8"))
        assert graph["links"]
        assert any(len(profile["keys"]) > 1 for profile in graph["profiles"])

    def test_invalid_step_is_an_error_line(self, tmp_path):
        data = scenario_to_dict(random_scenario(5))
        data["steps"].insert(1, {"tick": data["steps"][0]["tick"], "action": "Teleport"})
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(data), encoding="utf-8")
        result = invoke("run", str(scenario_path), "--out", str(tmp_path / "out"))
        assert result.exit_code == 1
        assert "error: step 1: " in result.output
        assert not (tmp_path / "out").exists()

    def test_file_that_is_not_json_is_an_error_line(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text('{"seed": 1, ', encoding="utf-8")
        result = invoke("run", str(scenario_path), "--out", str(tmp_path / "out"))
        assert result.exit_code == 1
        assert "error: " in result.output and "not valid JSON" in result.output
        assert not (tmp_path / "out").exists()

    def test_malformed_step_is_an_error_line(self, tmp_path):
        data = scenario_to_dict(random_scenario(5))
        data["steps"][1]["tick"] = str(data["steps"][1]["tick"])
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(data), encoding="utf-8")
        result = invoke("run", str(scenario_path), "--out", str(tmp_path / "out"))
        assert result.exit_code == 1
        assert "error: step 1: tick must be int" in result.output
        assert not (tmp_path / "out").exists()

    def test_seed_out_of_range_is_an_error_line(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(scenario_to_dict(random_scenario(6))), encoding="utf-8"
        )
        result = invoke("run", str(scenario_path), "--seed", str(2**63),
                        "--out", str(tmp_path / "out"))
        assert result.exit_code == 1
        assert "error: seed must be below 2**63 in magnitude" in result.output
        assert not (tmp_path / "out").exists()

    def test_directory_or_existing_file_path_is_a_usage_error(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(scenario_to_dict(random_scenario(5))), encoding="utf-8"
        )
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        for args, message in (
            ([str(tmp_path)], "is a directory"),
            ([str(scenario_path), "--out", str(taken)], "is a file"),
            ([str(scenario_path), "--out", str(taken / "sub")], "cannot create"),
        ):
            result = invoke("run", *args)
            assert result.exit_code == 2, result.output
            assert message in result.output
        assert taken.read_text(encoding="utf-8") == ""

    def test_seed_override_changes_world(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(scenario_to_dict(random_scenario(6))), encoding="utf-8"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert invoke("run", str(scenario_path), "--out", str(out_a)).exit_code == 0
        assert (
            invoke("run", str(scenario_path), "--seed", "999", "--out", str(out_b)).exit_code
            == 0
        )
        world_a = (out_a / "world.json").read_text(encoding="utf-8")
        world_b = (out_b / "world.json").read_text(encoding="utf-8")
        assert world_a != world_b


class TestExperiment:
    def test_consent_experiment_small(self):
        result = invoke(
            "experiment", "consent", "--sites", "10", "--fractions", "0.5,0.0"
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["counters"]["stored_AcceptAll"] == 10
        assert report["counters"]["stored_RejectAll"] == 5

    @pytest.mark.parametrize(
        "args",
        [
            ["profiling", "--fractions", "0.5,0.5"],
            ["expiration", "--fractions", "0.5,0.1,0.1,0.1,0.1,0.05,0.05"],
            ["external-id", "--fractions", "0.1,0.2,0.3,0.4"],
            ["consent", "--fractions", "0.5,0.1,0.1"],
            ["propagation", "--fractions", "0.5"],
            ["four-day", "--fractions", "1"],
            ["consent", "--fractions", "abc"],
            ["profiling", "--fractions", "0.5,0.2,0.2,0.2"],
            ["external-id", "--fractions", "1.5"],
            ["expiration", "--gap-days", "0"],
            ["profiling", "--gap-days", "2"],
            ["four-day", "--gap-days", "2"],
            ["profiling", "--sites", "-3"],
            ["four-day", "--seed", str(2**63)],
            ["four-day", "--seed", str(-(2**63))],
            ["four-day", "--out", __file__],  # an existing file
            ["four-day", "--out", __file__ + "/sub"],  # below an existing file
            ["four-day", "--sites", "5"],
        ],
    )
    def test_bad_option_is_a_usage_error(self, args):
        # --sites 10 keeps a case small should its check fail; a later --sites
        # wins.  four-day takes no --sites, so its cases go without it.
        small = ["--sites", "10"] if args[0] != "four-day" else []
        result = invoke("experiment", *small, *args)
        assert result.exit_code == 2, result.output
        assert args[1] in result.output

    def test_invalid_built_scenario_is_an_error_line(self):
        result = invoke("experiment", "expiration", "--sites", "3",
                        "--gap-days", "100000000000")
        assert result.exit_code == 1, result.output
        assert "error: step 6: tick must be below 2**63 in magnitude" in result.output

    def test_propagation_writes_distribution_csv(self, tmp_path):
        out = tmp_path / "prop"
        result = invoke(
            "experiment", "propagation", "--sites", "20", "--out", str(out)
        )
        assert result.exit_code == 0, result.output
        csv_text = (out / "unique_first_hop.csv").read_text(encoding="utf-8")
        assert csv_text.splitlines()[0] == "x,cdf"

    def test_four_day_links(self):
        result = invoke("experiment", "four-day")
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["counters"]["linked_pairs"] == 1


class TestReportDiff:
    def test_identical_and_differing(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        c = tmp_path / "c.json"
        a.write_text(json.dumps({"counters": {"x": 1}}), encoding="utf-8")
        b.write_text(json.dumps({"counters": {"x": 1}}), encoding="utf-8")
        c.write_text(json.dumps({"counters": {"x": 2}}), encoding="utf-8")
        same = invoke("report", "diff", str(a), str(b))
        assert same.exit_code == 0
        assert "identical" in same.output
        diff = invoke("report", "diff", str(a), str(c))
        assert diff.exit_code == 1
        assert "$.counters.x" in diff.output

    @pytest.mark.parametrize("notes, path", [
        (["x"], "$.notes.length: 2 != 1"),
        (["x", "z"], "$.notes[1]: 'y' != 'z'"),
    ], ids=["length", "element"])
    def test_differing_lists(self, tmp_path, notes, path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"notes": ["x", "y"]}), encoding="utf-8")
        b.write_text(json.dumps({"notes": notes}), encoding="utf-8")
        diff = invoke("report", "diff", str(a), str(b))
        assert diff.exit_code == 1
        assert path in diff.output

    @pytest.mark.parametrize(
        "content", [b'{"a": 1', b'{"a": "\xff"}'], ids=["bad-json", "not-utf8"]
    )
    def test_unreadable_file_is_a_usage_error(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        good = tmp_path / "good.json"
        bad.write_bytes(content)
        good.write_text(json.dumps({"a": 1}), encoding="utf-8")
        for args in ([bad, good], [good, bad]):
            result = invoke("report", "diff", *map(str, args))
            assert result.exit_code == 2, result.output
            assert str(bad) in result.output and "not a readable JSON file" in result.output

    def test_directory_is_a_usage_error(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"a": 1}), encoding="utf-8")
        result = invoke("report", "diff", str(tmp_path), str(good))
        assert result.exit_code == 2, result.output
        assert "is a directory" in result.output
