"""End-to-end CLI runs, in process, checking payloads and exit codes."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from auctionkit import PriceVector, cli, demand, dump_prices, valuations
from auctionkit.cli import main

TRACE_FIXTURE = Path(__file__).parent / "data" / "mp1_greedy_trace.json"


@pytest.fixture()
def mp1_file(tmp_path):
    path = tmp_path / "mp1.json"
    doc = {"m": 8,
           "bidders": [{"type": "multi_peak", "s": 4, "k": 2, "epsilon": "1/2",
                        "peaks": [[1, 2, 3, 4], [5, 6, 7, 8]]}] * 2,
           "metadata": {"name": "mp1-pair"}}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def zero_prices_file(tmp_path):
    path = tmp_path / "p0.json"
    path.write_bytes(dump_prices(PriceVector.zero(8)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None


class TestGen:
    def test_writes_instance_and_report(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        code, report = run_json(capsys, "gen", "multipeak", "--m", "8", "--s",
                                "4", "--k", "2", "--eps", "1/2", "--n", "2",
                                "--seed", "42", "--out", str(target))
        assert code == 0
        assert target.exists()
        assert report["result"]["metadata"]["seed"] == 42

    def test_stdout_document(self, capsys):
        code, out = run_cli(capsys, "gen", "additive", "--n", "2", "--m", "3",
                            "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 3 and len(doc["bidders"]) == 2

    def test_out_report_follows_format(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        code, out = run_cli(capsys, "gen", "additive", "--n", "2", "--m", "3",
                            "--seed", "5", "--out", str(target),
                            "--format", "text")
        assert code == 0
        assert out.startswith("command:\n  - gen\n")
        assert "  bytes: " in out and "timing_ms: " in out
        assert json.loads(target.read_text())["m"] == 3


    @pytest.mark.parametrize("family", ["additive", "unit-demand",
                                        "budget-additive", "multipeak"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_bidders_exits_2(self, capsys, family, n):
        code = main(["gen", family, "--n", n, "--m", "3", "--s", "3",
                     "--k", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "n must be positive" in err


class TestDemand:
    def test_compare_matches_at_zero(self, capsys, mp1_file, zero_prices_file):
        code, report = run_json(capsys, "demand", mp1_file, zero_prices_file,
                                "--bidder", "0", "--method", "fast", "--compare")
        assert code == 0
        assert report["result"]["match"] is True
        assert report["result"]["fast"]["maxUtility"] == "11/8"

    def test_compare_mismatch_exits_1(self, capsys, mp1_file, tmp_path):
        prices = tmp_path / "p532.json"
        prices.write_bytes(dump_prices(PriceVector((F(5, 32),) * 8)))
        code, report = run_json(capsys, "demand", mp1_file, str(prices),
                                "--compare")
        assert code == 1
        assert report["result"]["match"] is False
        assert report["result"]["brute"]["maxUtility"] == "19/32"

    def test_fast_unavailable_for_budget_additive(self, capsys, tmp_path):
        inst = tmp_path / "ba.json"
        inst.write_text(json.dumps({
            "m": 2, "bidders": [{"type": "budget_additive",
                                 "values": [3, 4], "budget": 5}]}))
        prices = tmp_path / "p.json"
        prices.write_bytes(dump_prices(PriceVector.zero(2)))
        code = main(["demand", str(inst), str(prices), "--method", "fast"])
        assert code == 2

    def test_huge_prices_empty_demand(self, capsys, mp1_file, tmp_path):
        prices = tmp_path / "huge.json"
        prices.write_bytes(dump_prices(PriceVector((F(100),) * 8)))
        code, report = run_json(capsys, "demand", mp1_file, str(prices))
        assert code == 0
        assert report["result"]["result"] == \
            {"maxUtility": 0, "set": [], "count": 1}

    def test_overlong_price_exits_2_at_its_path(self, capsys, mp1_file,
                                                tmp_path):
        prices = tmp_path / "long.json"
        prices.write_text(json.dumps({"prices": ["1" * 5000] + [0] * 7}))
        assert main(["demand", mp1_file, str(prices)]) == 2
        err = capsys.readouterr().err
        assert "prices[0]: a number of 5000 digits" in err
        assert len(err) < 200


class TestValidate:
    def test_mp1_monotone_failure_reported(self, capsys, mp1_file):
        code, report = run_json(capsys, "validate", mp1_file)
        assert code == 0
        bidder = report["result"]["bidders"][0]
        assert bidder["monotone"] is False
        assert bidder["submodular"] is False
        assert bidder["monotone_counterexample"] == \
            {"set": [1, 2, 3, 4, 5], "add_item": 6}

    def test_additive_passes(self, capsys, tmp_path):
        inst = tmp_path / "add.json"
        inst.write_text(json.dumps({
            "m": 2, "bidders": [{"type": "additive", "values": [1, 2]}]}))
        code, report = run_json(capsys, "validate", str(inst))
        assert code == 0
        assert report["result"]["bidders"][0]["monotone"] is True
        assert report["result"]["bidders"][0]["submodular"] is True

    def test_shared_bidders_are_checked_once(self, capsys, monkeypatch,
                                             tmp_path):
        inst = tmp_path / "shared.json"
        code, _ = run_cli(capsys, "gen", "multipeak", "--m", "8", "--s", "4",
                          "--k", "2", "--eps", "1/2", "--n", "3", "--seed",
                          "3", "--out", str(inst))
        assert code == 0
        calls = []

        def spy(v):
            calls.append(v)
            return valuations.check_submodular(v)

        monkeypatch.setattr(cli, "check_submodular", spy)
        code, report = run_json(capsys, "validate", str(inst))
        assert code == 0
        assert len(calls) == 1
        bidders = report["result"]["bidders"]
        assert [b.pop("bidder") for b in bidders] == [0, 1, 2]
        assert bidders[0] == bidders[1] == bidders[2]

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": "eight"}')
        assert main(["validate", str(bad)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["validate", "/nonexistent/inst.json"]) == 2

    def test_checker_disagreement_exits_3(self, capsys, monkeypatch, mp1_file):
        monkeypatch.setattr(valuations, "submodular_by_marginals",
                            lambda v: not valuations.submodular_by_definition(v).holds)
        assert main(["validate", mp1_file]) == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
    def test_arithmetic_error_exits_3(self, capsys, monkeypatch, mp1_file, error):
        def broken(args):
            raise error("int too large to convert")

        monkeypatch.setitem(cli._HANDLERS, "validate", broken)
        assert main(["validate", mp1_file]) == 3
        assert "internal error: int too large" in capsys.readouterr().err


    @pytest.mark.parametrize("error", [KeyError, IndexError, MemoryError])
    def test_any_unnamed_exception_exits_3(self, capsys, monkeypatch, mp1_file,
                                           error):
        def broken(args):
            raise error("lost")

        monkeypatch.setitem(cli._HANDLERS, "validate", broken)
        assert main(["validate", mp1_file]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ")
        assert error.__name__ in err


class TestUnreadableDocuments:
    """Documents the reader refuses exit 2 with a message, never 3."""

    @pytest.mark.parametrize("blob, message", [
        (b"\xff", "utf-8"),
        (b"[" * 200000, "nested too deeply"),
        (b'{"m": 1, "m": 2}', "repeated key 'm'"),
        (b'{"m": 1, "bidders": [], "metadata": {"x": NaN}}', "not valid JSON"),
        (b'{"m": 1, "bidders": [], "metadata": {"x": Infinity}}',
         "not valid JSON"),
        (b'{"m": 1, "bidders": [], "metadata": {"x": -Infinity}}',
         "not valid JSON"),
        (b'{"m": 1, "bidders": [], "metadata": {"x": 1e400}}',
         "not valid JSON"),
    ], ids=["not-utf8", "too-deep", "repeated-key", "nan", "infinity",
            "minus-infinity", "float-overflow"])
    @pytest.mark.parametrize("document", ["instance", "prices"])
    def test_exits_2(self, capsys, mp1_file, tmp_path, document, blob, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(blob)
        argv = (["validate", str(bad)] if document == "instance" else
                ["demand", mp1_file, str(bad)])
        assert main(argv) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [["validate"], ["auction", "--rule", "greedy"]])
    def test_a_document_without_bidders_exits_2(self, capsys, tmp_path, argv):
        """Nothing in such a document bounds m, so an auction on it would
        start by allocating m prices."""
        bad = tmp_path / "empty.json"
        bad.write_bytes(b'{"m": 4611686018427387904, "bidders": []}')
        assert main([argv[0], str(bad), *argv[1:]]) == 2
        assert "bidders: expected at least one bidder" in \
            capsys.readouterr().err


class TestUnwritableOut:
    """An --out path that cannot be written is a typed refusal: exit 2 and
    one error line, with nothing printed to stdout."""

    def test_validate_report(self, capsys, mp1_file, tmp_path):
        target = tmp_path / "missing" / "r.json"
        assert main(["validate", mp1_file, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert str(target) in captured.err
        assert not target.parent.exists()

    def test_gen_document(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g.json"
        assert main(["gen", "additive", "--n", "2", "--m", "3",
                     "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert str(target) in captured.err
        assert not target.parent.exists()


class TestEnvyFree:
    def test_mp1_pair_not_envy_free(self, capsys, mp1_file, zero_prices_file):
        code, report = run_json(capsys, "envyfree", mp1_file, zero_prices_file)
        assert code == 0
        assert report["result"]["envy_free"] is False
        assert report["result"]["witness"]["kind"] == "exhaustion-proof"
        assert report["result"]["nodes_explored"] > 0

    def test_expect_flag(self, capsys, mp1_file, zero_prices_file):
        code, _ = run_json(capsys, "envyfree", mp1_file, zero_prices_file,
                           "--expect", "ef")
        assert code == 1
        code, _ = run_json(capsys, "envyfree", mp1_file, zero_prices_file,
                           "--expect", "not-ef")
        assert code == 0

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_is_refused(self, capsys, mp1_file, zero_prices_file,
                                      cap):
        code = main(["envyfree", mp1_file, zero_prices_file, "--cap", cap])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cap must be at least 1, got {cap}\n"


class TestMinimalEf:
    def test_single_item(self, capsys, tmp_path):
        inst = tmp_path / "ud.json"
        inst.write_text(json.dumps({
            "m": 1, "bidders": [{"type": "unit_demand", "values": [3]},
                                {"type": "unit_demand", "values": [5]}]}))
        code, report = run_json(capsys, "minimal-ef", str(inst),
                                "--bound", "6", "--step", "1")
        assert code == 0
        assert report["result"]["minimal_envy_free"] == [[3]]


class TestAuction:
    def test_dgs_single_item(self, capsys, tmp_path):
        inst = tmp_path / "ud.json"
        inst.write_text(json.dumps({
            "m": 1, "bidders": [{"type": "unit_demand", "values": [3]},
                                {"type": "unit_demand", "values": [5]}]}))
        code, report = run_json(capsys, "auction", str(inst), "--rule", "dgs",
                                "--increment", "1")
        assert code == 0
        trace = report["result"]["trace"]
        assert trace["outcome"]["kind"] == "envy_free"
        assert trace["outcome"]["prices"] == [3]
        assert [s["prices"][0] for s in trace["steps"]] == [0, 1, 2, 3]

    def test_greedy_on_multipeak_does_not_certify(self, capsys, mp1_file):
        code, report = run_json(capsys, "auction", mp1_file, "--rule", "greedy",
                                "--increment", "1/8", "--max-steps", "200")
        assert code == 0
        assert report["result"]["trace"]["outcome"]["kind"] in \
            ("stalled", "step_limit")

    def test_greedy_on_the_mp1_pair_builds_one_utility_table_per_step(
            self, capsys, monkeypatch, mp1_file):
        """The document lists one bidder twice, so both decode to one object
        and the rule's demand-set query for the second is the first's."""
        monkeypatch.setattr(demand, "_memo", None)
        build, calls = demand._utilities, []

        def counted(valuation, table):
            calls.append(valuation)
            return build(valuation, table)

        monkeypatch.setattr(demand, "_utilities", counted)
        code, report = run_json(capsys, "auction", mp1_file, "--rule", "greedy",
                                "--increment", "1/8", "--max-steps", "200")
        assert code == 0
        assert len(calls) == len(report["result"]["trace"]["steps"]) >= 2
        assert all(v is calls[0] for v in calls)

    def test_dgs_inapplicable_to_multipeak(self, capsys, mp1_file):
        code = main(["auction", mp1_file, "--rule", "dgs"])
        assert code == 2


class TestFormat:
    def test_csv_is_refused(self, capsys, mp1_file):
        with pytest.raises(SystemExit) as info:
            main(["validate", mp1_file, "--format", "csv"])
        assert info.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestDeterminism:
    def test_payloads_identical_across_runs(self, capsys, mp1_file,
                                            zero_prices_file):
        _, first = run_json(capsys, "envyfree", mp1_file, zero_prices_file)
        _, second = run_json(capsys, "envyfree", mp1_file, zero_prices_file)
        assert first["result"] == second["result"]  # timing_ms may differ


def _without_timing(out: str):
    report = json.loads(out)
    del report["timing_ms"]
    return report


class TestSharedParser:
    """main parses with one parser per process; every report must equal a
    run with a freshly built parser."""

    def _run_all(self, capsys, mp1_file, zero_prices_file):
        runs = [
            ["gen", "additive", "--n", "2", "--m", "3", "--seed", "5"],
            ["auction", mp1_file, "--rule", "greedy", "--increment", "1/4",
             "--max-steps", "20"],
            ["demand", mp1_file, zero_prices_file, "--method", "fast"],
            ["auction", mp1_file, "--rule", "nope"],
            ["gen", "additive", "--n", "3", "--m", "2"],
            ["demand", mp1_file, zero_prices_file, "--bidder", "1"],
        ]
        outputs = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            if code == 0 and argv[0] != "gen":
                out = _without_timing(out)
            outputs.append((code, out))
        return outputs

    def test_reports_match_a_fresh_parser(self, capsys, monkeypatch, mp1_file,
                                          zero_prices_file):
        assert cli.build_parser() is cli.build_parser()
        shared = self._run_all(capsys, mp1_file, zero_prices_file)
        assert [code for code, _ in shared] == [0, 0, 0, 2, 0, 0]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert self._run_all(capsys, mp1_file, zero_prices_file) == shared

    def test_bad_argument_after_a_good_call_exits_2(self, capsys, mp1_file):
        assert main(["validate", mp1_file]) == 0
        for argv in (["validate"], ["auction", mp1_file, "--max-steps", "x",
                                    "--rule", "greedy"], ["nosuch"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
        assert main(["validate", mp1_file]) == 0

    def test_auction_trace_matches_the_frozen_fixture(self, capsys, mp1_file):
        """The greedy auction on the mp1 pair through the CLI, twice in one
        process, reproduces the trace fixture byte for byte."""
        for _ in range(2):
            code, report = run_json(capsys, "auction", mp1_file, "--rule",
                                    "greedy", "--increment", "1/8",
                                    "--max-steps", "200")
            assert code == 0
            blob = (json.dumps(report["result"]["trace"], sort_keys=True,
                               indent=2) + "\n").encode()
            assert blob == TRACE_FIXTURE.read_bytes()
