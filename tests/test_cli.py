"""End-to-end command line tests driven through main(argv)."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import entropy_lab as el
from entropy_lab import cli, dynamical
from entropy_lab._errors import InequalityViolationError
from entropy_lab.cli import main
from entropy_lab.documents import load_partition, load_system
from entropy_lab.reports import LN2, Report, convert_units, fmt

from conftest import fixture_path, int_str_limit

CHAIN = str(fixture_path("systems", "two_state_chain.json"))
FAIR = str(fixture_path("systems", "bernoulli_fair.json"))
DOUBLY = str(fixture_path("systems", "three_state_doubly.json"))
CYCLE = str(fixture_path("systems", "three_cycle.json"))
BLUR = str(fixture_path("partitions", "two_state_blur.json"))
EXTREMAL = str(fixture_path("partitions", "two_state_extremal.json"))
COIN = str(fixture_path("partitions", "coin_extremal.json"))
SPLIT = str(fixture_path("partitions", "three_split.json"))

H_CHAIN = 0.38352279010702806
SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    # redirecting instead of capsys keeps these tests working under pytest -s
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run(*argv, "--format", "json")
    return code, json.loads(out), err


class TestValidate:
    def test_table_output(self):
        code, out, err = run("validate", "--system", CHAIN, "--partition", BLUR)
        assert code == 0
        assert err == ""
        assert "all documents valid" in out
        assert "state" in out and "stationary" in out

    def test_json_document(self):
        code, doc, _ = run_json("validate", "--system", CHAIN, "--partition", BLUR)
        assert code == 0
        assert doc["command"] == "validate"
        assert doc["system"]["states"] == ["a", "b"]
        assert doc["partitions"][0]["labels"] == ["L", "R"]
        assert doc["partitions"][0]["sharp"] is False

    def test_no_partition_is_fine(self):
        code, _, _ = run("validate", "--system", FAIR)
        assert code == 0


class TestRate:
    def test_sequence_and_estimate(self):
        code, doc, _ = run_json(
            "rate", "--system", CHAIN, "--partition", EXTREMAL,
            "--kind", "kow", "--nmax", "4",
        )
        assert code == 0
        seq = doc["sequence"]
        assert seq["kind"] == "kow"
        assert seq["n"] == [1, 2, 3, 4]
        assert len(seq["values"]) == 4
        assert seq["truncated_at"] is None
        assert doc["estimate"]["last_increment"] == pytest.approx(H_CHAIN, abs=1e-10)

    def test_csv_header_and_row_count(self):
        code, out, _ = run(
            "rate", "--system", CHAIN, "--partition", EXTREMAL,
            "--kind", "kow", "--nmax", "3", "--format", "csv",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "N,s_N,increment,ratio"
        assert len(lines) == 4

    def test_bits_units(self):
        code, doc, _ = run_json(
            "rate", "--system", FAIR, "--partition", COIN,
            "--kind", "kow", "--nmax", "2", "--units", "bits",
        )
        assert code == 0
        assert doc["sequence"]["values"][0] == pytest.approx(1.0, abs=1e-12)
        assert doc["sequence"]["values"][1] == pytest.approx(2.0, abs=1e-12)
        assert doc["estimate"]["last_increment"] == pytest.approx(1.0, abs=1e-12)

    def test_word_cap_truncates_with_exit_3(self):
        code, out, _ = run(
            "rate", "--system", CHAIN, "--partition", BLUR,
            "--kind", "kow", "--nmax", "8", "--word-cap", "4",
        )
        assert code == 3
        assert "truncated" in out

    def test_truncation_document_shape(self):
        code, doc, _ = run_json(
            "rate", "--system", CHAIN, "--partition", BLUR,
            "--kind", "kow", "--nmax", "8", "--word-cap", "4",
        )
        assert code == 3
        assert doc["sequence"]["truncated_at"] == 3
        assert len(doc["sequence"]["values"]) == 2

    def test_mak_past_the_old_dim_cap_exits_0(self):
        # Depth 12 has 4096 words; mak diagonalizes the 2 x 2 side.
        code, doc, _ = run_json(
            "rate", "--system", CHAIN, "--partition", BLUR,
            "--kind", "mak", "--nmax", "12",
        )
        assert code == 0
        assert doc["sequence"]["truncated_at"] is None
        assert len(doc["sequence"]["values"]) == 12

    def test_afl_on_the_dense_chain_still_truncates_at_depth_12(self):
        code, doc, _ = run_json(
            "rate", "--system", CHAIN, "--partition", BLUR,
            "--kind", "afl", "--nmax", "12",
        )
        assert code == 3
        assert doc["sequence"]["truncated_at"] == 12
        assert len(doc["sequence"]["values"]) == 11

    def test_afl_obeys_the_word_cap(self):
        code, doc, _ = run_json(
            "rate", "--system", CHAIN, "--partition", BLUR,
            "--kind", "afl", "--word-cap", "2", "--nmax", "3",
        )
        assert code == 3
        assert doc["sequence"]["truncated_at"] == 2
        assert len(doc["sequence"]["values"]) == 1

    def test_nmax_one_has_no_estimate(self):
        code, doc, _ = run_json(
            "rate", "--system", CHAIN, "--partition", EXTREMAL,
            "--kind", "hud", "--nmax", "1",
        )
        assert code == 0
        assert doc["estimate"] is None


class TestCompare:
    def test_ordering_holds_on_chain(self):
        code, doc, _ = run_json(
            "compare", "--system", CHAIN, "--partition", BLUR, "--nmax", "3",
        )
        assert code == 0
        assert doc["ordering_violations"] == []
        assert set(doc["sequences"]) == {"hud", "mak", "afl", "kow"}
        for name in ("hud", "mak", "afl", "kow"):
            assert len(doc["sequences"][name]["values"]) == 3

    def test_csv_header(self):
        code, out, _ = run(
            "compare", "--system", CHAIN, "--partition", BLUR,
            "--nmax", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,hud,mak,afl,kow,ordering"
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_nmax_one_has_a_null_estimate_for_each_kind(self):
        code, doc, _ = run_json("compare", "--system", CHAIN, "--partition", BLUR, "--nmax", "1")
        assert code == 0
        assert doc["estimates"] == {name: None for name in ("hud", "mak", "afl", "kow")}

    def test_table_mentions_ok(self):
        code, out, _ = run("compare", "--system", CHAIN, "--partition", BLUR)
        assert code == 0
        assert "all depths ok" in out


class TestCnt:
    def test_search_document(self):
        code, doc, _ = run_json(
            "cnt", "--system", DOUBLY, "--partition", SPLIT,
            "--seed", "0", "--budget", "20",
        )
        assert code == 0
        assert doc["identifications"] == 729
        assert doc["negative_identifications"] >= 1
        assert doc["random_trials"] == 20
        assert doc["best_value"] >= -1e-9
        total = sum(doc["witness_weights"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_byte_identical_reruns(self):
        argv = (
            "cnt", "--system", DOUBLY, "--partition", SPLIT,
            "--seed", "7", "--budget", "25", "--format", "json",
        )
        _, first, _ = run(*argv)
        _, second, _ = run(*argv)
        assert first == second

    def test_two_partitions_accepted(self):
        code, doc, _ = run_json(
            "cnt", "--system", DOUBLY, "--partition", SPLIT,
            "--partition", SPLIT, "--seed", "0", "--budget", "5",
        )
        assert code == 0
        assert doc["command"] == "cnt"

    def test_three_partitions_rejected(self):
        code, _, err = run(
            "cnt", "--system", DOUBLY, "--partition", SPLIT,
            "--partition", SPLIT, "--partition", SPLIT, "--seed", "0",
        )
        assert code == 1
        assert "error" in err

    def test_value_above_the_two_time_bound_exits_4(self, monkeypatch):
        system = load_system(CHAIN)
        f = load_partition(BLUR, system)
        bound = el.hud_functional(system.stationary, el.join(f, el.evolve(system, f)))
        real, calls = dynamical.cnt_functional, []

        def one_candidate_above(mu, decomposition, partitions):
            calls.append(decomposition)
            if len(calls) == 3:
                return bound + 1e-6
            return real(mu, decomposition, partitions)

        monkeypatch.setattr(dynamical, "cnt_functional", one_candidate_above)
        code, out, err = run(
            "cnt", "--system", CHAIN, "--partition", BLUR, "--seed", "1", "--budget", "2"
        )
        assert code == 4
        assert out == ""
        assert err == (
            f"error: cnt search value {bound + 1e-6!r} exceeds the two-time bound "
            f"hud(f v g) = {bound!r}\n"
        )
        assert len(calls) == 1 + 2 ** 4 + 2

    def test_cap_exits_3_before_any_evaluation(self, monkeypatch):
        real, calls = dynamical.cnt_functional, []

        def counted(mu, decomposition, partitions):
            calls.append(decomposition)
            return real(mu, decomposition, partitions)

        monkeypatch.setattr(dynamical, "cnt_functional", counted)
        code, out, err = run(
            "cnt", "--system", CHAIN, "--partition", BLUR, "--seed", "1", "--cap", "1"
        )
        assert code == 3
        assert out == ""
        assert err == "error: identification enumeration would visit 16 map tuples, cap is 1\n"
        assert calls == []

    @pytest.mark.parametrize("n, count", [(748, str(748**1496)), (760, "760^1520")])
    def test_cap_past_the_int_string_limit_exits_3(self, tmp_path, n, count):
        # A count longer than Python's 4 300-digit int-string limit prints as n^(2n).
        system, part = tmp_path / "bernoulli.json", tmp_path / "uniform.json"
        system.write_text(json.dumps({"bernoulli": [1 / n] * n}))
        part.write_text(json.dumps({"uniform": 2}))
        code, out, err = run("cnt", "--system", str(system), "--partition", str(part), "--seed", "1")
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err == (
            f"error: identification enumeration would visit {count} map tuples, "
            f"cap is {dynamical.DEFAULT_ENUMERATION_CAP}\n"
        )

    @pytest.mark.parametrize("n, count", [(147, str(147**294)), (300, "300^600")])
    def test_cap_under_a_lower_int_string_limit_exits_3(self, tmp_path, n, count):
        # Under a limit of 640 digits, 147^294 (638 digits) prints in full and
        # 300^600 (1 487 digits) prints as a power.
        system, part = tmp_path / "bernoulli.json", tmp_path / "uniform.json"
        system.write_text(json.dumps({"bernoulli": [1 / n] * n}))
        part.write_text(json.dumps({"uniform": 2}))
        with int_str_limit(640):
            code, out, err = run(
                "cnt", "--system", str(system), "--partition", str(part), "--seed", "1"
            )
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err == (
            f"error: identification enumeration would visit {count} map tuples, "
            f"cap is {dynamical.DEFAULT_ENUMERATION_CAP}\n"
        )


class TestSample:
    def test_within_bound(self):
        code, doc, _ = run_json(
            "sample", "--system", CHAIN, "--partition", BLUR,
            "--depth", "2", "--samples", "20000", "--seed", "5",
        )
        assert code == 0
        assert doc["n_words"] == 4
        assert doc["within_bound"] is True
        assert sum(doc["counts"]) == 20000
        assert doc["tv_distance"] <= doc["tv_bound"]

    def test_table_shows_word_labels(self):
        code, out, _ = run(
            "sample", "--system", CHAIN, "--partition", BLUR,
            "--depth", "2", "--samples", "1000", "--seed", "5",
        )
        assert code == 0
        assert "L.L" in out

    def test_byte_identical_reruns(self):
        argv = (
            "sample", "--system", CHAIN, "--partition", BLUR,
            "--depth", "3", "--samples", "5000", "--seed", "12", "--format", "json",
        )
        _, first, _ = run(*argv)
        _, second, _ = run(*argv)
        assert first == second


class TestSup:
    def test_chain_winner_is_state_partition(self):
        code, doc, _ = run_json("sup", "--system", CHAIN, "--kind", "kow", "--nmax", "4")
        assert code == 0
        assert doc["cells"] == [["a"], ["b"]]
        assert doc["candidates"] == 2
        assert doc["estimate"]["last_increment"] == pytest.approx(H_CHAIN, abs=1e-9)

    def test_cycle_rate_is_zero(self):
        code, doc, _ = run_json("sup", "--system", CYCLE, "--kind", "kow", "--nmax", "3")
        assert code == 0
        assert doc["estimate"]["last_increment"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "kind, cap", [("kow", "--word-cap"), ("mak", "--dim-cap"), ("afl", "--dim-cap")]
    )
    def test_caps_that_stop_every_candidate_exit_3(self, kind, cap):
        code, out, err = run("sup", "--system", DOUBLY, "--kind", kind, cap, "1", "--nmax", "3")
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: the partition into singletons stopped before depth 2 (")

    def test_word_cap_ranks_every_candidate_at_the_singletons_depth(self):
        # Three singletons have 27 words at depth 3, over the cap of 9, so all five
        # candidates are ranked at depth 2 and the command exits 3.
        argv = ("sup", "--system", DOUBLY, "--kind", "kow", "--nmax", "3", "--word-cap", "9")
        code, doc, _ = run_json(*argv)
        assert code == 3
        assert doc["cells"] == [["x0"], ["x1"], ["x2"]]
        assert doc["estimate"]["depth"] == 2
        assert doc["candidates"] == 5
        code, out, _ = run(*argv)
        assert code == 3
        assert "truncated: depth 3 exceeded a cap" in out

    def test_json_sequence_carries_the_truncation(self):
        argv = ("sup", "--system", DOUBLY, "--kind", "kow", "--nmax", "3")
        code, doc, _ = run_json(*argv, "--word-cap", "9")
        assert code == 3
        assert doc["sequence"]["truncated_at"] == 3
        assert len(doc["sequence"]["values"]) == doc["estimate"]["depth"] == 2
        assert list(doc)[-4:] == ["cells", "sequence", "estimate", "candidates"]
        code, doc, _ = run_json(*argv)
        assert code == 0
        assert doc["sequence"]["truncated_at"] is None
        assert len(doc["sequence"]["values"]) == doc["estimate"]["depth"] == 3

    def test_table_summary_reads_like_rate(self):
        code, out, _ = run("sup", "--system", CHAIN, "--kind", "kow", "--nmax", "4")
        _, doc, _ = run_json("sup", "--system", CHAIN, "--kind", "kow", "--nmax", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[: lines.index("")] == [
            "candidates evaluated = 2",
            "kind = kow",
            "units = nats",
            f"rate (last increment) = {doc['estimate']['last_increment']!r}",
            f"rate (last ratio) = {doc['estimate']['last_ratio']!r}",
        ]


class TestReportCommand:
    def test_full_document(self):
        code, doc, _ = run_json(
            "report", "--system", CHAIN, "--partition", BLUR, "--nmax", "3",
        )
        assert code == 0
        assert doc["command"] == "report"
        assert doc["system"]["states"] == ["a", "b"]
        assert doc["partition"]["n_outcomes"] == 2
        assert set(doc["sequences"]) == {"hud", "mak", "afl", "kow"}
        assert doc["ordering_violations"] == []

    def test_out_file(self, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            "report", "--system", CHAIN, "--partition", BLUR,
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["command"] == "report"


ALL_KIND_COMMANDS = ("compare", "report")
# The ordering summary line of each command: its head, and its tail when every depth is ok.
ORDERING_SUMMARY = {
    "compare": ("ordering hud<=mak, hud<=afl<=kow: ", "all depths ok"),
    "report": ("ordering: ", "ok"),
}


class TestOrderingViolations:
    """The violation report of ``compare`` and ``report``: mak is lowered to 0 at depth 2."""

    @pytest.fixture
    def hud_at_depth_two(self, monkeypatch):
        real = cli.entropy_sequence
        system = load_system(CHAIN)
        hud = real(system, load_partition(BLUR, system), el.EntropyKind.HUD, 3).values

        def lowered(system, part, kind, n_max, **caps):
            sequence = real(system, part, kind, n_max, **caps)
            if kind is not el.EntropyKind.MAK:
                return sequence
            values = sequence.values.copy()
            values[1] = 0.0
            return el.EntropySequence(kind, values, sequence.truncated_at)

        monkeypatch.setattr(cli, "entropy_sequence", lowered)
        return float(hud[1])

    @pytest.mark.parametrize("units", ["nats", "bits"])
    @pytest.mark.parametrize("command", ALL_KIND_COMMANDS)
    def test_json_lists_the_violation_with_exit_4(self, hud_at_depth_two, command, units):
        code, doc, err = run_json(
            command, "--system", CHAIN, "--partition", BLUR, "--nmax", "3", "--units", units
        )
        assert code == 4
        assert err == ""
        assert hud_at_depth_two > 0.0
        low = convert_units(hud_at_depth_two, units)
        assert doc["ordering_violations"] == [
            {"depth": 2, "check": "hud<=mak", "low": low, "high": 0.0}
        ]
        # In the units of the sequence the violation was read from.
        assert low == doc["sequences"]["hud"]["values"][1]

    @pytest.mark.parametrize("command", ALL_KIND_COMMANDS)
    def test_csv_marks_the_violated_row(self, hud_at_depth_two, command):
        code, out, _ = run(
            command, "--system", CHAIN, "--partition", BLUR, "--nmax", "3", "--format", "csv"
        )
        assert code == 4
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
        assert [row.split(",")[-1] for row in rows] == ["ok", "VIOLATED", "ok"]
        assert rows[1].split(",")[2] == "0"

    @pytest.mark.parametrize("command", ALL_KIND_COMMANDS)
    def test_table_summary_counts_the_violations(self, hud_at_depth_two, command):
        code, out, _ = run(command, "--system", CHAIN, "--partition", BLUR, "--nmax", "3")
        assert code == 4
        assert f"{ORDERING_SUMMARY[command][0]}1 VIOLATIONS" in out.splitlines()
        assert "truncated" not in out


class TestAllKindsTruncation:
    """``--word-cap 4`` stops every kind at depth 3, where k^N = 8 words."""

    ARGV = ("--system", CHAIN, "--partition", BLUR, "--word-cap", "4", "--nmax", "3")

    @pytest.mark.parametrize("command", ALL_KIND_COMMANDS)
    def test_every_kind_stops_at_depth_3_with_exit_3(self, command):
        code, doc, err = run_json(command, *self.ARGV)
        assert code == 3
        assert err == ""
        assert doc["ordering_violations"] == []
        for name in ("hud", "mak", "afl", "kow"):
            assert doc["sequences"][name]["truncated_at"] == 3
            assert len(doc["sequences"][name]["values"]) == 2
            assert doc["estimates"][name]["depth"] == 2

    @pytest.mark.parametrize("command", ALL_KIND_COMMANDS)
    def test_table_says_truncated(self, command):
        code, out, _ = run(command, *self.ARGV)
        assert code == 3
        lines = out.splitlines()
        assert lines[lines.index("") - 1] == "truncated: depth 3 exceeded a cap"
        assert "".join(ORDERING_SUMMARY[command]) in lines

    @pytest.mark.parametrize("command", ALL_KIND_COMMANDS)
    def test_the_first_capped_depth_is_named(self, command):
        # --dim-cap 2 stops afl at depth 2 (k^N = 4 > 2); the word cap stops the rest at 3.
        code, doc, _ = run_json(command, *self.ARGV, "--dim-cap", "2")
        assert code == 3
        assert doc["sequences"]["afl"]["truncated_at"] == 2
        assert doc["estimates"]["afl"] is None
        assert doc["estimates"]["kow"]["depth"] == 2
        code, out, _ = run(command, *self.ARGV, "--dim-cap", "2")
        assert code == 3
        assert "truncated: depth 2 exceeded a cap" in out.splitlines()


class TestExitCodes:
    def test_unknown_command_is_usage(self):
        code, _, err = run("frobnicate", "--system", CHAIN)
        assert code == 1
        assert "error" in err

    def test_missing_system_flag(self):
        code, _, err = run("validate")
        assert code == 1
        assert "error" in err

    def test_missing_file_is_usage(self):
        code, _, err = run("validate", "--system", "/nonexistent/sys.json")
        assert code == 1
        assert "cannot read" in err

    def test_bad_json_is_usage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run("validate", "--system", str(path))
        assert code == 1
        assert "line 1" in err

    def test_bad_row_sum_is_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"transition": [[0.6, 0.6], [0.5, 0.5]]}')
        code, _, err = run("validate", "--system", str(path))
        assert code == 2
        assert "row 0" in err

    def test_unknown_state_label_is_validation(self):
        code, _, err = run("validate", "--system", CHAIN, "--partition", SPLIT)
        assert code == 2
        assert "unknown state label" in err

    def test_rate_needs_exactly_one_partition(self):
        code, _, err = run("rate", "--system", CHAIN, "--kind", "kow")
        assert code == 1
        assert "--partition" in err

    def test_bad_kind_choice(self):
        code, _, err = run(
            "rate", "--system", CHAIN, "--partition", BLUR, "--kind", "bogus",
        )
        assert code == 1
        assert "error" in err

    def test_hard_cap_error_is_exit_3(self):
        # sample refuses outright when the word count exceeds the cap
        code, _, err = run(
            "sample", "--system", CHAIN, "--partition", BLUR,
            "--depth", "6", "--samples", "10", "--seed", "0", "--word-cap", "8",
        )
        assert code == 3
        assert "cap" in err

    def test_huge_depth_is_exit_3_without_counting_words(self):
        start = time.perf_counter()
        code, out, err = run(
            "sample", "--system", CHAIN, "--partition", BLUR,
            "--depth", str(10**20), "--samples", "10", "--seed", "0",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err == f"error: would count 2^{10**20} words, cap is 1048576\n"

    def test_word_count_past_the_int_string_limit_exits_3(self, tmp_path):
        # 10^4300 has 4 301 digits, one past Python's default limit: the count
        # prints as a power, next to a cap of 4 300 digits that prints in full.
        part = tmp_path / "ten_outcomes.json"
        part.write_text(json.dumps({"uniform": 10}))
        cap = "1" + "0" * 4299
        code, out, err = run(
            "sample", "--system", CHAIN, "--partition", str(part),
            "--depth", "4300", "--seed", "1", "--word-cap", cap,
        )
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err == f"error: would count 10^4300 words, cap is {cap}\n"

    def test_samples_beyond_int64_is_validation(self):
        code, out, err = run(
            "sample", "--system", CHAIN, "--partition", BLUR,
            "--depth", "2", "--samples", str(10**20), "--seed", "0",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: need at most {2**63 - 1} samples, got {10**20}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--system", CHAIN, "--partition", BLUR, "--depth", "2", "--seed", "-1"),
            ("cnt", "--system", CHAIN, "--partition", BLUR, "--budget", "2", "--seed", "-3"),
        ],
        ids=["sample", "cnt"],
    )
    def test_negative_seed_is_validation(self, argv):
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "seed must be >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("cnt", "--system", CHAIN, "--partition", BLUR, "--seed", "1", "--cap", "0"), "cap"),
            (("cnt", "--system", CHAIN, "--partition", BLUR, "--seed", "1", "--cap", "-1"), "cap"),
            (("rate", "--system", CHAIN, "--partition", BLUR, "--kind", "afl", "--word-cap", "0"),
             "word_cap"),
            (("rate", "--system", CHAIN, "--partition", BLUR, "--kind", "afl", "--word-cap", "-3"),
             "word_cap"),
            (("rate", "--system", CHAIN, "--partition", BLUR, "--kind", "hud", "--word-cap", "0"),
             "word_cap"),
            (("rate", "--system", CHAIN, "--partition", BLUR, "--kind", "hud", "--dim-cap", "0"),
             "dim_cap"),
            (("rate", "--system", CHAIN, "--partition", BLUR, "--kind", "kow", "--dim-cap", "-2"),
             "dim_cap"),
            (("compare", "--system", CHAIN, "--partition", BLUR, "--word-cap", "0"), "word_cap"),
            (("report", "--system", CHAIN, "--partition", BLUR, "--dim-cap", "-1"), "dim_cap"),
            (("sup", "--system", CHAIN, "--kind", "afl", "--word-cap", "0"), "word_cap"),
            (("sup", "--system", CHAIN, "--kind", "hud", "--dim-cap", "0"), "dim_cap"),
            (("sample", "--system", CHAIN, "--partition", BLUR, "--depth", "2", "--seed", "1",
              "--word-cap", "0"), "word_cap"),
        ],
        ids=[
            "cnt-0", "cnt-negative",
            "rate-afl-word-0", "rate-afl-word-negative", "rate-hud-word-0", "rate-hud-dim-0",
            "rate-kow-dim-negative", "compare-word-0", "report-dim-negative", "sup-afl-word-0",
            "sup-hud-dim-0", "sample-word-0",
        ],
    )
    def test_budget_or_cap_below_one_is_validation(self, argv, message):
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message} must be >= 1, got {argv[-1]}")
        assert "Traceback" not in err

    def test_inequality_violation_maps_to_exit_4(self, monkeypatch):
        def explode(args, system, parts):
            raise InequalityViolationError("ordering broke")

        monkeypatch.setitem(cli._COMMANDS, "validate", explode)
        code, _, err = run("validate", "--system", CHAIN)
        assert code == 4
        assert "ordering broke" in err


class TestOneOutcomeDepth:
    """A ``{"uniform": 1}`` partition has one word at every depth; the depth is bounded anyway.

    Each huge depth runs in a subprocess under a timeout, so a depth loop
    that never ends fails the test instead of hanging the suite.
    """

    HUGE = str(10**20)

    @pytest.fixture
    def one_outcome(self, tmp_path):
        path = tmp_path / "one_outcome.json"
        path.write_text(json.dumps({"uniform": 1}))
        return str(path)

    @staticmethod
    def cli_subprocess(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "entropy_lab.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_huge_sample_depth_exits_3(self, one_outcome):
        done = self.cli_subprocess(
            "sample", "--system", CHAIN, "--partition", one_outcome,
            "--depth", self.HUGE, "--seed", "1",
        )
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == (
            f"error: depth {self.HUGE} is past 21, the deepest a word_cap of 1048576 allows\n"
        )

    def test_huge_rate_nmax_stops_at_depth_22(self, one_outcome):
        done = self.cli_subprocess(
            "rate", "--system", CHAIN, "--partition", one_outcome,
            "--kind", "kow", "--nmax", self.HUGE, "--format", "json",
        )
        assert done.returncode == 3
        sequence = json.loads(done.stdout)["sequence"]
        assert sequence["truncated_at"] == 22
        assert sequence["values"] == [0.0] * 21

    def test_huge_sup_nmax_has_the_winner_of_nmax_30(self):
        done = self.cli_subprocess(
            "sup", "--system", CHAIN, "--kind", "kow", "--nmax", self.HUGE, "--format", "json"
        )
        # The singletons' 2^21 words pass the default cap, so both stop at depth 20.
        assert done.returncode == 3
        code, doc, _ = run_json("sup", "--system", CHAIN, "--kind", "kow", "--nmax", "30")
        assert code == 3
        huge = json.loads(done.stdout)
        assert (huge["cells"], huge["estimate"], huge["candidates"]) == (
            doc["cells"], doc["estimate"], doc["candidates"]
        )

    @pytest.mark.parametrize("kind, truncated_at", [("kow", 22), ("afl", 13)])
    def test_rate_past_the_depth_bound_exits_3(self, one_outcome, kind, truncated_at):
        # Before the depth bound covered one outcome, --nmax 30 gave 30 zeros and exit 0.
        code, doc, _ = run_json(
            "rate", "--system", CHAIN, "--partition", one_outcome, "--kind", kind, "--nmax", "30"
        )
        assert code == 3
        assert doc["sequence"]["truncated_at"] == truncated_at
        assert doc["sequence"]["values"] == [0.0] * (truncated_at - 1)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "system, partition, key",
        [
            ({"transition": [[0.5, 0.5], [1.0]]}, None, "transition"),
            ({"transition": [["a"]]}, None, "transition"),
            ({"transition": [[1.0]], "stationary": {"a": 1}}, None, "stationary"),
            (None, {"response": [[0.5, "x"], [0.5, 0.5]]}, "response"),
            # raw text: json.dumps cannot write an integer beyond float range
            pytest.param(
                '{"transition": [[1' + "0" * 400 + "]]}", None, "transition",
                id="int-beyond-float-range",
            ),
        ],
    )
    def test_malformed_numeric_field_is_a_document_error(self, tmp_path, system, partition, key):
        system_path = CHAIN
        if system is not None:
            system_path = str(tmp_path / "system.json")
            text = system if isinstance(system, str) else json.dumps(system)
            (tmp_path / "system.json").write_text(text)
        argv = ["validate", "--system", system_path]
        if partition is not None:
            (tmp_path / "partition.json").write_text(json.dumps(partition))
            argv += ["--partition", str(tmp_path / "partition.json")]
        code, out, err = run(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {key!r} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"\xff{}", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
            (
                b'{"transition": [[' + b"1" * 4301 + b"]]}",
                "{path}: invalid JSON: Exceeds the limit",
            ),
            # json.dumps cannot write it: nesting past the recursion limit
            (
                b'{"transition": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                "{path}: invalid JSON: maximum recursion depth exceeded",
            ),
        ],
        ids=["not-utf8", "int-over-digit-limit", "nested-past-recursion-limit"],
    )
    def test_undecodable_document_is_a_document_error(self, tmp_path, raw, message):
        path = tmp_path / "system.json"
        path.write_bytes(raw)
        code, out, err = run("validate", "--system", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: " + message.format(path=path))
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["absent/report.json", "."])
    def test_unwritable_out_path_is_a_usage_error(self, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run("validate", "--system", CHAIN, "--out", path)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err


VALIDATE_ARGV = ("validate", "--system", CHAIN, "--partition", BLUR)
CNT_ARGV = ("cnt", "--system", CHAIN, "--partition", BLUR, "--budget", "2", "--seed", "1")
SAMPLE_ARGV = ("sample", "--system", CHAIN, "--partition", BLUR, "--depth", "2", "--seed", "1")
MEASURED = ["version", "word_cap", "dim_cap", "units", "system"]
CONFIG_KEYS = {
    "validate": (("validate", "--system", CHAIN), ["version", "system"]),
    "validate-partition": (VALIDATE_ARGV, ["version", "system", "partitions"]),
    "rate": (
        ("rate", "--system", CHAIN, "--partition", BLUR, "--kind", "afl", "--nmax", "2"),
        [*MEASURED, "partitions", "kind", "nmax"],
    ),
    "compare": (
        ("compare", "--system", CHAIN, "--partition", BLUR, "--nmax", "2"),
        [*MEASURED, "partitions", "nmax"],
    ),
    "cnt": (
        CNT_ARGV,
        ["version", "units", "system", "partitions", "budget", "seed", "cap"],
    ),
    "sample": (
        SAMPLE_ARGV,
        ["version", "word_cap", "system", "partitions", "seed", "depth", "samples"],
    ),
    "sup": (
        ("sup", "--system", CHAIN, "--kind", "hud", "--nmax", "2"),
        [*MEASURED, "kind", "nmax"],
    ),
    "report": (
        ("report", "--system", CHAIN, "--partition", BLUR, "--nmax", "2"),
        [*MEASURED, "partitions", "nmax"],
    ),
}


class TestCommandSettings:
    """Each command takes, and echoes in its config, only the settings it reads."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (VALIDATE_ARGV, ("--units", "bits")),
            (VALIDATE_ARGV, ("--word-cap", "8")),
            (VALIDATE_ARGV, ("--dim-cap", "8")),
            (CNT_ARGV, ("--word-cap", "8")),
            (CNT_ARGV, ("--dim-cap", "8")),
            (SAMPLE_ARGV, ("--dim-cap", "8")),
            (SAMPLE_ARGV, ("--units", "bits")),
        ],
        ids=lambda v: v[0],
    )
    def test_unread_setting_is_a_usage_error(self, argv, flag):
        code, out, err = run(*argv, *flag)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: unrecognized arguments: {flag[0]}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, keys", CONFIG_KEYS.values(), ids=CONFIG_KEYS.keys())
    def test_config_keys(self, argv, keys):
        code, doc, _ = run_json(*argv)
        assert code == 0
        assert list(doc["config"]) == keys

    def test_every_config_key_is_a_flag(self):
        # The config block echoes parsed settings only, never a value from elsewhere.
        (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        dests = {a.dest for sub in commands.choices.values() for a in sub._actions}
        assert set(cli._CONFIG_KEYS) <= dests


# Each command's argv without --partition, and the counts it must refuse.
PARTITION_HEADS = {
    "validate": ("validate", "--system", CHAIN),
    "rate": ("rate", "--system", CHAIN, "--kind", "hud", "--nmax", "2"),
    "compare": ("compare", "--system", CHAIN, "--nmax", "2"),
    "cnt": ("cnt", "--system", CHAIN, "--budget", "2", "--seed", "1"),
    "sample": ("sample", "--system", CHAIN, "--depth", "2", "--seed", "1"),
    "report": ("report", "--system", CHAIN, "--nmax", "2"),
}
PARTITION_COUNTS = [
    ("validate", 9, "0..8"),
    *[(command, n, "1") for command in ("rate", "compare", "sample", "report") for n in (0, 2)],
    ("cnt", 0, "1..2"),
    ("cnt", 3, "1..2"),
]


class TestPartitionCounts:
    """Each command refuses a --partition count outside its range."""

    @pytest.mark.parametrize("command, count, expected", PARTITION_COUNTS)
    def test_count_outside_the_range_is_a_usage_error(self, command, count, expected):
        code, out, err = run(*PARTITION_HEADS[command], *("--partition", BLUR) * count)
        assert code == 1
        assert out == ""
        assert err == f"error: {command} takes {expected} --partition arguments\n"

    def test_sup_takes_no_partition(self):
        code, out, err = run("sup", "--system", CHAIN, "--kind", "hud", "--partition", BLUR)
        assert code == 1
        assert out == ""
        assert err.startswith("error: unrecognized arguments: --partition")

    def test_help_states_the_range(self):
        stated = {
            "validate": ((0, 8), "0 to 8"),
            "cnt": ((1, 2), "1 or 2"),
            **{name: ((1, 1), "exactly 1") for name in ("rate", "compare", "sample", "report")},
            "sup": ((0, 0), None),
        }
        (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        assert set(commands.choices) == set(stated)
        for name, sub in commands.choices.items():
            partition_range, count = stated[name]
            assert sub.get_default("partition_range") == partition_range
            helps = [a.help for a in sub._actions if a.dest == "partitions"]
            expected = [f"partition document (JSON); this command takes {count}"] if count else []
            assert helps == expected, name


class TestVersion:
    def test_version_flag(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
        assert exc.value.code == 0
        assert "entropy-lab" in out.getvalue()


class TestReportHelpers:
    def test_fmt(self):
        assert fmt(3) == "3"
        assert fmt(True) == "True"
        assert fmt("word") == "word"
        assert fmt(0.1) == "0.10000000000000001"
        assert fmt(np.float64(0.1)) == "0.10000000000000001"
        assert fmt(np.int64(3)) == "3"
        assert fmt(None) == "None"

    def test_convert_units(self):
        assert convert_units(LN2, "bits") == 1.0
        assert convert_units(0.25, "nats") == 0.25
        with pytest.raises(Exception):
            convert_units(1.0, "furlongs")

    def test_csv_round_trips_floats(self):
        report = Report({"x": 1}, ["a", "b"], [(1, 1.0 / 3.0)], [])
        line = report.render("csv").splitlines()[1]
        _, value = line.split(",")
        assert float(value) == 1.0 / 3.0

    def test_unknown_format_rejected(self):
        report = Report({}, [], [], [])
        with pytest.raises(Exception):
            report.render("yaml")

    def test_table_without_rows_is_summary_only(self):
        report = Report({}, ["a"], [], ["hello"])
        assert report.render("table") == "hello\n"
