import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kdqlab
from helpers import NON_FINITE, declared_transformation
from kdqlab import SCENARIO_NAMES, bell_scenario, kd_joint, three_box
from kdqlab.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, MAX_SHOTS, main
from kdqlab.qcore import TOL
from kdqlab.scenario_file import load_scenario_file

NINES = int("9" * 400)  # an integer literal beyond the float range


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, **kwargs):
    """Run a fresh interpreter that imports this checkout's kdqlab."""
    src = str(Path(kdqlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def assert_one_error_line(path, command):
    """A fresh ``kdqlab`` process on ``path`` exits 2 with one ``error:`` line and no output."""
    proc = run_python("-m", "kdqlab", command[0], str(path), *command[1:], capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    lines = [line for line in proc.stderr.splitlines() if line.strip()]
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def state_pairs(amp):
    return [[float(z.real), float(z.imag)] for z in np.asarray(amp, dtype=complex)]


def shows(text, value):
    """A text view prints ``value`` exactly as the JSON view rounds it: 12 significant digits."""
    return text == value if isinstance(value, str) else float(text) == value


def three_box_file(tmp_path, **extra):
    report = three_box()
    payload = {
        "dim": 3,
        "state_a": state_pairs(report.kd.state_a.amp),
        "basis_m": [state_pairs(v.amp) for v in report.kd.basis_m.vectors],
        "basis_b": [state_pairs(v.amp) for v in report.kd.basis_b.vectors],
        "labels_m": list(report.kd.basis_m.labels),
        "labels_b": list(report.kd.basis_b.labels),
    }
    payload.update(extra)
    path = tmp_path / "three_box.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestScenarioCommand:
    def test_three_box_table(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "three-box")
        assert code == EXIT_OK
        assert "0.111111111111" in out
        assert "-0.111111111111" in out
        assert "overall: PASS" in out

    def test_leggett_garg_value(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "leggett-garg", "--theta", "1.0471975511965976")
        assert code == EXIT_OK
        assert "-0.125" in out

    def test_deg_flag_equivalent(self, capsys):
        _, rad_out, _ = run_cli(capsys, "scenario", "leggett-garg", "--theta", str(math.pi / 3))
        _, deg_out, _ = run_cli(capsys, "scenario", "leggett-garg", "--theta", "60", "--deg")
        assert rad_out == deg_out

    def test_bell_json_round_trip(self, capsys):
        theta = math.pi / 4
        code, out, _ = run_cli(capsys, "scenario", "bell", "--theta", str(theta), "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["scenario"] == "bell"
        assert payload["pass"] is True
        table = np.array(payload["kd"]["re"]) + 1j * np.array(payload["kd"]["im"])
        engine = bell_scenario(theta).kd.table
        assert float(np.max(np.abs(table - engine))) <= 1e-12

    @pytest.mark.parametrize("theta", [("1e-6",), ("0.001", "--deg"), ("1e-10",), ("1.5e-10",), ("2e-10",)])
    def test_bell_near_zero_angle_passes(self, capsys, theta):
        # the conditional flip almost maps a onto b here; the law must not be applied and then fail,
        # and the <K> > 2 and P(K=-2) < 0 flags must switch at the same angle
        code, out, _ = run_cli(capsys, "scenario", "bell", "--theta", *theta)
        assert code == EXIT_OK and "FAIL" not in out

    def test_bell_p_k_minus2_reported(self, capsys):
        _, out, _ = run_cli(capsys, "scenario", "bell", "--theta", str(math.pi / 4), "--format", "json")
        payload = json.loads(out)
        got = {c["name"]: c["got"] for c in payload["checks"]}
        assert got["P(K=-2) = (1 - sin - cos) / 2"] == pytest.approx(-0.207106781187, abs=1e-9)

    def test_complex_checks_serialize_as_pairs(self, capsys):
        _, out, _ = run_cli(capsys, "scenario", "three-box", "--format", "json")
        payload = json.loads(out)
        by_name = {c["name"]: c for c in payload["checks"]}
        entry_check = by_name["P(box 3, b | a) = -1/9"]
        assert entry_check["expected"] == pytest.approx([-0.111111111111, 0.0], abs=1e-12)
        assert isinstance(entry_check["got"], list) and len(entry_check["got"]) == 2
        scalar_check = by_name["post-selection probability P(b|a) = 1/9"]
        assert isinstance(scalar_check["got"], float)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "three-box", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "m_label,b_label,re,im,modulus,phase"
        assert len(lines) == 1 + 9
        assert any(line.startswith("3,b,-0.111111111111") for line in lines)

    @pytest.mark.parametrize("name", ["bell", "peres-mermin"])
    def test_csv_rows_have_the_header_fields(self, capsys, name):
        code, out, _ = run_cli(capsys, "scenario", name, "--format", "csv")
        assert code == EXIT_OK
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["m_label", "b_label", "re", "im", "modulus", "phase"] and rows
        assert {len(row) for row in rows} == {len(header)}

    def test_unknown_scenario_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "scenario", "ghz")
        assert code == EXIT_USAGE

    def test_theta_rejected_for_fixed_scenario(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "three-box", "--theta", "1.0")
        assert code == EXIT_USAGE
        assert "no angle" in err

    def test_theta_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "leggett-garg", "--theta", "9.0")
        assert code == EXIT_USAGE
        assert "error" in err


class TestKdCommand:
    def test_reproduces_builtin_three_box(self, capsys, tmp_path):
        path = three_box_file(tmp_path)
        code, out, err = run_cli(capsys, "kd", str(path))
        assert code == EXIT_OK
        assert err == ""
        assert "0.111111111111" in out
        assert "-0.111111111111" in out
        _, builtin, _ = run_cli(capsys, "scenario", "three-box")
        table_section = builtin.split("checks:")[0]
        for value in ("0.111111111111", "-0.111111111111", "0.444444444444"):
            assert value in table_section and value in out

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_builtin_round_trips_through_a_scenario_file(self, name, capsys, tmp_path):
        # one pipeline: the builder's state, bases, labels and declared phases, written as a file, give
        # the table the builder reports, bit for bit: the loader keeps a unit-norm state_a as given
        dist, transform = declared_transformation(name)
        path = tmp_path / f"{name}.json"
        content = {"dim": dist.dim, "state_a": state_pairs(dist.state_a.amp)}
        for axis, basis in (("m", dist.basis_m), ("b", dist.basis_b)):
            content[f"basis_{axis}"] = [state_pairs(v.amp) for v in basis.vectors]
            content[f"labels_{axis}"] = list(basis.labels)
        content["action_phase"] = list(transform.spectrum.phase)
        path.write_text(json.dumps(content), encoding="utf-8")

        code, out, err = run_cli(capsys, "kd", str(path), "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        _, builtin, _ = run_cli(capsys, "scenario", name, "--format", "json")
        loaded, reported = json.loads(out), json.loads(builtin)
        assert loaded["kd"]["labels"] == reported["kd"]["labels"]
        for key, part in (("kd", "re"), ("kd", "im"), ("marginals", "m"), ("marginals", "b")):
            assert loaded[key][part] == reported[key][part]

        config = load_scenario_file(path)
        table = kd_joint(config.state_a, config.basis_m, config.basis_b).table
        assert table.tobytes() == dist.table.tobytes()
        row = loaded["overlaps"][transform.b]
        assert row["b"] == dist.basis_b.labels[transform.b]
        assert abs(row["overlap_direct"] - transform.direct) <= TOL
        assert abs(row["overlap_from_kd"] - transform.from_kd) <= TOL

    def test_json_round_trip_within_tolerance(self, capsys, tmp_path):
        path = three_box_file(tmp_path)
        code, out, _ = run_cli(capsys, "kd", str(path), "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        table = np.array(payload["kd"]["re"]) + 1j * np.array(payload["kd"]["im"])
        engine = three_box().kd.table
        assert float(np.max(np.abs(table - engine))) <= 1e-12
        assert payload["negativity"]["argmin"] == ["3", "b"]

    def test_csv_shape(self, capsys, tmp_path):
        path = three_box_file(tmp_path)
        code, out, _ = run_cli(capsys, "kd", str(path), "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 10
        undefined_rows = [line for line in lines if line.endswith(",undefined")]
        assert undefined_rows  # zero-modulus entries have no phase

    def test_csv_quotes_file_labels_with_commas_and_quotes(self, capsys, tmp_path):
        labels_m, labels_b = ["box 1,2", 'say "3"', "3"], ["b", "r,e,st", "null"]
        path = three_box_file(tmp_path, labels_m=labels_m, labels_b=labels_b)
        code, out, _ = run_cli(capsys, "kd", str(path), "--format", "csv")
        assert code == EXIT_OK
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["m_label", "b_label", "re", "im", "modulus", "phase"]
        assert [row[:2] for row in rows] == [[m, b] for m in labels_m for b in labels_b]
        assert {len(row) for row in rows} == {len(header)}

    def test_action_phase_overlap_columns(self, capsys, tmp_path):
        path = three_box_file(tmp_path, action_phase=[0.0, 0.0, math.pi])
        code, out, _ = run_cli(capsys, "kd", str(path))
        assert code == EXIT_OK
        assert "overlap_from_kd" in out
        assert "undefined" in out  # the dead column has P(b|a) = 0
        payload_code, json_out, _ = run_cli(capsys, "kd", str(path), "--format", "json")
        payload = json.loads(json_out)
        rows = {row["b"]: row for row in payload["overlaps"]}
        assert rows["b"]["overlap_from_kd"] == pytest.approx(1.0, abs=1e-9)
        assert rows["b"]["difference"] <= 1e-9
        assert rows["null"]["overlap_from_kd"] == "undefined"

    def test_random_file_overlap_agreement(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        from helpers import haar_basis, random_state

        a = random_state(rng, 3)
        basis_m = haar_basis(rng, 3, "m")
        basis_b = haar_basis(rng, 3, "b")
        payload = {
            "dim": 3,
            "state_a": state_pairs(a.amp),
            "basis_m": [state_pairs(v.amp) for v in basis_m.vectors],
            "basis_b": [state_pairs(v.amp) for v in basis_b.vectors],
            "action_phase": list(rng.uniform(-math.pi, math.pi, 3)),
        }
        path = tmp_path / "random.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "kd", str(path), "--format", "json")
        assert code == EXIT_OK
        for row in json.loads(out)["overlaps"]:
            if row["difference"] != "undefined":
                assert row["difference"] <= 1e-9

    def test_parse_errors_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        assert run_cli(capsys, "kd", str(bad))[0] == EXIT_USAGE

        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"dim": 2, "state_a": [[1, 0], [0, 0]], "basis_m": [], "basis_b": [], "wat": 1}))
        code, _, err = run_cli(capsys, "kd", str(unknown))
        assert code == EXIT_USAGE and "unknown keys" in err

        skewed = tmp_path / "skewed.json"
        skewed.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "state_a": [[1, 0], [0, 0]],
                    "basis_m": [[[1, 0], [0, 0]], [[0.9, 0], [0.435889894354, 0]]],
                    "basis_b": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                }
            )
        )
        code, _, err = run_cli(capsys, "kd", str(skewed))
        assert code == EXIT_USAGE and "orthonormal" in err

        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"dim": 2}))
        assert run_cli(capsys, "kd", str(missing))[0] == EXIT_USAGE
        assert run_cli(capsys, "kd", str(tmp_path / "does_not_exist.json"))[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("state_a", [[1, 0], [0, 0]], "state_a: expected a list of 3 [re, im] pairs"),
            ("action_phase", [0.0, math.pi], "action_phase: expected a list of 3 numbers"),
            ("labels_m", ["1", "2", 3], "labels_m: expected a list of 3 strings"),
            ("basis_m", [[[1, 0], [0, 0], [0, 0]]], "basis_m: expected 3 basis vectors (rows)"),
            ("dim", 17, "dim must be an integer in 1..16, got 17"),
            ("dim", True, "dim must be an integer in 1..16, got True"),
        ],
        ids=["state_a", "action_phase", "labels_m", "basis_m", "dim-17", "dim-True"],
    )
    def test_structural_rejections(self, capsys, tmp_path, field, value, message):
        path = three_box_file(tmp_path, **{field: value})
        assert run_cli(capsys, "kd", str(path)) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_same_basis_commuting_preparation(self, capsys, tmp_path):
        payload = {
            "dim": 2,
            "state_a": [[1.0, 0.0], [0.0, 0.0]],
            "basis_m": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "basis_b": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        }
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "kd", str(path), "--format", "json")
        assert code == EXIT_OK
        result = json.loads(out)
        re_table = np.array(result["kd"]["re"])
        im_table = np.array(result["kd"]["im"])
        assert float(re_table.min()) >= 0.0
        assert float(np.max(np.abs(im_table))) == 0.0
        assert result["negativity"]["total_negativity"] == 0.0

    def test_format_does_not_change_numbers(self, capsys, tmp_path):
        from helpers import haar_basis, random_state

        rng = np.random.default_rng(8)
        random_file = tmp_path / "random.json"  # complex entries, so phases are not only 0 or pi
        random_file.write_text(
            json.dumps(
                {
                    "dim": 4,
                    "state_a": state_pairs(random_state(rng, 4).amp),
                    "basis_m": [state_pairs(v.amp) for v in haar_basis(rng, 4, "m").vectors],
                    "basis_b": [state_pairs(v.amp) for v in haar_basis(rng, 4, "b").vectors],
                    "action_phase": list(rng.uniform(-math.pi, math.pi, 4)),
                }
            ),
            encoding="utf-8",
        )
        (tmp_path / "phase").mkdir()
        inputs = [
            ["kd", str(three_box_file(tmp_path))],
            ["kd", str(three_box_file(tmp_path / "phase", action_phase=[0.0, 0.0, math.pi]))],
            ["kd", str(random_file)],
            *(["scenario", name] for name in kdqlab.SCENARIO_NAMES),
        ]
        for argv in inputs:
            views = {fmt: run_cli(capsys, *argv, "--format", fmt) for fmt in ("json", "csv", "table")}
            assert len({code for code, _, _ in views.values()}) == 1, argv
            payload = json.loads(views["json"][1])
            kd, neg = payload["kd"], payload["negativity"]
            assert type(payload["dim"]) is int
            entries = [
                (m, b, complex(kd["re"][i][j], kd["im"][i][j]))
                for i, m in enumerate(kd["labels"]["m"])
                for j, b in enumerate(kd["labels"]["b"])
            ]
            csv_lines = views["csv"][1].strip().splitlines()[1:]
            assert len(csv_lines) == len(entries)
            for line, (m, b, z) in zip(csv_lines, entries):
                assert line.startswith(f"{m},{b},")
                re_text, im_text, modulus, phase = line[len(f"{m},{b},"):].split(",")
                assert shows(re_text, z.real) and shows(im_text, z.imag)
                # modulus and phase are recomputed here from the rounded re and im
                assert float(modulus) == pytest.approx(abs(z), rel=1e-11, abs=1e-12)
                if phase == "undefined":
                    assert abs(z) <= TOL
                else:
                    assert abs(np.exp(1j * float(phase)) - z / abs(z)) <= 1e-11

            table = views["table"][1].splitlines()
            for key in "mb":
                line = next(line for line in table if line.startswith(f"P({key}|a): "))
                cells = [cell.rsplit("=", 1) for cell in line[len("P(m|a): "):].split("  ")]
                assert [label for label, _ in cells] == kd["labels"][key]
                assert all(shows(text, p) for (_, text), p in zip(cells, payload["marginals"][key]))
            line = next(line for line in table if line.startswith("negativity: "))
            match = re.fullmatch(r"negativity: total=(\S+)  min_real=(\S+) at \((.*), (.*)\)  max\|phase\|=(\S+)", line)
            assert match and [match[3], match[4]] == neg["argmin"]
            for text, key in zip(match.group(1, 2, 5), ("total_negativity", "min_real", "max_abs_phase")):
                assert shows(text, neg[key])
            if "overlaps" in payload:
                start = table.index("transformed overlap per final outcome (table route vs direct route)") + 2
                assert len(table[start:]) == len(payload["overlaps"])
                for line, row in zip(table[start:], payload["overlaps"]):
                    cells = line.split()
                    assert cells[0] == row["b"]
                    for text, key in zip(cells[1:], ("overlap_from_kd", "overlap_direct", "difference")):
                        assert shows(text, row[key])

            if argv[0] == "scenario":
                assert isinstance(payload["pass"], bool)
                for check, engine in zip(payload["checks"], kdqlab.build(argv[1]).checks, strict=True):
                    for key in ("expected", "got"):
                        if isinstance(getattr(engine, key), complex):
                            assert isinstance(check[key], list) and len(check[key]) == 2
                        else:
                            assert isinstance(check[key], float)

    def test_unnormalized_state_warns_but_runs(self, capsys, tmp_path):
        payload = {
            "dim": 2,
            "state_a": [[2.0, 0.0], [0.0, 0.0]],
            "basis_m": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "basis_b": [
                [[0.707106781187, 0], [0.707106781187, 0]],
                [[0.707106781187, 0], [-0.707106781187, 0]],
            ],
        }
        path = tmp_path / "unnormalized.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, "kd", str(path))
        assert code == EXIT_OK
        assert err == "warning: state_a renormalized (norm was 2)\n"
        assert "0.5" in out

    def test_loader_issues_a_user_warning(self):
        text = json.dumps({"dim": 1, "state_a": [[2.0, 0.0]], "basis_m": [[[1, 0]]], "basis_b": [[[1, 0]]]})
        with pytest.warns(UserWarning, match=r"^state_a renormalized \(norm was 2\)$"):
            config = kdqlab.parse_scenario_text(text)
        assert config.state_a.amp.tolist() == [1.0]

    @pytest.mark.parametrize(
        "state_a",
        [
            pytest.param("[[0, 0], [0, 0]]", id="zeros"),
            pytest.param("[[NaN, 0], [1, 0]]", id="nan"),
            pytest.param("[[Infinity, 0], [0, 0]]", id="infinity"),
            pytest.param("[[1e308, 0], [1e308, 0]]", id="norm-overflows"),
        ],
    )
    def test_loader_rejects_a_state_that_does_not_normalize(self, state_a):
        identity = "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]"
        text = f'{{"dim": 2, "state_a": {state_a}, "basis_m": {identity}, "basis_b": {identity}}}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(kdqlab.ScenarioFileError, match=r"^state_a does not normalize to a valid state$"):
                kdqlab.parse_scenario_text(text)

    def test_loader_warns_once_when_it_renormalizes(self):
        identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        text = json.dumps({"dim": 2, "state_a": [[3, 0], [4, 0]], "basis_m": identity, "basis_b": identity})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = kdqlab.parse_scenario_text(text)
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, "state_a renormalized (norm was 5)")]
        assert config.state_a.amp.tolist() == pytest.approx([0.6, 0.8])

    @pytest.mark.parametrize("field", ["action_phase", "kappa"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_usage_errors(self, capsys, tmp_path, field, value):
        path = three_box_file(tmp_path, **{field: [0.0, 0.0, float(value)]})
        assert f"0.0, {value}]" in path.read_text(encoding="utf-8")
        code, out, err = run_cli(capsys, "kd", str(path))
        assert code == EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("command", [["kd"], ["weak", "--coupling", "1", "--width", "1", "--kappa", "0,1"]])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("state_a", [[1e308, 0], [1e308, 0]]),
            ("basis_m", [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]),
            ("state_a", [[NINES, 0], [0, 0]]),
            ("basis_m", [[[NINES, 0], [0, 0]], [[0, 0], [1, 0]]]),
            ("action_phase", [NINES, 0]),
            ("kappa", [NINES, 0]),
        ],
    )
    def test_overflowing_amplitudes_are_usage_errors(self, tmp_path, command, field, value):
        identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        payload = {"dim": 2, "state_a": [[1, 0], [0, 0]], "basis_m": identity, "basis_b": identity, field: value}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert_one_error_line(path, command)

    @pytest.mark.parametrize(
        "command, field, value, message",
        [
            (["kd"], "state_a", [[10**400, 0], [0, 0]], "state_a[0]"),
            (["weak", "--coupling", "1", "--width", "1"], "kappa", [10**400, 0], "kappa"),
        ],
    )
    def test_huge_integer_literals_name_their_field(self, capsys, tmp_path, command, field, value, message):
        # in process, so that the loader's own overflow branch is the one that answers
        identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        payload = {"dim": 2, "state_a": [[1, 0], [0, 0]], "basis_m": identity, "basis_b": identity, field: value}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}: int too large to convert to float\n")

    @pytest.mark.parametrize("command", [["kd"], ["weak", "--coupling", "1", "--width", "1", "--kappa", "0,1"]])
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(b'{"dim": 2, "kappa": [' + b"1" * 4301 + b", 0]}", id="integer-over-4300-digits"),
            pytest.param(b'{"dim": 2, "labels_m": ["\xe9", "x"]}', id="not-utf-8"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000-deep"),
        ],
    )
    def test_malformed_files_are_usage_errors(self, tmp_path, command, text):
        path = tmp_path / "malformed.json"
        path.write_bytes(text)
        assert_one_error_line(path, command)

    @pytest.mark.parametrize("near_b, extra", [(True, {}), (False, {"action_phase": [0.0, math.pi]})], ids=["sum", "unitary"])
    def test_near_orthonormal_files_are_usage_errors(self, capsys, tmp_path, near_b, extra):
        """Rows of norm^2 1 + 0.9e-10 pass the loader's 1e-10 but fail an engine check: exit 2, no traceback."""
        e = 1 + 0.45e-10
        near = [[[e, 0], [0, 0]], [[0, 0], [e, 0]]]
        identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        payload = {"dim": 2, "state_a": [[1, 0], [0, 0]], "basis_m": near, "basis_b": near if near_b else identity}
        path = tmp_path / "near.json"
        path.write_text(json.dumps(payload | extra), encoding="utf-8")
        assert_one_error_line(path, ["kd"])
        code, out, _ = run_cli(capsys, "weak", str(path), "--coupling", "1", "--width", "1", "--kappa", "0,1")
        assert code == EXIT_OK and out


class TestWeakCommand:
    def test_three_box_pointer_run(self, capsys, tmp_path):
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        code, out, _ = run_cli(
            capsys, "weak", str(path), "--coupling", "1", "--width", "50",
            "--shots", "20000", "--seed", "42",
        )
        assert code == EXIT_OK
        b_row = [
            line for line in out.splitlines() if line.split() and line.split()[0] == "b" and "P(b)" not in line
        ][0]
        assert "-0.999" in b_row
        assert "undefined" in out  # dead-direction row

    def test_kappa_flag_overrides(self, capsys, tmp_path):
        path = three_box_file(tmp_path)
        code, out, _ = run_cli(
            capsys, "weak", str(path), "--kappa", "0,0,1", "--coupling", "1", "--width", "50",
            "--shots", "5000", "--seed", "1",
        )
        assert code == EXIT_OK
        assert "mean_closed" in out

    def test_missing_kappa_is_usage_error(self, capsys, tmp_path):
        path = three_box_file(tmp_path)
        code, _, err = run_cli(capsys, "weak", str(path), "--coupling", "1", "--width", "50")
        assert code == EXIT_USAGE and "kappa" in err

    def test_wrong_kappa_length(self, capsys, tmp_path):
        path = three_box_file(tmp_path)
        code, _, err = run_cli(
            capsys, "weak", str(path), "--kappa", "0,1", "--coupling", "1", "--width", "50"
        )
        assert code == EXIT_USAGE and "3 values" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_usage_error(self, capsys, tmp_path, seed):
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        code, out, err = run_cli(
            capsys, "weak", str(path), "--coupling", "1", "--width", "50", "--shots", "10", "--seed", seed
        )
        assert code == EXIT_USAGE and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "--seed" in err

    @pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 10**11])
    def test_shots_above_cap_is_usage_error(self, capsys, tmp_path, monkeypatch, shots):
        import kdqlab.cli as cli_module

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started before the shot count was checked")

        monkeypatch.setattr(cli_module, "sample_moments", no_sampling)
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        code, out, err = run_cli(
            capsys, "weak", str(path), "--coupling", "1", "--width", "50", "--shots", str(shots), "--seed", "1"
        )
        assert code == EXIT_USAGE and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:") and str(MAX_SHOTS) in err

    @pytest.mark.parametrize(
        "pointer",
        [
            pytest.param(("--coupling", "1", "--width", "1e-300"), id="width-squared-underflows"),
            pytest.param(("--coupling", "1e200", "--width", "1"), id="coupling-times-kappa-overflows"),
            pytest.param(("--coupling", "1", "--width", "1e-160"), id="width-squared-subnormal"),
            pytest.param(("--coupling", "1e200", "--width", "1", "--kappa", "0,0,1e-100"), id="coupling-squared-overflows"),
            pytest.param(("--coupling", "1", "--width", "1e200"), id="width-squared-overflows"),
        ],
    )
    def test_extreme_pointer_is_usage_error(self, capsys, tmp_path, pointer):
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        code, out, err = run_cli(capsys, "weak", str(path), *pointer, "--shots", "10", "--seed", "1")
        assert code == EXIT_USAGE and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_replay_is_byte_identical(self, capsys, tmp_path):
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        argv = ("weak", str(path), "--coupling", "1", "--width", "50", "--shots", "20000", "--seed", "7")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("coupling", ["1e-160", "1e152"], ids=["first-width-subnormal", "last-width-overflows"])
    def test_sweep_out_of_range_is_usage_error(self, capsys, tmp_path, coupling):
        # the sweep widths run from 2 to 64 times the coupling
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        code, out, err = run_cli(
            capsys, "weak", str(path), "--coupling", coupling, "--width", "1", "--shots", "10", "--seed", "1", "--sweep"
        )
        assert code == EXIT_USAGE and not out
        assert len(err.splitlines()) == 1 and err.startswith("error: --sweep:")

    def test_sweep_converges_to_weak_value(self, capsys, tmp_path):
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        code, out, _ = run_cli(
            capsys, "weak", str(path), "--coupling", "1", "--width", "2",
            "--shots", "1000", "--seed", "3", "--sweep",
        )
        assert code == EXIT_OK
        assert "width sweep" in out
        assert "target Re(weak value): b=-1" in out
        sweep_lines = [line for line in out.splitlines() if line and line[0].isdigit()]
        ratios, errors = [], []
        for line in sweep_lines:
            cells = line.split()
            ratios.append(float(cells[0]))
            errors.append(abs(float(cells[1]) + 1.0))
        assert ratios == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        assert not NON_FINITE.search(out), out

    @pytest.mark.parametrize(
        "kappa, unit_kappa",
        [([0.0, 0.0, 1e300], "0,0,1"), ([0.0, 1.5e308, 1.5e308], "0,1.5e8,1.5e8")],
        ids=["spread-1e300", "pair-sum-past-float-range"],
    )
    def test_tiny_coupling_against_huge_spread_runs(self, capsys, tmp_path, kappa, unit_kappa):
        # coupling**2 underflows and the spread squared overflows (in the second case, so does the sum of
        # the two large eigenvalues); the table is that of coupling 1 with kappa scaled by 1e-300
        path = three_box_file(tmp_path, kappa=kappa)
        code, out, err = run_cli(
            capsys, "weak", str(path), "--coupling", "1e-300", "--width", "1", "--shots", "1000", "--seed", "1"
        )
        assert code == EXIT_OK and err == ""
        assert not NON_FINITE.search(out), out
        _, unit, _ = run_cli(
            capsys, "weak", str(path), "--kappa", unit_kappa, "--coupling", "1", "--width", "1", "--shots", "1000", "--seed", "1"
        )
        # every row, mean_closed included, prints the same 12 significant digits as the unit run
        assert out.splitlines()[1:] == unit.splitlines()[1:]

    def test_quadrature_warnings_are_one_line_each(self, tmp_path):
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        proc = run_python(
            "-m", "kdqlab", "weak", str(path), "--coupling", "1", "--width", "1e12", "--shots", "1000", "--seed", "1",
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        warning_lines = [line for line in proc.stderr.splitlines() if line.strip()]
        assert warning_lines and all(line.startswith("warning: quadrature mean") for line in warning_lines)

        kd = three_box().kd
        cfg = kdqlab.PointerConfig(coupling=1.0, width=1e12, eigenvalue=(0.0, 0.0, 1.0))
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("pointer measurement: coupling=1 width=1e+12") and len(lines) == 5
        for j, line in enumerate(lines[2:4]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                quad = kdqlab.conditional_pointer_mean_quadrature(kd.state_a, kd.basis_m, kd.basis_b, cfg, j)
            closed = kdqlab.conditional_pointer_mean(kd.state_a, kd.basis_m, kd.basis_b, cfg, j)
            assert line.split()[2:4] == [f"{closed:.12g}", f"{quad:.12g}"]
        assert lines[4].split()[1:] == ["undefined"] * 4 + ["0"]

    def test_near_orthogonal_post_selection_agrees_with_the_quadrature(self, capsys, tmp_path):
        # b0 = (1, -1, 0)/sqrt(2) + 1e-5 a, normalised: P(b0) = 1.0e-10 at width 1e6, and the
        # closed form once printed -40806.8318351 against the quadrature's -40806.8264091
        a = kdqlab.StateVector.normalize(np.ones(3))
        b0 = kdqlab.StateVector.normalize(np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0) + 1e-5 * a.amp)
        basis_b = kdqlab.complete_basis([b0], ("b0", "b1", "b2"))
        payload = {
            "dim": 3,
            "state_a": state_pairs(a.amp),
            "basis_m": [state_pairs(v) for v in np.eye(3)],
            "basis_b": [state_pairs(v.amp) for v in basis_b.vectors],
            "kappa": [0.0, 1.0, 2.0],
        }
        path = tmp_path / "near_orthogonal.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "weak", str(path), "--coupling", "1", "--width", "1e6", "--shots", "1000")
        assert code == EXIT_OK and err == ""
        row = next(line.split() for line in out.splitlines() if line.split()[:1] == ["b0"])
        closed, quad = float(row[2]), float(row[3])
        assert float(row[1]) == pytest.approx(1.0004e-10, rel=1e-4)
        assert abs(closed - quad) <= 1e-8 * abs(closed)

    def test_correct_quadrature_means_do_not_warn(self, capsys, tmp_path):
        # the null outcome has P(b) = 4.2e-4 and a quadrature mean 1.2e-14 off mpmath's, so its error
        # estimate must stay below 1e-8 and print no warning
        path = three_box_file(tmp_path)
        code, _, err = run_cli(capsys, "weak", str(path), "--kappa", "0,1,2", "--coupling", "1", "--width", "10")
        assert code == EXIT_OK and err == ""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux only")
    def test_weak_folds_its_draw_in_bounded_memory(self, tmp_path):
        # A batch of 2e7 shots alone would take 180 MB at 9 bytes per shot. The peak is read
        # in a fresh wrapper process, whose only child is this run: RUSAGE_CHILDREN keeps
        # the largest child ever waited for, and this process has waited for others.
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        probe = (
            "import resource, subprocess, sys\n"
            "code = subprocess.run([sys.executable, '-m', 'kdqlab', *sys.argv[1:]], stdout=subprocess.DEVNULL).returncode\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        proc = run_python(
            "-c", probe, "weak", str(path), "--coupling", "1", "--width", "1", "--shots", str(2 * 10**7),
            capture_output=True, text=True,
        )
        code, peak_kb = map(int, proc.stdout.split())
        assert code == EXIT_OK, proc.stderr
        assert peak_kb < 100 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


class TestExitCodeContract:
    def test_check_failure_exit_code_exists(self):
        assert EXIT_CHECK_FAILED == 3 and EXIT_USAGE == 2 and EXIT_OK == 0

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_OK

    def test_failed_check_exits_three(self, capsys, monkeypatch):
        import kdqlab.cli as cli_module
        from kdqlab.scenarios import Check, ScenarioReport

        real = three_box()
        broken = ScenarioReport(
            scenario=real.scenario,
            kd=real.kd,
            checks=real.checks[:-1] + (Check("forced failure", 1.0, 2.0),),
        )
        monkeypatch.setattr(cli_module.scenarios, "build", lambda name, theta=None: broken)
        code, out, _ = run_cli(capsys, "scenario", "three-box")
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in out and "overall: FAIL" in out

    def test_failed_bell_correlation_check_exits_three(self, capsys, monkeypatch):
        import kdqlab.scenarios as scenarios_module

        monkeypatch.setattr(scenarios_module, "_CHSH_CELLS", 2 * scenarios_module._CHSH_CELLS)
        code, out, err = run_cli(capsys, "scenario", "bell")
        assert code == EXIT_CHECK_FAILED and err == ""
        assert any(line.startswith("  FAIL  <K> = 2 (sin + cos):") for line in out.splitlines())
        assert out.splitlines()[-1] == "overall: FAIL"

    def test_warning_and_error_lines_keep_their_order(self, capsys, tmp_path):
        path = three_box_file(tmp_path, state_a=[[2.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        code, out, err = run_cli(capsys, "weak", str(path), "--kappa", "0,1", "--coupling", "1", "--width", "1")
        assert code == EXIT_USAGE and out == ""
        assert err == "warning: state_a renormalized (norm was 3.46410161514)\nerror: --kappa needs 3 values, got 2\n"

    def test_programming_errors_keep_their_traceback(self, monkeypatch):
        import kdqlab.cli as cli_module

        def broken(name, theta=None):
            raise TypeError("not an input problem")

        monkeypatch.setattr(cli_module.scenarios, "build", broken)
        with pytest.raises(TypeError, match="not an input problem"):
            main(["scenario", "three-box"])


class TestProcess:
    def test_closed_pipe_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python(
                "-m", "kdqlab", "scenario", "peres-mermin", "--format", "csv",
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK
        assert "Traceback" not in proc.stderr

    def test_closed_pipe_returns_zero_in_process(self, capsys, monkeypatch):
        # main's own broken-pipe branch: the flush meets a pipe whose reader has gone, and main
        # points stdout at devnull and returns 0 without a word on stderr
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["scenario", "bell", "--format", "csv"])
            monkeypatch.undo()
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    IMPORT_CHECK = (
        "import json, sys\n"
        "import kdqlab\n"
        "from kdqlab import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    cli.main(json.loads(argv))\n"
        "print('scipy loaded:', 'scipy' in sys.modules)\n"
    )

    def test_scenario_and_kd_do_not_load_scipy(self, tmp_path):
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        proc = run_python(
            "-c", self.IMPORT_CHECK, json.dumps(["scenario", "three-box"]), json.dumps(["kd", str(path)]),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "overall: PASS" in proc.stdout and "P(m|a)" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "scipy loaded: False"

    def test_weak_does_not_load_scipy(self, tmp_path):
        path = three_box_file(tmp_path, kappa=[0.0, 0.0, 1.0])
        proc = run_python(
            "-c", self.IMPORT_CHECK,
            json.dumps(["weak", str(path), "--coupling", "1", "--width", "50", "--shots", "1000", "--seed", "1"]),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        header = lines[1].split()
        b_row = lines[2].split()
        assert header[3] == "mean_quadrature" and b_row[0] == "b"
        assert float(b_row[3]) == pytest.approx(float(b_row[2]), abs=1e-8)
        assert lines[-1] == "scipy loaded: False"
