"""Command-line interface: exit codes, schema, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from rieszforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_construct_small(capsys):
    code, obj = run_json(capsys, "construct", "--measure", "0.45", "--window", "300")
    assert code == 0
    assert obj["schema"] == "riesz-forge/1"
    assert obj["command"] == "construct"
    assert obj["landau"] == "pass"
    assert obj["params"]["mode"] == "small" and obj["params"]["n"] == 3
    assert obj["gap_stats"]["gap_values"] == [1, 3]


def test_construct_large_reports_separation(capsys):
    code, obj = run_json(capsys, "construct", "--bands",
                         "[[0, 0.5], [0.6, 0.9]]", "--window", "400")
    assert code == 0
    assert obj["params"]["mode"] == "large"
    assert obj["removed_separation_bound"] == 4
    assert min(obj["removed_gap_stats"]["gap_values"]) >= 4


def test_certify_exit_codes(capsys):
    # constructed points: supported -> 0
    code, obj = run_json(capsys, "certify", "--measure", "0.45",
                         "--schedule", "16,32,64,128")
    assert code == 0
    assert obj["certificate"]["verdict"] == "supported"
    # integer lattice on a half torus: refuted -> 2
    code, obj = run_json(capsys, "certify", "--measure", "0.5",
                         "--step", "1", "--window", "100", "--schedule", "16,32,64")
    assert code == 2
    assert obj["certificate"]["verdict"] == "refuted"
    # unreachable threshold: inconclusive -> 3
    code, obj = run_json(capsys, "certify", "--measure", "0.45",
                         "--schedule", "16,32", "--threshold", "100")
    assert code == 3


def test_certify_csv(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    code, _ = run(capsys, "certify", "--measure", "0.45",
                  "--schedule", "16,32", "--csv", str(csv_path))
    text = csv_path.read_text()
    assert text.startswith("window,lambda_min,lambda_max\n")
    assert len(text.strip().split("\n")) == 3


def test_certify_explicit_points(capsys):
    code, obj = run_json(capsys, "certify", "--measure", "0.4",
                         "--points", json.dumps(list(range(0, 120, 3))),
                         "--schedule", "8,16,32")
    assert obj["certificate"]["source"] == "explicit(40 points)"
    assert code in (0, 3)


def test_select_riesz(capsys):
    code, obj = run_json(capsys, "select", "--measure", "0.9",
                         "--window", "32", "--r", "2")
    assert code == 0
    assert obj["result"]["met"] is True
    assert obj["result"]["lambda_min"] >= 0.05
    assert len(obj["result"]["labels"]) == 16
    assert obj["theory"]["big_constant"] == pytest.approx(729.0)


def test_select_modes(capsys):
    code, obj = run_json(capsys, "select", "--measure", "0.5",
                         "--window", "16", "--r", "4", "--mode", "bessel")
    assert code == 0 and obj["result"]["objective"] == "bessel"
    code, obj = run_json(capsys, "select", "--measure", "1.0",
                         "--window", "16", "--r", "8", "--mode", "tight")
    assert code == 0 and obj["result"]["objective"] == "tight"


def test_partition(capsys):
    code, obj = run_json(capsys, "partition", "--dim", "2", "--r", "3")
    assert code == 0
    assert obj["segment_count"] == 108
    assert obj["section_gap_bound"] == 12
    assert obj["section_gap_ok"] and obj["covering_ok"]
    assert obj["covering_radius"] <= 3 * 2 ** 0.5


def test_partition_with_boxes(capsys):
    code, obj = run_json(capsys, "partition", "--dim", "2", "--r", "3",
                         "--boxes", "[[[0, 0.45], [0, 0.45]]]")
    assert code == 0
    assert "quality" in obj
    assert obj["quality"]["lambda_max"] >= obj["quality"]["lambda_min"]


def test_partition_boxes_of_another_dimension_exit_1(capsys):
    assert main(["partition", "--dim", "2", "--r", "3",
                 "--boxes", "[[[0, 0.5], [0, 0.5], [0, 0.5]]]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--boxes dimension 3 != --dim 2" in captured.err



# exact stdout of three partition runs, pinned by sha256 and byte length:
# any change to the report, the selectors or the JSON layout shows here
PARTITION_PINS = [
    (["--dim", "1", "--r", "3", "--window", "12", "--seed", "5"],
     562, "0f1073c4c74340bc29e73cd37eb0c03dc47d15787490e5d25ca3b5034459c49b",
     [{"axis": 1, "max_section_gap": 4, "sections_under_two_points": 0}]),
    (["--dim", "2", "--r", "2", "--window", "6", "--seed", "1",
      "--boxes", "[[[0, 0.5], [0, 0.5]]]"],
     1258, "03087d82e279703087af1fcd73cb69df90d5f30a7959d250c3d04bc68e2c07e6",
     [{"axis": 1, "max_section_gap": 5, "sections_under_two_points": 0},
      {"axis": 2, "max_section_gap": 3, "sections_under_two_points": 0}]),
    (["--dim", "3", "--r", "2", "--window", "4", "--seed", "0"],
     1982, "81e1f0401142d4239a608c554d686bdf6086efdddf3df93fe154e1b666cf4846",
     [{"axis": 1, "max_section_gap": 3, "sections_under_two_points": 2},
      {"axis": 2, "max_section_gap": 3, "sections_under_two_points": 2},
      {"axis": 3, "max_section_gap": 3, "sections_under_two_points": 3}]),
]


@pytest.mark.parametrize("argv, size, digest, sections", PARTITION_PINS,
                         ids=["dim1", "dim2-boxes", "dim3-sparse"])
def test_partition_stdout_pinned(capsys, argv, size, digest, sections):
    code, out = run(capsys, "partition", *argv)
    assert code == 0
    assert json.loads(out)["section_gaps"] == sections
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, cells", [
    (["--dim", "8", "--window", "1000"], 1000 ** 8),
    (["--dim", "2", "--window-2d", "0,1049,0,1000"], 1050 * 1001),
])
def test_partition_refuses_huge_windows(capsys, monkeypatch, argv, cells):
    from rieszforge import cli

    def no_partition(*args):
        raise AssertionError("partition built for a refused window")

    monkeypatch.setattr(cli, "cycling_partition", no_partition)
    monkeypatch.setattr(cli, "cube_partition", no_partition)
    assert cells > cli.MAX_PARTITION_CELLS
    assert main(["partition", *argv]) == 1
    assert str(cells) in capsys.readouterr().err


@pytest.mark.parametrize("argv, n", [
    (["certify", "--measure", "0.5", "--step", "1", "--window", "3000",
      "--schedule", "16,5000"], 5000),
    (["certify", "--measure", "0.4", "--schedule", "64,4097"], 4097),
    (["select", "--measure", "0.5", "--window", "100000"], 100000),
])
def test_gram_size_guard_refuses_before_building(capsys, monkeypatch, argv, n):
    from rieszforge import cli, gram

    def no_gram(*args, **kwargs):
        raise AssertionError("Gram built for a refused size")

    monkeypatch.setattr(gram, "build_gram", no_gram)
    monkeypatch.setattr(cli, "exponential_system", no_gram)
    monkeypatch.setattr(cli.qc, "generate_centered", no_gram)
    assert 2048 < cli.MAX_GRAM_N < n
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"n={n}" in err and str(16 * n * n) in err


@pytest.mark.parametrize("argv", [
    ["certify", "--measure", "0.5", "--step", "1", "--window", "2048", "--schedule", "4096"],
    ["select", "--measure", "0.5", "--window", "4096"],
])
def test_gram_size_guard_admits_the_limit(monkeypatch, argv):
    from rieszforge import cli, gram

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(gram, "build_gram", reached)
    monkeypatch.setattr(cli, "exponential_system", reached)
    assert cli.MAX_GRAM_N == 4096
    with pytest.raises(Reached):
        main(argv)


@pytest.mark.parametrize("argv", [
    ["certify", "--measure", "0.5", "--points", '{"elements": [1, 2]}'],
    ["certify", "--measure", "0.5", "--points", "5"],
    ["certify", "--measure", "0.5", "--points", "null"],
    ["certify", "--bands", "[0.1]"],
    ["partition", "--boxes", '[[[0, "nan"], [0, 0.5]]]'],
    ["partition", "--boxes", '{"boxes_2pi": 5}'],
    ["partition", "--boxes", "[[0, 1]]"],
    ["construct", "--bands", '{"bands_2pi": [[0, 0.3]], "bands_rad": [[0, 1]]}',
     "--window", "50"],
    ["partition", "--boxes",
     '{"boxes_2pi": [[[0, 0.5], [0, 0.5]]], "boxes_rad": [[[0, 1], [0, 1]]]}'],
], ids=["points-no-window", "points-number", "points-null", "bands-flat",
        "boxes-nan-string", "boxes-number", "boxes-flat", "bands-both-units",
        "boxes-both-units"])
def test_malformed_json_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"rieszforge {argv[0]}: error:")


@pytest.mark.parametrize("argv", [
    ["construct", "--measure", "0.45", "--window", str(2 ** 21)],
    ["density", "--measure", "0.45", "--window", str(2 ** 21)],
    ["density", "--step", "3", "--window", str(10 ** 12)],
    ["certify", "--measure", "0.5", "--step", "3", "--window", str(2 ** 21), "--schedule", "16"],
    # a constructed set at measure 1e-5 holds one integer in about 1e5
    ["certify", "--measure", "1e-5", "--schedule", "16,64"],
])
def test_window_guard_refuses_before_generating(capsys, monkeypatch, argv):
    from rieszforge import cli

    def no_window(*args, **kwargs):
        raise AssertionError("window generated for a refused size")

    monkeypatch.setattr(cli.qc, "generate", no_window)
    monkeypatch.setattr(cli.qc, "PointSet", no_window)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"over the limit of {cli.MAX_WINDOW}" in err and cli.MAX_WINDOW == 2 ** 22


@pytest.mark.parametrize("command", ["construct", "density"])
def test_window_guard_admits_the_limit(monkeypatch, command):
    from rieszforge import cli

    class Reached(Exception):
        pass

    def reached(alpha, interval, window):
        assert window == (-(2 ** 21 - 1), 2 ** 21 - 1)
        raise Reached

    monkeypatch.setattr(cli.qc, "generate", reached)
    with pytest.raises(Reached):
        main([command, "--measure", "0.45", "--window", str(2 ** 21 - 1)])


@pytest.mark.parametrize("measure", ["0.9", "0.6", "0.3"])
def test_select_tight_off_the_full_torus(capsys, measure):
    code, obj = run_json(capsys, "select", "--measure", measure, "--mode", "tight",
                         "--r", "4", "--window", "32", "--trials", "300")
    assert code == 0
    assert obj["result"]["objective"] == "tight" and obj["result"]["met"] is True
    assert 0.5 <= obj["result"]["lambda_min"] <= obj["result"]["lambda_max"] <= 1.5


def test_density_step(capsys):
    code, obj = run_json(capsys, "density", "--step", "3",
                         "--window", "200", "--measure", "0.45")
    assert code == 0
    assert obj["landau"] == "pass"
    assert obj["kahane"] == "riesz"
    assert obj["density"]["asymptotic"] == pytest.approx(1 / 3, abs=0.01)


@pytest.mark.parametrize("points", [
    "[0, 1.5, 3.9]",
    "[0, NaN]",
    "[0, Infinity]",
    '["3", 4]',
    '{"elements": [0, 2.5], "window": [0, 3]}',
    '{"elements": [0, 2], "window": [0, 3.5]}',
    "[true, 3, 6]",
])
def test_points_must_be_integers(capsys, points):
    assert main(["density", "--points", points]) == 1
    assert "integers" in capsys.readouterr().err


def test_integral_points_keep_working(capsys):
    code, obj = run_json(capsys, "density", "--points", "[0, 3.0, 6, 9.0]")
    code2, obj2 = run_json(capsys, "density", "--points", "[0, 3, 6, 9]")
    assert code == code2 == 0
    assert obj == obj2


def test_density_needs_source(capsys):
    assert main(["density"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["certify", "--measure", "0.4", "--bands", "[[0, 0.1]]"],
     "pass only one of --bands / --bands-file / --measure"),
    (["density", "--bands", "[[0, 0.1]]", "--bands-file", "b.json", "--step", "3"],
     "pass only one of --bands / --bands-file / --measure"),
    (["certify", "--measure", "0.4", "--points", "[0, 3]", "--step", "3"],
     "pass only one of --points / --points-file / --step"),
    (["density", "--points", "[0, 3]", "--points-file", "p.json"],
     "pass only one of --points / --points-file / --step"),
    (["certify", "--step", "3"],
     "a spectrum is required: pass --bands, --bands-file or --measure"),
    (["construct", "--window", "50"],
     "a spectrum is required: pass --bands, --bands-file or --measure"),
])
def test_source_conflicts_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rieszforge {argv[0]}: error: {message}\n"


def test_usage_errors_exit_1(capsys):
    assert main(["certify"]) == 1                       # no spectrum
    assert main(["bogus"]) == 1                         # unknown command
    assert main(["certify", "--measure", "2.0"]) == 1   # bad measure
    assert main(["certify", "--measure", "0.4", "--bands", "[[0,0.1]]"]) == 1
    assert main(["certify", "--measure", "0.4", "--schedule", "a,b"]) == 1
    assert main(["construct", "--bands", "not json"]) == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--measure", "0.5", "--points", "[0, 18446744073709551616]",
     "--schedule", "2"],
    ["certify", "--measure", "0.5", "--points", "[-4611686018427387904, 4611686018427387904]",
     "--schedule", "2"],
    ["certify", "--measure", "0.5", "--step", "3", "--window", "300",
     "--schedule", "16,32", "--threshold", "nan"],
    ["select", "--measure", "0.9", "--window", "8", "--trials", "3", "--threshold", "nan"],
    ["construct", "--bands", "[[0.1, NaN]]", "--window", "50"],
    ["construct", "--measure", "1e-7", "--window", "50"],
    ["partition", "--dim", "99999999999"],
])
def test_bad_numbers_exit_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rieszforge {argv[0]}: error:" in captured.err


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "5/5 checks passed" in out
    assert out.count("PASS") == 5


def test_selftest_out_writes_json(tmp_path, capsys):
    path = tmp_path / "selftest.json"
    code, out = run(capsys, "selftest", "--out", str(path))
    assert code == 0
    assert "5/5 checks passed" in out
    obj = json.loads(path.read_text())
    assert obj["schema"] == "riesz-forge/1" and obj["command"] == "selftest"
    assert obj["all_passed"] is True
    assert len(obj["results"]) == 5 and all(r["passed"] for r in obj["results"])


def test_json_is_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["construct", "--measure", "0.45", "--window", "150",
                     "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "rieszforge.cli", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


def test_bands_file(tmp_path, capsys):
    path = tmp_path / "bands.json"
    path.write_text(json.dumps({"bands_2pi": [[0.0, 0.45]]}))
    code, obj = run_json(capsys, "construct", "--bands-file", str(path),
                         "--window", "150")
    assert code == 0
    assert obj["params"]["mode"] == "small"
