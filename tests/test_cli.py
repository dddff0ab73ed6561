import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import graphent
from graphent import cli, sampling, statevector, valencia, validation
from graphent.cli import CSV_COLUMNS, main, parse_phi, UsageError
from graphent.entanglement import METHODS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


ROOT = Path(__file__).resolve().parents[1]


def readme_recipes():
    """The ``graphent ...`` lines of the README's Recipes section, continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Recipes\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [" ".join(ln.split()) for ln in lines if ln.strip().startswith("graphent ")]


class TestPhiParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.5", 0.5),
            ("2.5e-1", 0.25),
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("2pi/3", 2 * math.pi / 3),
            ("-pi/4", -math.pi / 4),
            ("0.5pi", 0.5 * math.pi),
            ("2*pi", 2 * math.pi),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_phi(text) == pytest.approx(expected, rel=0, abs=0)

    @pytest.mark.parametrize("text", ["tau", "pi/0", "pi//2", "two pi", ""])
    def test_rejected(self, text):
        with pytest.raises(UsageError):
            parse_phi(text)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "1" + "0" * 400 + "pi"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(UsageError):
            parse_phi(text)


class TestEntangle:
    def test_analytic_valencia_hub_at_half_pi(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "--preset", "valencia", "--phi", "pi/2",
            "--spin", "1", "--mode", "analytic",
        )
        assert code == 0
        record = json.loads(out)
        assert record["entanglement"] == 0.5
        assert record["mode"] == "analytic"
        assert record["graph"] == {"n": 5, "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]}
        assert record["std_error"] is None and record["shots"] is None
        assert list(record) == [
            "phi", "spin", "mode", "bloch", "entanglement",
            "std_error", "shots", "seed", "graph",
        ]

    def test_exact_zero_angle(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "--preset", "valencia", "--phi", "0",
            "--spin", "3", "--mode", "exact",
        )
        assert code == 0
        assert json.loads(out)["entanglement"] == 0.0

    def test_exact_complete_graph(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "--preset", "complete(5)", "--phi", "pi/4",
            "--spin", "0", "--mode", "exact",
        )
        assert code == 0
        assert json.loads(out)["entanglement"] == pytest.approx(0.375, abs=1e-12)

    def test_shots_record_carries_error_bars(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "--preset", "path(2)", "--phi", "0.7",
            "--spin", "0", "--mode", "shots", "--shots", "2000", "--seed", "3",
        )
        assert code == 0
        record = json.loads(out)
        assert record["shots"] == 2000
        assert record["std_error"] > 0
        assert record["seed"] == 3

    def test_json_byte_identical_replay(self, capsys):
        argv = (
            "entangle", "--preset", "valencia", "--phi", "1.1", "--spin", "1",
            "--mode", "shots", "--shots", "512", "--seed", "19",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_exact_large_sparse_graph_under_default_cap(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "--preset", "ring(100000)", "--phi", "pi/4",
            "--spin", "5", "--mode", "exact",
        )
        assert code == 0
        record = json.loads(out)
        assert record["entanglement"] == pytest.approx(0.25, abs=1e-15)
        assert record["graph"]["n"] == 100000

    def test_exact_dense_light_cone_over_default_cap(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "--preset", "complete(30)", "--phi", "pi/4",
            "--spin", "0", "--mode", "exact",
        )
        assert code == 3
        assert out == ""

    def test_shots_large_sparse_graph_under_default_cap(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "--preset", "ring(30)", "--phi", "1", "--spin", "3",
            "--mode", "shots",
        )
        assert code == 0
        record = json.loads(out)
        assert (record["spin"], record["shots"], record["graph"]["n"]) == (3, 8192, 30)

    def test_shots_dense_star_over_default_cap(self, capsys):
        argv = ("entangle", "--preset", "complete(30)", "--phi", "pi/4", "--spin", "0")
        code, out, _ = run(capsys, *argv, "--mode", "shots")
        assert code == 0
        record = json.loads(out)
        assert (record["spin"], record["shots"], record["graph"]["n"]) == (0, 8192, 30)
        # the same spin in exact mode still needs a 30-qubit state
        code, out, err = run(capsys, *argv, "--mode", "exact")
        assert code == 3
        assert out == ""
        assert err == "error: 30 qubits exceeds the cap of 24\n"

    @pytest.mark.parametrize("spin", [3, 2, 0], ids=["spin", "neighbour", "far-vertex"])
    def test_shots_calibration_must_cover_the_graph(self, capsys, tmp_path, spin):
        # path(4) is 0-1-2-3 and the table covers qubits 0-2: spin 3 itself,
        # spin 2's neighbour 3, and for spin 0 the far vertex 3 are uncovered
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(
            {"readout_error": [0.01] * 3, "gate_error": [1e-3] * 3, "cx_error": {}}
        ))
        code, out, err = run(
            capsys, "entangle", "--preset", "path(4)", "--phi", "1", "--spin", str(spin),
            "--mode", "shots", "--shots", "64", "--calibration", str(cal),
        )
        assert code == 2
        assert out == ""
        assert err == "error: calibration covers 3 qubits, graph has 4\n"

    @pytest.mark.parametrize("phi", ["inf", "nan"])
    @pytest.mark.parametrize("mode", METHODS)
    def test_non_finite_angle_is_usage_error(self, capsys, phi, mode):
        code, out, err = run(
            capsys, "entangle", "--preset", "valencia", "--phi", phi, "--spin", "1",
            "--mode", mode,
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err

    def test_graph_file_and_spin_validation(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2\n0 1\n")
        code, _, err = run(
            capsys, "entangle", "--graph", str(p), "--phi", "0.1", "--spin", "5",
        )
        assert code == 2
        assert "spin 5" in err


class TestSweep:
    def test_non_integer_count_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--preset", "valencia", "--sweep", "0:1:2.5")
        assert code == 1
        assert out == ""
        assert err == "usage error: argument --sweep: sweep count must be an integer, got '2.5'\n"

    def test_header_and_row_order(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--preset", "path(2)", "--sweep", "0:pi:3",
            "--spin", "0", "--spin", "1", "--mode", "analytic", "--mode", "exact",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = rows_of(out)
        assert len(rows) == 3 * 2 * 2
        assert [(r["spin"], r["mode"]) for r in rows[:4]] == [
            ("0", "analytic"), ("0", "exact"), ("1", "analytic"), ("1", "exact"),
        ]
        assert rows[0]["phi"] == "0.0"
        assert float(rows[-1]["phi"]) == pytest.approx(math.pi)

    def test_valencia_degree_curves(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--preset", "valencia", "--sweep", "0:2pi:64",
            "--spin", "4", "--spin", "3", "--spin", "1", "--mode", "analytic",
        )
        assert code == 0
        exponents = {"4": 1, "3": 2, "1": 3}
        for row in rows_of(out):
            phi = float(row["phi"])
            k = exponents[row["spin"]]
            expected = 0.5 * (1 - abs(math.cos(phi)) ** k)
            assert float(row["entanglement"]) == pytest.approx(expected, abs=1e-12)

    def test_complete_graph_curve(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--preset", "complete(5)", "--sweep", "0:2pi:16",
            "--spin", "1", "--mode", "analytic",
        )
        assert code == 0
        for row in rows_of(out):
            expected = 0.5 * (1 - math.cos(float(row["phi"])) ** 4)
            assert float(row["entanglement"]) == pytest.approx(expected, abs=1e-12)

    def test_analytic_and_exact_rows_agree(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--preset", "valencia", "--sweep", "0:2pi:10",
            "--mode", "analytic", "--mode", "exact",
        )
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 10 * 5 * 2
        pairs = {}
        for row in rows:
            pairs.setdefault((row["phi"], row["spin"]), {})[row["mode"]] = float(
                row["entanglement"]
            )
        worst = max(abs(v["analytic"] - v["exact"]) for v in pairs.values())
        assert worst <= 1e-10

    @pytest.mark.parametrize(
        "mode,route",
        [("analytic", "analytic_estimate"), ("exact", "exact_entanglement")],
        ids=["analytic", "exact"],
    )
    def test_rows_computed_once_per_mode_degree_and_angle(self, capsys, monkeypatch, mode, route):
        calls = []
        compute = getattr(cli, route)

        def counted(g, phi, spin, *rest):
            calls.append((g.degree(spin), phi))
            return compute(g, phi, spin, *rest)

        monkeypatch.setattr(cli, route, counted)
        code, out, _ = run(capsys, "sweep", "--preset", "valencia", "--sweep", "0:2pi:5", "--mode", mode)
        assert code == 0
        assert len(set(calls)) == len(calls) == 5 * 3  # valencia's degrees are 1, 3, 1, 2, 1
        rows = rows_of(out)
        assert len(rows) == 5 * 5
        for row in rows:
            est = compute(valencia(), float(row["phi"]), int(row["spin"]))
            assert [row["mean_x"], row["mean_y"], row["mean_z"], row["entanglement"]] == [
                repr(v) for v in (*est.bloch.as_tuple(), est.value)
            ]

    def test_shots_rows_are_never_shared(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--preset", "valencia", "--sweep", "0.5:1:2", "--spin", "0", "--spin", "2",
            "--mode", "shots", "--shots", "1000", "--seed", "3",
        )
        assert code == 0
        assert valencia().degree(0) == valencia().degree(2)
        rows = rows_of(out)
        assert len(rows) == 4
        for i, row in enumerate(rows):
            est = sampling.estimate_entanglement_shots(
                valencia(), float(row["phi"]), int(row["spin"]), 1000, seed=sampling.derive_seed(3, i)
            )
            assert row["mean_z"] == repr(est.bloch.mz)
        assert rows[0]["mean_z"] != rows[1]["mean_z"]
        assert rows[2]["mean_z"] != rows[3]["mean_z"]

    def test_shots_rows_fill_error_columns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--preset", "path(2)", "--sweep", "0:1:2",
            "--spin", "0", "--mode", "shots", "--shots", "512", "--seed", "5",
        )
        assert code == 0
        for row in rows_of(out):
            assert row["shots"] == "512"
            assert row["std_error"] != ""
            assert row["seed"] == "5"

    def test_non_shots_rows_leave_error_columns_empty(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--preset", "path(2)", "--sweep", "0:1:2", "--mode", "exact",
        )
        for row in rows_of(out):
            assert row["std_error"] == "" and row["shots"] == ""

    def test_byte_identical_replay(self, capsys, tmp_path):
        args = [
            "sweep", "--preset", "valencia", "--sweep", "0:pi:4", "--spin", "1",
            "--mode", "shots", "--shots", "256", "--seed", "7",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--preset", "path(2)", "--sweep", "0:1:2",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 2

    def test_bad_sweep_spec_is_usage_error(self, capsys):
        for spec in ["0:1:1", "1:0:5", "0:1", "a:b:3"]:
            code, _, _ = run(
                capsys, "sweep", "--preset", "path(2)", "--sweep", spec,
            )
            assert code == 1

    @pytest.mark.parametrize(
        "args,expected",
        [
            (["--preset", "valencia", "--sweep", "0:1:2", "--mode", "shots", "--shots", "0"], 2),
            (["--preset", "complete(30)", "--spin", "0", "--mode", "exact", "--sweep", "0:1:2"], 3),
            (["--preset", "valencia", "--spin", "7", "--sweep", "0:1:2"], 2),
        ],
    )
    def test_failing_sweep_writes_nothing(self, capsys, tmp_path, args, expected):
        code, out, _ = run(capsys, "sweep", *args)
        assert code == expected
        assert out == ""
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "sweep", *args, "--out", str(target))
        assert code == expected
        assert out == ""
        assert not target.exists()

    # 0:1.7e308:10 has a finite span, but the last grid point's (stop - start) * 9 overflows
    @pytest.mark.parametrize("spec", ["0:inf:3", "nan:1:3", "-1e308:1e308:3", "0:1.7e308:10"])
    def test_non_finite_sweep_fails_before_output(self, capsys, spec):
        code, out, _ = run(
            capsys, "sweep", "--preset", "valencia", f"--sweep={spec}", "--mode", "exact",
        )
        assert code == 1
        assert out == ""


class TestSynthesize:
    def test_calibrated_valencia_head(self, capsys, tmp_path):
        import importlib.resources as res

        cal = tmp_path / "cal.json"
        cal.write_text(
            res.files("graphent").joinpath("data/valencia_calibration.json").read_text()
        )
        code, out, _ = run(
            capsys, "synthesize", "--preset", "valencia", "--phi", "pi/4",
            "--calibration", str(cal),
        )
        assert code == 0
        assert out.splitlines()[:5] == [
            "cx q[1], q[0]",
            "h q[1]",
            "p(0.7853981633974483) q[1]",
            "h q[1]",
            "cx q[1], q[0]",
        ]

    def test_empty_graph_empty_listing(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--preset", "path(1)", "--phi", "1")
        assert code == 0
        assert out == ""

    def test_complete_graph_gate_count(self, capsys):
        code, out, _ = run(
            capsys, "synthesize", "--preset", "complete(5)", "--phi", "0.3",
        )
        assert code == 0
        assert len(out.splitlines()) == 50

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "circuit.txt"
        code, out, _ = run(
            capsys, "synthesize", "--preset", "path(2)", "--phi", "0.3",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 5

    @pytest.mark.parametrize("option", [["--seed", "1"], ["--max-qubits", "3"]])
    def test_takes_no_seed_or_cap(self, capsys, option):
        code, out, err = run(
            capsys, "synthesize", "--preset", "path(2)", "--phi", "0.3", *option,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")


class TestValidate:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--trials", "12", "--max-n", "5")
        assert code == 0
        assert "validation passed" in out
        assert out.count("pass") >= 6

    def test_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert "validation passed" in out

    @pytest.mark.parametrize(
        "option,message",
        [(["--trials", "0"], "trials must be positive, got 0"),
         (["--max-n", "1"], "max_n must be at least 2, got 1")],
        ids=["trials", "max-n"],
    )
    def test_bad_run_size_is_a_validation_error(self, capsys, option, message):
        code, out, err = run(capsys, "validate", *option)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_max_n_above_cap(self, capsys):
        code, _, _ = run(capsys, "validate", "--max-n", "30")
        assert code == 3


# sha256 of stdout under numpy 2.4.6 (Python 3.11.7). The exact pins were
# computed with the moveaxis-and-stack edge kernel that the transposed-view
# kernel replaced, the shots-entangle pin with the trajectory sampler that the
# one-draw-per-axis route replaced: these outputs must stay byte-identical
# across such rewrites. The two calibrated shots pins were recomputed when the
# per-neighbour trace replaced the star state vector: the last bits of a
# read-1 probability near 1/2 moved, and numpy's binomial draw reflects at
# p = 1/2, so a few rows changed under the seed contract. All three shots pins
# were recomputed, at the same command lines and seeds, when an estimate's z, x
# and y counts moved from three substreams of its seed to one generator seeded
# with it: every shots output changed under that contract. The two calibrated
# shots pins were recomputed again when a block's isometry became the phi-linear
# mix of its two endpoint runs: the x axis's read-1 probability moved by one
# ulp at 1/2, where the draw reflects, in four rows of the first and one of the
# second. The validate pin
# was recomputed for its added distance line. The mixed-mode sweep puts
# analytic and exact rows between its shots rows, so it fixes which substream
# each shots row draws from. In the shared-degree sweep spins 0, 2 and 4 have degree 1, so the
# rows of spins 2 and 4 come from the (mode, degree, phi) memo. validate runs
# only its closed-form rows on graphs past the first 30, and the trials-40 pin
# covers them. The complete(13) sweep evolves a star of degree 12 (the other
# exact pins reach degree 3); it was computed before the star's edges went
# through one call with one unitary. Another numpy
# version may move last bits or draws, so recompute the pins when numpy changes.
@pytest.mark.parametrize(
    "argv,digest",
    [
        ("validate --trials 20 --seed 3", "8304cec04b2ae1070260d914fa17a8830b2c606152f6e01b13aed58a46c6684a"),
        (
            "sweep --preset valencia --sweep 0:2pi:17 --spin 0 --spin 1 --spin 3 --mode exact --mode analytic",
            "472c8cc550b97e8cba9cb5e6909d22c7398f09831abdca2ad7926cae98f2bc99",
        ),
        (
            "sweep --preset valencia --sweep 0:2pi:9 --mode analytic --mode exact",
            "4c238ad1732b92eaac16236c78bd657112e463022dea596f48fac68272611b31",
        ),
        (
            "sweep --preset valencia --calibration {cal} --sweep 0:2pi:9 --mode shots --seed 5",
            "ed3747c1cdb175533d8e22d26e4c3465dd463f9c0f8ae037624343433c42c3bd",
        ),
        (
            "entangle --preset valencia --phi pi/3 --spin 1 --mode shots --seed 5",
            "f62c882f107a1aada621737d6c517c37f25de54bd27f2d1018e7ca1842e97e2e",
        ),
        (
            "sweep --preset valencia --calibration {cal} --sweep 0:pi:5 --spin 1 --spin 4"
            " --mode analytic --mode shots --mode exact --seed 9",
            "4a56e8741670c24946710349a353851f27099823dbc321827028db6b11c06323",
        ),
        ("validate --trials 40 --seed 5", "050077f3d82764df386c26ab91808f387e1ff409aba85e04b24dacd3f1b56926"),
        (
            "sweep --preset complete(13) --sweep 0:2pi:9 --spin 0 --mode exact",
            "45bf01c36b4fc0cdce2e36726bef6de1e14add5f77c179668a0af76420f27548",
        ),
    ],
    ids=[
        "validate", "sweep", "shared-degree-sweep", "shots-readout-sweep", "shots-entangle", "mixed-mode-sweep",
        "validate-past-30-graphs", "degree-12-exact-sweep",
    ],
)
def test_exact_output_bytes_are_pinned(capsys, argv, digest):
    cal = str(ROOT / "src/graphent/data/valencia_calibration.json")
    code, out, _ = run(capsys, *(arg.replace("{cal}", cal) for arg in argv.split()))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGraphInput:
    def test_json_file_auto_detected(self, capsys, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"n": 2, "edges": [[0, 1]]}')
        code, out, _ = run(
            capsys, "entangle", "--graph", str(p), "--phi", "pi/2", "--spin", "0",
            "--mode", "analytic",
        )
        assert code == 0
        assert json.loads(out)["entanglement"] == pytest.approx(0.5)

    def test_adjacency_auto_detected(self, capsys, tmp_path):
        p = tmp_path / "g.adj"
        p.write_text("2\n0 1\n1 0\n")
        code, out, _ = run(
            capsys, "entangle", "--graph", str(p), "--phi", "0", "--spin", "0",
        )
        assert code == 0
        assert json.loads(out)["graph"]["edges"] == [[0, 1]]

    def test_explicit_format_overrides_detection(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2\n0 1\n1 0\n")
        code, _, _ = run(
            capsys, "entangle", "--graph", str(p), "--phi", "0", "--spin", "0",
            "--format", "edge-list",
        )
        assert code == 2  # duplicate edge as an edge list

    def test_missing_file(self, capsys):
        code, _, _ = run(
            capsys, "entangle", "--graph", "/nonexistent/g.txt", "--phi", "0", "--spin", "0",
        )
        assert code == 2

    def test_malformed_graph_file(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2\n0 0\n")
        code, _, _ = run(capsys, "entangle", "--graph", str(p), "--phi", "0", "--spin", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "text,fmt",
        [
            ("1_1\n0 1\n", "edge-list"),
            ("+3\n0 1\n", "edge-list"),
            ("3\n0 ２\n", "edge-list"),
            ("2\n0_0 1\n1 0\n", "adjacency"),
            ("+2\n0 1\n1 0\n", "adjacency"),
            ("2\n0 １\n１ 0\n", "adjacency"),
        ],
        ids=[f"{kind}-{bad}" for kind in ("edge", "adj") for bad in ("underscore", "plus", "fullwidth")],
    )
    def test_integers_are_ascii_decimal(self, capsys, tmp_path, text, fmt):
        # Python's int() would read these as 11, 3, 2, 0, 2 and 1
        p = tmp_path / "g.txt"
        p.write_text(text, encoding="utf-8")
        for f in (fmt, "auto"):
            code, out, err = run(
                capsys, "entangle", "--graph", str(p), "--phi", "0", "--spin", "0", "--format", f,
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: expected integer")

    @pytest.mark.parametrize(
        "option,content",
        [
            ("--graph", '{"n": %s, "edges": [[0, 1]]}' % ("1" * 5000)),
            ("--graph", '{"n": 2, "edges": [[0, %s]]}' % ("1" * 5000)),
            ("--calibration", '{"readout_error": [%s, 0], "gate_error": [0, 0], "cx_error": {}}' % ("1" * 5000)),
            ("--calibration", '{"readout_error": [0, 0], "gate_error": [0, 0], "cx_error": {"%s-0": 0.01}}' % ("1" * 5000)),
        ],
        ids=["graph-n", "graph-endpoint", "readout-error", "cx-error-key"],
    )
    def test_integer_past_digit_limit_is_input_error(self, capsys, tmp_path, option, content):
        # int() refuses integers of more than 4300 digits with a ValueError,
        # which escaped both JSON readers as a traceback
        p = tmp_path / "input.json"
        p.write_text(content)
        source = ["--graph", str(p)] if option == "--graph" else ["--preset", "path(2)", "--calibration", str(p)]
        code, out, err = run(capsys, "entangle", *source, "--phi", "0", "--spin", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "content,key",
        [('{"n": 3, "edges": [[0, 1]], "edges": [[1, 2]]}', "edges"), ('{"n": 3, "n": 5, "edges": [[0, 1]]}', "n")],
        ids=["edges", "n"],
    )
    def test_json_graph_repeated_key(self, capsys, tmp_path, content, key):
        # json.loads alone keeps the last value, and the record answered for that graph
        p = tmp_path / "g.json"
        p.write_text(content)
        code, out, err = run(capsys, "entangle", "--graph", str(p), "--phi", "0", "--spin", "0")
        assert (code, out, err) == (2, "", f"error: JSON graph repeats the key {key!r}\n")

    @pytest.mark.parametrize(
        "option,content,message",
        [
            ("--calibration", '{"readout_error": [], "gate_error": [], "cx_error": {}}',
             "readout_error and gate_error must list the same nonzero number of qubits"),
            ("--calibration", '{"readout_error": [0.1, 0.1], "gate_error": [0.1], "cx_error": {}}',
             "readout_error and gate_error must list the same nonzero number of qubits"),
            ("--calibration", "[]", "calibration must be a JSON object"),
            ("--calibration", '{"readout_error": 0.1, "gate_error": [0.1], "cx_error": {}}',
             "readout_error and gate_error must be arrays"),
            ("--calibration", '{"readout_error": [0.1, 0.1], "gate_error": [0.1, 0.1], "cx_error": []}',
             "cx_error must be an object keyed by 'control-target'"),
            ("--graph", "3 4\n0 1\n", "first line must be the vertex count, got '3 4'"),
            ("--graph", "2\n0 %s\n" % ("1" * 5000), "expected integer vertex, got '%s'" % ("1" * 5000)),
            ("--graph", '{"n": 2}', "JSON graph must be an object with an 'edges' array"),
            ("--graph", '{"n": "2", "edges": [[0, 1]]}', "'n' must be an integer, got '2'"),
        ],
        ids=[
            "cal-no-qubits", "cal-lengths", "cal-not-object", "cal-rates-not-array", "cal-cx-not-object",
            "graph-first-line", "graph-long-token", "graph-no-edges", "graph-n-not-integer",
        ],
    )
    def test_malformed_input_file_message(self, capsys, tmp_path, option, content, message):
        p = tmp_path / "input.txt"
        p.write_text(content)
        source = ["--graph", str(p)] if option == "--graph" else ["--preset", "path(2)", "--calibration", str(p)]
        code, out, err = run(capsys, "entangle", *source, "--phi", "0", "--spin", "0")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bad_calibration_file(self, capsys, tmp_path):
        cal = tmp_path / "cal.json"
        cal.write_text("{}")
        code, _, _ = run(
            capsys, "entangle", "--preset", "path(2)", "--phi", "0", "--spin", "0",
            "--mode", "shots", "--shots", "16", "--calibration", str(cal),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{}",
            '{"readout_error": [0, 0], "gate_error": [0, 0], "cx_error": {"0-1": 0.02, "00-1": 0.9}}',
            '{"readout_error": [0, 0], "gate_error": [0, 0], "cx_error": {"0-1": 0.02, "0-1": 0.9}}',
        ],
        ids=["missing", "malformed", "same-pair", "same-key"],
    )
    @pytest.mark.parametrize("mode", ["analytic", "exact"])
    def test_calibration_checked_in_every_mode(self, capsys, tmp_path, mode, content):
        cal = tmp_path / "cal.json"
        if content is not None:
            cal.write_text(content)
        code, out, err = run(
            capsys, "entangle", "--preset", "path(2)", "--phi", "0", "--spin", "0",
            "--mode", mode, "--calibration", str(cal),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_unknown_preset(self, capsys):
        code, _, _ = run(capsys, "entangle", "--preset", "torus", "--phi", "0", "--spin", "0")
        assert code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["entangle", "--phi", "1", "--spin", "0"],
            ["sweep", "--sweep", "0:1:2"],
            ["synthesize", "--phi", "1"],
        ],
        ids=["entangle", "sweep", "synthesize"],
    )
    @pytest.mark.parametrize("option", ["--graph", "--calibration"])
    def test_undecodable_file(self, capsys, tmp_path, args, option):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"\xff\xfe3\n0 1\n")
        source = ["--graph", str(p)] if option == "--graph" else ["--preset", "valencia"]
        cal = ["--calibration", str(p)] if option == "--calibration" else []
        code, out, err = run(capsys, *args, *source, *cal)
        assert code == 2
        assert out == ""
        assert err.startswith("error: input file is not UTF-8 text: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "option,text",
        [
            ("--graph", "# valencia\n5\n0 1\n1 2\n\n1 3\n3 4\n"),
            ("--graph", '{"n": 5,\n "edges": [[0, 1], [1, 2],\n  [1, 3], [3, 4]]}\n'),
            ("--graph", "5\n0 1 0 0 0\n1 0 1 1 0\n0 1 0 0 0\n0 1 0 0 1\n0 0 0 1 0\n"),
            ("--calibration", (ROOT / "src/graphent/data/valencia_calibration.json").read_text(encoding="utf-8")),
        ],
        ids=["edge-list", "json", "adjacency", "calibration"],
    )
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_files_read_as_their_lf_copies(self, capsys, tmp_path, option, text, newline):
        # text mode's universal newlines read "\r\n" and "\r" as "\n", and so does the raw reader
        outputs = []
        for name, ending in (("lf", "\n"), ("other", newline)):
            p = tmp_path / name
            p.write_bytes(text.replace("\n", ending).encode("utf-8"))
            source = ["--graph", str(p)] if option == "--graph" else ["--preset", "valencia", "--calibration", str(p)]
            for argv in (
                ["entangle", *source, "--phi", "pi/3", "--spin", "1", "--mode", "shots", "--seed", "5"],
                ["synthesize", *source, "--phi", "pi/3"],
            ):
                outputs.append(run(capsys, *argv))
        assert outputs[0][0] == 0 and outputs[0][1]
        assert outputs[:2] == outputs[2:]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_malformed_json_graph_names_its_text_mode_offset(self, capsys, tmp_path, newline):
        # a raw read of the CRLF file would put the fault at char 34
        p = tmp_path / "g.json"
        p.write_bytes('{"n": 5,\n "edges": [[0, 1],\n [1 2]]}\n'.replace("\n", newline).encode("utf-8"))
        code, out, err = run(capsys, "entangle", "--graph", str(p), "--phi", "1", "--spin", "0")
        assert (code, out) == (2, "")
        assert err == "error: invalid JSON graph: Expecting ',' delimiter: line 3 column 5 (char 32)\n"


class TestResourceCap:
    def test_flag(self, capsys):
        code, _, _ = run(
            capsys, "entangle", "--preset", "valencia", "--phi", "0.5", "--spin", "1",
            "--max-qubits", "3",
        )
        assert code == 3

    def test_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAPHENT_MAX_QUBITS", "3")
        code, _, _ = run(
            capsys, "entangle", "--preset", "valencia", "--phi", "0.5", "--spin", "1",
        )
        assert code == 3

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize(
        "args",
        [
            ["entangle", "--preset", "valencia", "--phi", "1", "--spin", "0", "--mode", "exact"],
            ["validate", "--trials", "1"],
        ],
        ids=["entangle", "validate"],
    )
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_cap_below_one_is_usage_error(self, capsys, monkeypatch, cap, args, source):
        if source == "env":
            monkeypatch.setenv("GRAPHENT_MAX_QUBITS", cap)
        code, out, err = run(capsys, *args, *(["--max-qubits", cap] if source == "flag" else []))
        assert code == 1
        assert out == ""
        assert err == f"usage error: qubit cap must be at least 1, got {cap}\n"

    @pytest.mark.parametrize(
        "args",
        [["entangle", "--preset", "valencia", "--phi", "1", "--spin", "1"], ["validate", "--trials", "1"]],
        ids=["entangle", "validate"],
    )
    def test_non_integer_env_cap_is_usage_error(self, capsys, monkeypatch, args):
        monkeypatch.setenv("GRAPHENT_MAX_QUBITS", "abc")
        code, out, err = run(capsys, *args)
        assert code == 1
        assert out == ""
        assert err == "usage error: GRAPHENT_MAX_QUBITS='abc' is not an integer\n"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAPHENT_MAX_QUBITS", "3")
        code, _, _ = run(
            capsys, "entangle", "--preset", "valencia", "--phi", "0.5", "--spin", "0",
            "--max-qubits", "8",
        )
        assert code == 0

    # each route's allocation: the exact light cone's init_zero (looked up on
    # statevector at each call), the shots route's generator (it builds no
    # state), and validate's init_zero of each batch of rows
    @pytest.mark.parametrize(
        "module,allocator,args",
        [
            (statevector, "init_zero", ["entangle", "--phi", "0.5", "--spin", "1", "--mode", "exact", "--preset", "valencia"]),
            (sampling.np.random, "default_rng", ["entangle", "--phi", "0.5", "--spin", "1", "--mode", "shots", "--preset", "valencia"]),
            (sampling.np.random, "default_rng", ["sweep", "--sweep", "0:1:2", "--mode", "shots", "--preset", "valencia"]),
            (validation, "init_zero", ["validate", "--trials", "2"]),
        ],
        ids=["entanglement-entangle", "sampling-entangle", "sampling-sweep", "validation-validate"],
    )
    def test_out_of_memory_is_classified(self, capsys, monkeypatch, module, allocator, args):
        def exhausted(*_, **__):
            raise MemoryError("Unable to allocate 256 MiB")

        monkeypatch.setattr(module, allocator, exhausted)
        code, out, err = run(capsys, *args)
        assert code == 3
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 256 MiB\n"


    @pytest.mark.parametrize("name", ["complete(448)", "ring(100001)", "path:100002", "complete(100000)"])
    def test_oversized_preset_exits_3(self, capsys, name):
        # refused before any edge is built, so complete(100000) costs nothing
        code, out, err = run(capsys, "entangle", "--preset", name, "--phi", "1", "--spin", "0", "--mode", "analytic")
        assert (code, out) == (3, "")
        kind, size = name.replace(":", "(").rstrip(")").split("(")
        assert err == f"error: {kind} graph of size {size} has more than the preset cap of 100000 edges\n"


class TestInternalError:
    """Exit 4: a broken kernel, put in by monkeypatching, is reported and prints no result."""

    @staticmethod
    def _edge_kernel(monkeypatch, broken):
        dense = statevector._apply_two_qubit_dense
        monkeypatch.setattr(statevector, "_apply_two_qubit_dense", lambda amps, qa, qb, u: broken(dense, amps, qa, qb, u))

    @pytest.mark.parametrize(
        "args",
        [["entangle", "--preset", "valencia", "--phi", "1", "--spin", "1", "--mode", "exact"], ["validate", "--trials", "2"]],
        ids=["entangle-exact", "validate"],
    )
    def test_norm_drift_exits_4(self, capsys, monkeypatch, args):
        def drifting(dense, amps, qa, qb, u):
            dense(amps, qa, qb, u)
            amps *= 1.001

        self._edge_kernel(monkeypatch, drifting)
        code, out, err = run(capsys, *args)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: state norm drifted by ")
        assert err.count("\n") == 1

    def test_shots_trace_drift_exits_4(self, capsys, monkeypatch):
        # endpoint isometries scaled by 1.001: no gate runs in an estimate, so
        # only the trace check of spin l's state can see it
        scaled = {
            on_l: tuple(tuple(tuple(1.001 * w for w in row) for row in v) for v in endpoints)
            for on_l, endpoints in sampling._BLOCK_ENDPOINTS.items()
        }
        monkeypatch.setattr(sampling, "_BLOCK_ENDPOINTS", scaled)
        code, out, err = run(capsys, "entangle", "--preset", "valencia", "--phi", "1", "--spin", "1", "--mode", "shots")
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: spin state trace drifted by ")
        assert err.count("\n") == 1

    def test_failed_property_exits_4(self, capsys, monkeypatch):
        # each edge applied twice: a unitary at 2 phi, so the norm holds but the closed form fails
        def doubled(dense, amps, qa, qb, u):
            dense(amps, qa, qb, u)
            dense(amps, qa, qb, u)

        self._edge_kernel(monkeypatch, doubled)
        code, out, err = run(capsys, "validate", "--trials", "2")
        assert code == 4
        assert err == ""
        assert out.startswith("validation: trials=2 max_n=6 seed=7\nFAIL  closed form vs exact entanglement")
        assert out.endswith("\nvalidation FAILED\n")


class TestShotCount:
    @pytest.mark.parametrize("shots", ["0", "-5"])
    @pytest.mark.parametrize("mode", METHODS)
    @pytest.mark.parametrize(
        "args",
        [["entangle", "--phi", "1", "--spin", "0"], ["sweep", "--sweep", "0:1:2"]],
        ids=["entangle", "sweep"],
    )
    def test_non_positive_is_rejected_in_every_mode(self, capsys, args, mode, shots):
        code, out, err = run(
            capsys, *args, "--preset", "valencia", "--mode", mode, "--shots", shots
        )
        assert code == 2
        assert out == ""
        assert err == f"error: shot count must be positive, got {shots}\n"

    @pytest.mark.parametrize("mode", METHODS)
    @pytest.mark.parametrize(
        "args",
        [["entangle", "--phi", "1", "--spin", "1"], ["sweep", "--sweep", "0:1:2"]],
        ids=["entangle", "sweep"],
    )
    def test_beyond_int64_is_rejected_in_every_mode(self, capsys, args, mode):
        code, out, err = run(
            capsys, *args, "--preset", "valencia", "--mode", mode, "--shots", str(2**63)
        )
        assert (code, out) == (2, "")
        assert err == f"error: shot count must be below 2**63, got {2**63}\n"

    def test_largest_count_is_estimated(self, capsys):
        code, out, _ = run(
            capsys, "entangle", "--preset", "valencia", "--phi", "1", "--spin", "1",
            "--mode", "shots", "--shots", str(2**63 - 1),
            "--calibration", str(ROOT / "src/graphent/data/valencia_calibration.json"),
        )
        assert code == 0
        record = json.loads(out)
        assert record["shots"] == 2**63 - 1
        # spin 1's readout error is 2.92e-2; sigma is about 1e-10 at this count
        expected_z = math.cos(1.0) ** 3 * (1 - 2 * 2.92e-2)
        assert abs(record["bloch"][2] - expected_z) < 1e-8


ENTRY_POINTS = (
    [["entangle", "--preset", "valencia", "--phi", "1", "--spin", "0", "--mode", m] for m in METHODS]
    + [["sweep", "--preset", "valencia", "--sweep", "0:1:2", "--mode", m] for m in METHODS]
    + [["validate"]]
)
ENTRY_IDS = [f"{args[0]}-{args[-1]}" for args in ENTRY_POINTS[:-1]] + ["validate"]


class TestSeed:
    @pytest.mark.parametrize("args", ENTRY_POINTS, ids=ENTRY_IDS)
    def test_negative_is_usage_error(self, capsys, args):
        code, out, err = run(capsys, *args, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "usage error: seed must be non-negative, got -1\n"


@settings(max_examples=60)
@given(
    entry=st.sampled_from(ENTRY_POINTS),
    seed=st.integers(-3, 5),
    shots=st.one_of(st.integers(-2, 256), st.integers(-2, 2**66)),
    cap=st.integers(-1, 8),
    trials=st.integers(-1, 2),
    max_n=st.integers(-1, 4),
)
def test_main_returns_a_classified_exit_code(entry, seed, shots, cap, trials, max_n):
    argv = entry + ["--seed", str(seed), "--max-qubits", str(cap)]
    if entry[0] == "validate":
        argv += ["--trials", str(trials), "--max-n", str(max_n)]
    else:
        argv += ["--shots", str(shots)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}


class TestUsageErrors:
    def test_missing_graph_source(self, capsys):
        code, _, _ = run(capsys, "entangle", "--phi", "0", "--spin", "0")
        assert code == 1

    @pytest.mark.parametrize("form", ["ring({})", "ring:{}"])
    def test_preset_size_past_the_digit_limit(self, capsys, form):
        # was an uncaught ValueError traceback from int()
        code, out, err = run(
            capsys, "entangle", "--preset", form.format("9" * 5000), "--phi", "1", "--spin", "0", "--mode", "analytic",
        )
        assert (code, out, err) == (1, "", "usage error: ring graph size has 5000 digits, more than int() converts\n")

    def test_bad_phi_expression(self, capsys):
        code, _, _ = run(
            capsys, "entangle", "--preset", "path(2)", "--phi", "tau", "--spin", "0",
        )
        assert code == 1

    def test_unknown_mode(self, capsys):
        code, _, _ = run(
            capsys, "entangle", "--preset", "path(2)", "--phi", "0", "--spin", "0",
            "--mode", "magic",
        )
        assert code == 1


VALENCIA = ["--preset", "valencia"]


class TestParsing:
    """What a command line parses to; ``main`` parses a named command with its own parser only."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'entangle', 'sweep', 'synthesize', 'validate')"),
            (["entangle"], "the following arguments are required: --phi, --spin"),
            (["entangle", *VALENCIA, "--phi", "0", "--spin", "1", "--bogus"], "unrecognized arguments: --bogus"),
            (["entangle", *VALENCIA, "--phi", "0", "--s", "1"], "ambiguous option: --s could match --spin, --shots, --seed"),
            (["entangle", "--graph", "g.txt", *VALENCIA, "--phi", "0", "--spin", "1"], "argument --preset: not allowed with argument --graph"),
            (["--preset", "valencia", "entangle", "--phi", "0", "--spin", "1"], "argument command: invalid choice: 'valencia' (choose from 'entangle', 'sweep', 'synthesize', 'validate')"),
            (["--", "entangle"], "argument command: invalid choice: '--' (choose from 'entangle', 'sweep', 'synthesize', 'validate')"),
            (["synthesize", *VALENCIA, "--phi", "0", "--seed", "3"], "unrecognized arguments: --seed 3"),
            (["sweep", *VALENCIA, "--sweep", "0:1:2", "--", "x"], "unrecognized arguments: -- x"),
            (["validate", "--trials", "1", "extra"], "unrecognized arguments: extra"),
            (["entangle", *VALENCIA, "--phi", "--spin", "1"], "argument --phi: expected one argument"),
            (["entangle", *VALENCIA, "--phi", "-x", "--spin", "1"], "argument --phi: expected one argument"),
            (["entangle", *VALENCIA, "--phi", "0", "--spin", "1", "-x"], "unrecognized arguments: -x"),
        ],
    )
    def test_usage_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"usage error: {message}\n")

    @pytest.mark.parametrize(
        "line",
        [
            "entangle --preset valencia --phi=-0.5pi --spin 1",
            "entangle --preset valencia --phi=-pi/2 --spin 1 --mode shots",
            "sweep --preset valencia --sweep=-1:1:3",
            "synthesize --preset valencia --phi=-pi/4",
        ],
    )
    def test_negative_angle_as_its_own_token(self, capsys, line):
        # a value that starts with '-' parses as one, not as an option
        expected = run(capsys, *line.split())
        assert expected[0] == 0
        assert run(capsys, *line.replace("=", " ").split()) == expected

    def test_abbreviated_options(self, capsys):
        code, out, err = run(capsys, "entangle", *VALENCIA, "--phi=pi/4", "--sp", "1", "--sh", "10")
        assert (code, err) == (0, "")
        assert out == run(capsys, "entangle", *VALENCIA, "--phi", "pi/4", "--spin", "1", "--shots", "10")[1]

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["entangle", "-h"], ["sweep", "--he"], ["validate", "-h"]])
    def test_help_exits_zero_with_the_two_pass_text(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._build_parser()[0].parse_args(argv)
        assert capsys.readouterr().out == text
        prog = "graphent" if argv[0].startswith("-") else f"graphent {argv[0]}"
        assert text.startswith(f"usage: {prog} [-h]")

    def test_main_reads_sys_argv_by_default(self, capsys, monkeypatch):
        argv = ["entangle", *VALENCIA, "--phi", "pi/4", "--spin", "1"]
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["graphent", *argv])
        assert main() == 0
        assert capsys.readouterr().out == expected[1]
        monkeypatch.setattr(sys, "argv", ["graphent"])
        assert main() == 1
        assert capsys.readouterr().err == "usage error: the following arguments are required: command\n"


def _parse_outcome(parse, argv):
    """``parse(argv)``'s Namespace, usage-error message, or help exit with its text."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "parsed", vars(parse(argv))
    except UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


_OPTION_TOKENS = [
    "--graph", "--preset", "--format", "--calibration", "--phi", "--spin", "--mode", "--shots",
    "--seed", "--max-qubits", "--sweep", "--out", "--max-n", "--trials",
    "--s", "--sp", "--sh", "--ma", "--max", "--pr", "--phi=pi/4", "--spin=2", "--bogus",
    "-h", "--he", "--", "-",
]
_VALUE_TOKENS = [
    "valencia", "path(3)", "g.txt", "auto", "json", "0", "1", "-1", "1.5", "pi/4", "-0.5pi", "-pi/2", "tau",
    "0:1:3", "1:0:3", "exact", "shots", "magic", "entangle", "sweep", "x",
]


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["entangle", "sweep", "synthesize", "validate", "bogus", "--preset", "-h"]),
    rest=st.lists(st.sampled_from(_OPTION_TOKENS + _VALUE_TOKENS), max_size=12),
)
def test_one_pass_parse_equals_the_two_pass_parse(command, rest):
    argv = [command, *rest]
    with contextlib.redirect_stderr(io.StringIO()):
        one_pass = _parse_outcome(cli._parse_args, argv)
        two_pass = _parse_outcome(cli._build_parser()[0].parse_args, argv)
    assert one_pass == two_pass


class TestReadmeRecipes:
    def test_section_lists_the_four_recipes(self):
        assert len(readme_recipes()) == 4

    @pytest.mark.parametrize("recipe", readme_recipes())
    def test_recipe_runs(self, capsys, monkeypatch, recipe):
        monkeypatch.chdir(ROOT)
        argv = shlex.split(recipe)
        assert argv[0] == "graphent"
        code, out, _ = run(capsys, *argv[1:])
        assert code == 0
        rows = rows_of(out)
        assert rows
        by_point = {}
        for row in rows:
            by_point.setdefault((row["phi"], row["spin"]), {})[row["mode"]] = float(
                row["entanglement"]
            )
        modes = {argv[i + 1] for i, arg in enumerate(argv) if arg == "--mode"}
        if {"analytic", "exact"} <= modes:
            worst = max(abs(v["analytic"] - v["exact"]) for v in by_point.values())
            assert worst <= 1e-10


def _python(code, *argv):
    """(exit code, stdout, stderr) of a fresh interpreter running ``code`` with ``argv``, importing graphent from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


_MAIN = "import sys; from graphent.cli import main; sys.exit(main(sys.argv[1:]))"
# a None entry makes every later import of that module raise ImportError;
# dataclasses (with inspect) cost more than the rest of `import graphent.cli`,
# typing is needed only by type checkers, and the input checkers tell numbers
# apart without decimal, numbers or fractions
_NO_NUMPY = (
    "import sys; sys.modules['numpy'] = sys.modules['dataclasses'] = sys.modules['typing'] = None; "
    "sys.modules['decimal'] = sys.modules['numbers'] = sys.modules['fractions'] = None; "
)


class TestNumpyFree:
    """The commands that simulate nothing run, byte for byte, in an interpreter that cannot import numpy, dataclasses,
    typing, decimal, numbers or fractions."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["sweep", *VALENCIA, "--sweep", "0:2pi:64"], 0),
            (["entangle", *VALENCIA, "--phi", "pi/4", "--spin", "1", "--mode", "analytic"], 0),
            (["synthesize", *VALENCIA, "--phi", "pi/4"], 0),
            (["synthesize", *VALENCIA, "--phi", "pi/4", "--calibration", str(ROOT / "src/graphent/data/valencia_calibration.json")], 0),
            (["--help"], 0),
            (["entangle", *VALENCIA, "--phi", "1", "--spin", "9"], 2),
            ([], 1),
        ],
        ids=["sweep-analytic", "entangle-analytic", "synthesize", "synthesize-calibrated", "help", "bad-spin", "no-arguments"],
    )
    def test_same_bytes_and_exit_code_without_numpy(self, argv, code):
        blocked = _python(_NO_NUMPY + _MAIN, *argv)
        assert blocked == _python(_MAIN, *argv)
        assert blocked[0] == code
        assert blocked[1 if code == 0 else 2]  # the result, or the error, was written

    def test_importing_the_package_and_cli_leaves_numpy_unloaded(self):
        loaded = "import sys, graphent, graphent.cli; print(*sorted({'numpy', 'dataclasses'} & set(sys.modules)))"
        assert _python(loaded) == (0, b"\n", b"")

    def test_numpy_backed_modules_are_package_attributes(self):
        # a fresh interpreter, where no test has imported the modules yet
        code = (
            "import graphent; names = ('statevector', 'sampling', 'validation'); "
            "assert all(n in dir(graphent) for n in names); "
            "print(*(getattr(graphent, n).__name__ for n in names), graphent.sampling.derive_seed(7, 0))"
        )
        expected = f"graphent.statevector graphent.sampling graphent.validation {sampling.derive_seed(7, 0)}\n"
        assert _python(code) == (0, expected.encode(), b"")

    def test_every_exported_name_resolves_and_is_listed(self):
        listing = dir(graphent)
        for name in graphent.__all__:
            assert getattr(graphent, name) is not None
            assert name in listing
        assert graphent.init_zero is statevector.init_zero
        assert graphent.run_validation is validation.run_validation
        with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
            graphent.nosuch
