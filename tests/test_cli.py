"""Command-line interface tests: CSV parsing, report envelopes, exit codes.

Everything runs in-process through main(argv) so coverage tools and
monkeypatching work, except the tests of piped input and stdout bytes, which
start the CLI in a fresh interpreter; reports are validated against the
published JSON schema and checked for byte-identical output modulo the
wall_time_s field.
"""

import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from lasso_audit import (
    ConeSpec,
    GramMatrix,
    InvalidParameter,
    ParseError,
    check_all,
)
from lasso_audit.cli import (
    RunConfig,
    build_parser,
    load_matrix_csv,
    load_vector_csv,
    main,
    parse_float_list,
    parse_index_list,
    save_matrix_csv,
)
from lasso_audit.experiments import random_psd_entries
from lasso_audit.solvers import DEFAULT_CONFIG

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report.schema.json").read_text())


def write_csv(path, matrix):
    save_matrix_csv(str(path), np.asarray(matrix, dtype=float))
    return str(path)


def read_report(path):
    report = json.loads(Path(path).read_text())
    jsonschema.validate(report, SCHEMA, cls=jsonschema.Draft7Validator)
    return report


class TestCsvRoundTrip:
    def test_matrix_round_trips_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((4, 5)) * np.array([1e-12, 1e-3, 1.0, 1e4, 1e12])
        path = write_csv(tmp_path / "m.csv", mat)
        np.testing.assert_array_equal(load_matrix_csv(path), mat)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix_csv(str(path))

    def test_bad_cell_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match=r"not a number.*line 2, column 2"):
            load_matrix_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_matrix_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_matrix_csv(str(tmp_path / "nope.csv"))

    def test_vector_accepts_row_or_column(self, tmp_path):
        row = write_csv(tmp_path / "row.csv", [[1.0, 2.0, 3.0]])
        col = write_csv(tmp_path / "col.csv", [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(load_vector_csv(row), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(load_vector_csv(col), [1.0, 2.0, 3.0])
        sq = write_csv(tmp_path / "sq.csv", np.eye(2))
        with pytest.raises(ParseError, match="expected a vector"):
            load_vector_csv(sq)

    def test_invalid_utf8_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(ParseError, match=r"is not UTF-8 text \(byte 6\)"):
            load_matrix_csv(str(path))
        assert main(["analyze", "--gram", str(path), "--S", "0"]) == 1
        assert capsys.readouterr().err == (
            f"error: ParseError: {path} is not UTF-8 text (byte 6)\n")

    def test_rows_written_as_one_format_each_match_the_per_entry_form(self, tmp_path):
        rng = np.random.default_rng(29)
        special = [0.0, -0.0, 5e-324, -2.5e-310, np.nan, np.inf, -np.inf, 1e308, 0.1]
        mats = [rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-300, 300, (7, 4)),
                np.array(special).reshape(3, 3), np.array(special), np.array([[-0.0]]),
                rng.standard_normal((5, 1))]
        for mat in mats:
            arr = np.atleast_2d(mat)
            want = "\n".join(",".join("%.17g" % v for v in row) for row in arr) + "\n"
            path = tmp_path / "m.csv"
            save_matrix_csv(str(path), mat)
            assert path.read_bytes() == want.encode()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv, **kwargs):
    """lasso-audit argv in a fresh interpreter, BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "lasso_audit.cli"] + argv, env=env,
                          capture_output=True, timeout=300, **kwargs)


def traced_peak(fn):
    """fn()'s peak traced allocation in bytes; numpy's buffers are traced."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvStreaming:
    """The writer holds one row's text and the reader never the file's
    bytes; what is written and parsed stays byte for byte the same."""

    P = 400

    @pytest.fixture
    def square(self, tmp_path):
        mat = np.random.default_rng(0).standard_normal((self.P, self.P))
        return mat, str(tmp_path / "m.csv")

    def test_save_peaks_at_a_small_fraction_of_the_text(self, square):
        mat, path = square
        save_matrix_csv(path, mat[:2])  # first-call caches
        peak = traced_peak(lambda: save_matrix_csv(path, mat))
        # measured 1.2% of the 3.2 MB text; the joined text took 3.0 times it
        assert peak < os.path.getsize(path) / 20

    def test_load_peaks_below_the_file_size(self, square):
        mat, path = square
        save_matrix_csv(path, mat)
        load_matrix_csv(path)  # first-call caches
        peak = traced_peak(lambda: load_matrix_csv(path))
        # measured 0.51 of the file (the 1.28 MB array and loadtxt's growth);
        # reading the whole file first took 2.0 times it
        assert peak < 0.65 * os.path.getsize(path)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (0,), (1, 0)])
    def test_a_matrix_without_cells_is_one_newline(self, shape, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(str(path), np.zeros(shape))
        assert path.read_bytes() == b"\n"

    def test_a_file_object_gets_the_bytes_of_the_file_form(self, tmp_path):
        rng = np.random.default_rng(31)
        special = [0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf, 1e308, 0.1, -2.5e-310]
        mats = [rng.standard_normal((9, 5)) * 10.0 ** rng.integers(-300, 300, (9, 5)),
                np.array(special).reshape(3, 3), np.array(special), np.zeros((0, 4)),
                random_psd_entries(30, 2)]
        for mat in mats:
            path = tmp_path / "m.csv"
            save_matrix_csv(str(path), mat)
            buffer = io.StringIO()
            save_matrix_csv(buffer, mat)
            assert buffer.getvalue().encode("utf-8") == path.read_bytes()

    def test_generate_to_stdout_writes_the_bytes_of_the_out_file(self, tmp_path):
        argv = ["generate", "--kind", "random_psd", "--p", "60", "--seed", "7",
                "--jitter", "0.1"]
        out = tmp_path / "g.csv"
        assert run_cli(argv + ["--out", str(out)]).returncode == 0
        piped = run_cli(argv)
        assert piped.returncode == 0 and piped.stderr == b""
        assert piped.stdout == out.read_bytes()
        assert out.read_bytes().count(b"\n") == 60


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
class TestPipedInput:
    """--gram /dev/stdin reads a pipe, which cannot seek, as well as a
    redirected file, which can."""

    def test_analyze_from_a_pipe_matches_the_file_report(self, tmp_path):
        gram = write_csv(tmp_path / "g.csv", random_psd_entries(6, 4, 0.1))
        argv = ["analyze", "--S", "0,1", "--N", "3"]
        piped = run_cli(argv + ["--gram", "/dev/stdin"],
                        input=Path(gram).read_bytes())
        with open(gram, "rb") as fh:
            redirected = run_cli(argv + ["--gram", "/dev/stdin"], stdin=fh)
        out = tmp_path / "report.json"
        assert main(argv + ["--gram", gram, "--out", str(out)]) == 0
        reports = []
        for done in (piped, redirected):
            assert done.returncode == 0, done.stderr
            reports.append(json.loads(done.stdout))
        reports.append(read_report(out))
        for report in reports:
            del report["meta"]["wall_time_s"]
        assert reports[0] == reports[1]
        # the file report names its input and output paths
        piped_config, file_config = reports[0]["meta"]["config"], reports[2]["meta"]["config"]
        assert (piped_config.pop("gram_path"), piped_config.pop("out")) == ("/dev/stdin", None)
        assert (file_config.pop("gram_path"), file_config.pop("out")) == (gram, str(out))
        assert reports[0] == reports[2]

    def test_a_malformed_pipe_names_the_cell(self):
        done = run_cli(["analyze", "--gram", "/dev/stdin", "--S", "0"],
                       input=b"1,0\n0,x\n")
        assert done.returncode == 1
        assert done.stderr == b"error: ParseError: not a number: 'x' (line 2, column 2)\n"


def _loop_load_matrix_csv(path):
    """The per-cell reader load_matrix_csv falls back to, as a reference:
    every file it accepts, every value and every message must agree."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    rows = []
    width = None
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"row has {len(cells)} fields, expected {width}", lineno, len(cells)
            )
        row = []
        for colno, cell in enumerate(cells, start=1):
            try:
                row.append(float(cell))
            except ValueError:
                raise ParseError(f"not a number: {cell.strip()!r}", lineno, colno) from None
        rows.append(row)
    if not rows:
        raise ParseError(f"{path} contains no data rows")
    return np.asarray(rows, dtype=float)


# the bytes the fast path accepts, then characters that split lines or pass
# float() in one reader and not the other
_FAST_ALPHABET = list("0123456789eE+-.,nNaAiIfFtTyY \t\r\n")
_HOSTILE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029",
            "1_0", "\uff11", "\ufeff", "\n \n", "\n\t\n"]
_WORDS = ["nan", "NaN", "-inf", "Infinity", "+nan", "1e999", "-0", "1.5e-3", "4.9e-324",
          "1e", "--1", ".", ",", "\r\n"]


def _fuzz_cell(rng):
    if rng.random() < 0.6:
        value = rng.choice([rng.uniform(-1e3, 1e3), rng.random() * 10.0 ** rng.randint(-320, 308),
                            0.0, -0.0])
        return rng.choice(["%.17g", "%r", "%e", "%.3f", "%E"]) % value
    return rng.choice(["nan", "-inf", "inf", "NaN", "+Infinity", "-2.", ".5", "1E+5"])


def _fuzz_text(rng):
    """A matrix-shaped text with up to two edits, or a short random string."""
    if rng.random() < 0.3:
        return "".join(rng.choice(_FAST_ALPHABET + _HOSTILE + _WORDS)
                       for _ in range(rng.randint(0, 12)))
    cols = rng.randint(1, 4)
    lines = []
    for _ in range(rng.randint(0, 4)):
        lines.append(",".join(rng.choice(["", " ", "\t"]) + _fuzz_cell(rng)
                              + rng.choice(["", " ", "\t"]) for _ in range(cols)))
        if rng.random() < 0.2:
            lines.append(rng.choice(["", " ", "\t ", "\r"]))
    text = rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["", "\n", "\r\n", "\n\n"])
    for _ in range(rng.choice([0, 0, 1, 2])):
        pos = rng.randint(0, len(text))
        if text and rng.random() < 0.5:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + rng.choice(_FAST_ALPHABET + _HOSTILE + _WORDS) + text[pos:]
    return text


class TestCsvFastPath:
    """load_matrix_csv hands files of digits, signs, exponents, nan/inf
    spellings, commas and whitespace to np.loadtxt; its results must be
    exactly the per-cell loop's."""

    @staticmethod
    def outcome(load, path):
        try:
            arr = load(path)
        except ParseError as exc:
            return "error", str(exc)
        return "array", arr.shape, arr.dtype.str, arr.flags.c_contiguous, arr.tobytes()

    def assert_same(self, path):
        got = self.outcome(load_matrix_csv, path)
        assert got == self.outcome(_loop_load_matrix_csv, path)
        return got[0]

    @pytest.mark.parametrize("text", [
        "", "\n\n", "   \n\t\n", "1,2\n \n3,4\n", "1\x0b,2\n", "1\x1f,2\n", "1\x0c2\n",
        "1\u20282\n", "1_0,2\n", "\uff11,2\n", "\ufeff1,2\n", "1\r2\r", "1,,2\n", "1,2\n3\n",
        " 1 , 2 \n", "nan,-inf\r\n+Infinity,-0\n", "5", "1\n2\n3",
    ])
    def test_edge_cases_agree(self, text, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8", newline="")
        self.assert_same(str(path))

    def test_seeded_fuzz_agrees(self, tmp_path, monkeypatch):
        import random

        fast = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            arr = loadtxt(*args, **kwargs)
            fast.append(arr.size > 0)
            return arr

        monkeypatch.setattr(np, "loadtxt", counted)
        rng = random.Random(20)
        path = str(tmp_path / "m.csv")
        kinds = []
        for _ in range(20_000):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(_fuzz_text(rng))
            kinds.append(self.assert_same(path))
        assert kinds.count("array") > 5_000 and kinds.count("error") > 5_000
        assert sum(fast) > 3_000  # files the fast path answered

    def test_fast_path_reads_a_plain_matrix(self, tmp_path, monkeypatch):
        mat = np.random.default_rng(5).standard_normal((30, 20))
        path = write_csv(tmp_path / "m.csv", mat)
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        assert load_matrix_csv(path).tobytes() == mat.tobytes()
        assert calls == [1]


class TestArgParsing:
    def test_index_list_sorts_and_dedupes(self):
        assert parse_index_list("2,0,1,2") == (0, 1, 2)

    def test_index_list_rejects_junk(self):
        with pytest.raises(InvalidParameter):
            parse_index_list("1,two")
        with pytest.raises(InvalidParameter):
            parse_index_list("")
        with pytest.raises(InvalidParameter):
            parse_index_list("-1,2")

    def test_float_list(self):
        assert parse_float_list("1,2.5,4") == (1.0, 2.5, 4.0)
        with pytest.raises(InvalidParameter):
            parse_float_list("a,b")


class TestAnalyze:
    def test_identity_report_validates_and_has_unit_compatibility(self, tmp_path):
        gram = write_csv(tmp_path / "g.csv", np.eye(6))
        out = tmp_path / "report.json"
        rc = main(["analyze", "--gram", gram, "--S", "0,1", "--L", "3",
                   "--N", "3", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["meta"]["tool"] == "lasso-audit"
        assert report["meta"]["command"] == "analyze"
        entries = report["result"]["entries"]
        assert entries["phi_compat"]["estimate"] == pytest.approx(1.0, abs=1e-9)
        assert entries["lambda2"]["estimate"] == pytest.approx(1.0, abs=1e-12)
        assert entries["irr_part2"]["estimate"] == 1.0
        assert report["result"]["errors"] == {}

    def test_requires_gram_and_support(self, tmp_path, capsys):
        rc = main(["analyze", "--S", "0,1"])
        assert rc == 1
        assert "requires --gram" in capsys.readouterr().err
        gram = write_csv(tmp_path / "g.csv", np.eye(3))
        rc = main(["analyze", "--gram", gram])
        assert rc == 1
        assert "nonempty --S" in capsys.readouterr().err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["analyze", "--gram", str(tmp_path / "nope.csv"), "--S", "0"])
        assert rc == 1
        assert "error: ParseError" in capsys.readouterr().err

    def test_indefinite_gram_is_a_clean_error(self, tmp_path, capsys):
        q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((10, 10)))
        m = (q * np.r_[np.ones(9), -0.05]) @ q.T
        gram = write_csv(tmp_path / "g.csv", (m + m.T) / 2.0)
        rc = main(["analyze", "--gram", gram, "--S", "0,1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: InvalidParameter: Gram matrix is not PSD" in err
        assert "Traceback" not in err

    def test_byte_identical_modulo_wall_time(self, tmp_path):
        gram = write_csv(tmp_path / "g.csv", np.eye(5))
        out = tmp_path / "report.json"
        argv = ["analyze", "--gram", gram, "--S", "0,1", "--N", "2",
                "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_text().splitlines()
        assert main(argv) == 0
        second = out.read_text().splitlines()
        kept_a = [l for l in first if "wall_time_s" not in l]
        kept_b = [l for l in second if "wall_time_s" not in l]
        assert kept_a == kept_b
        assert len(kept_a) == len(first) - 1

    def test_compatibility_routes_are_found_once(self, monkeypatch):
        import lasso_audit.cli as cli
        from lasso_audit import estimators

        original = estimators.lower_phi_routes
        targets = []

        def counted(gram, cone, target="compatibility", *args, **kwargs):
            targets.append(target)
            return original(gram, cone, target, *args, **kwargs)

        monkeypatch.setattr(estimators, "lower_phi_routes", counted)
        monkeypatch.setattr(cli, "lower_phi_routes", counted)
        entries = random_psd_entries(8, 3, 0.1)
        cone = ConeSpec((1, 4), 1.0, 4)
        report = cli.condition_report(GramMatrix(entries), cone, DEFAULT_CONFIG, 200_000, 2 ** 20)
        assert targets.count("compatibility") == 1
        monkeypatch.undo()
        direct = estimators.certified_lower_phi(GramMatrix(entries), cone, "compatibility",
                                                "plain", 200_000)
        assert report.entries["phi_lower_routes"] == direct
        assert len(report.witnesses["phi_lower_routes"]) > 1


class TestGenerate:
    def test_equicorrelation_then_analyze(self, tmp_path):
        mat = tmp_path / "eq.csv"
        rc = main(["generate", "--kind", "equicorrelation", "--p", "6",
                   "--rho", "0.5", "--out", str(mat)])
        assert rc == 0
        np.testing.assert_allclose(load_matrix_csv(str(mat)),
                                   0.5 * np.eye(6) + 0.5, atol=0)
        out = tmp_path / "report.json"
        rc = main(["analyze", "--gram", str(mat), "--S", "0,1", "--N", "3",
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["result"]["entries"]["lambda2"]["estimate"] == pytest.approx(0.5)

    def test_stdout_output_and_determinism(self, capsys):
        argv = ["generate", "--kind", "gaussian_design", "--n", "12", "--p", "3",
                "--seed", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        rows = [line.split(",") for line in first.strip().splitlines()]
        assert len(rows) == 12 and all(len(r) == 3 for r in rows)

    def test_unknown_kind(self, capsys):
        rc = main(["generate", "--kind", "wishart", "--p", "4"])
        assert rc == 1
        assert "unknown generator kind" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, unread", [
        (["--kind", "identity", "--p", "2", "--rho", "0.5"], "rho"),
        (["--kind", "equicorrelation", "--p", "4", "--rho", "0.5", "--s", "2"], "s"),
        (["--kind", "toeplitz_geometric", "--p", "4", "--rho", "0.5", "--block-size", "2"],
         "block_size"),
        (["--kind", "random_psd", "--p", "4", "--n", "10"], "n"),
    ])
    def test_flag_the_kind_never_reads_is_refused(self, argv, unread, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["generate"] + argv + ["--out", str(out)]) == 1
        kind = argv[1]
        assert f"generator kind '{kind}' takes no parameter '{unread}'" in capsys.readouterr().err
        assert not out.exists()


class TestLassoCommand:
    def test_noiseless_identity_soft_threshold(self, tmp_path):
        gram = write_csv(tmp_path / "g.csv", np.eye(4))
        out = tmp_path / "report.json"
        rc = main(["lasso", "--gram", gram, "--S", "0,1", "--lambda", "0.5",
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        sol = report["result"]["solution"]
        np.testing.assert_allclose(sol["beta_star"], [0.75, 0.75, 0.0, 0.0],
                                   atol=1e-9)
        assert sol["active_set"] == [0, 1]
        verdict = report["result"]["verdict"]
        assert verdict["holds"] is True
        assert verdict["l1_holds"] is True

    @pytest.mark.parametrize("scale", [1e-155, 1e-200, 1e-300])
    def test_underflowing_phi_2s_square_gives_an_infinite_l2_bound(self, tmp_path, scale):
        # phi^2(S, 2s) is about scale; from 1e-200 down its square is 0
        gram = write_csv(tmp_path / "g.csv", scale * np.eye(4))
        out = tmp_path / "report.json"
        assert main(["lasso", "--gram", gram, "--S", "0", "--lambda", "0.1",
                     "--out", str(out)]) == 0
        verdict = read_report(out)["result"]["verdict"]
        assert verdict["l2_bound"] is None
        assert verdict["l2_holds"] is True

    def test_requires_lambda(self, tmp_path, capsys):
        gram = write_csv(tmp_path / "g.csv", np.eye(3))
        rc = main(["lasso", "--gram", gram, "--S", "0"])
        assert rc == 1
        assert "requires --lambda" in capsys.readouterr().err

    def test_noisy_design_bound_holds(self, tmp_path):
        rng = np.random.default_rng(0)
        n, p = 60, 4
        x = rng.standard_normal((n, p))
        x /= np.sqrt(np.mean(x * x, axis=0))
        beta0 = np.array([1.0, -1.0, 0.0, 0.0])
        eps = 0.1 * rng.standard_normal(n)
        y = x @ beta0 + eps
        design = write_csv(tmp_path / "x.csv", x)
        ypath = write_csv(tmp_path / "y.csv", [y])
        bpath = write_csv(tmp_path / "b.csv", [beta0])
        out = tmp_path / "report.json"
        rc = main(["lasso", "--design", design, "--y", ypath, "--beta0", bpath,
                   "--lambda", "1.0", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        verdict = report["result"]["verdict"]
        assert verdict["premise_ok"] is True
        assert verdict["holds"] is True
        assert verdict["lambda0"] < 1.0

    def test_noisy_premise_failure_exits_two(self, tmp_path):
        # lam far below the realized noise level: bound unevaluated, exit 2
        rng = np.random.default_rng(1)
        n, p = 30, 3
        x = rng.standard_normal((n, p))
        beta0 = np.array([1.0, 0.0, 0.0])
        y = x @ beta0 + rng.standard_normal(n)
        design = write_csv(tmp_path / "x.csv", x)
        ypath = write_csv(tmp_path / "y.csv", [y])
        bpath = write_csv(tmp_path / "b.csv", [beta0])
        out = tmp_path / "report.json"
        rc = main(["lasso", "--design", design, "--y", ypath, "--beta0", bpath,
                   "--lambda", "1e-6", "--out", str(out)])
        assert rc == 2
        report = read_report(out)
        verdict = report["result"]["verdict"]
        assert verdict["premise_ok"] is False
        assert verdict["holds"] is None

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_response_rejected(self, bad, tmp_path, capsys):
        x = np.random.default_rng(3).standard_normal((20, 3))
        design = write_csv(tmp_path / "x.csv", x)
        ypath = tmp_path / "y.csv"
        ypath.write_text(",".join(["1.0"] * 19 + [bad]) + "\n")
        out = tmp_path / "report.json"
        rc = main(["lasso", "--design", design, "--y", str(ypath),
                   "--lambda", "0.5", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: InvalidParameter: Y must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("truth", [False, True])
    def test_response_length_mismatch_rejected(self, truth, tmp_path, capsys):
        x = np.random.default_rng(4).standard_normal((20, 3))
        design = write_csv(tmp_path / "x.csv", x)
        ypath = write_csv(tmp_path / "y.csv", [np.ones(19)])
        argv = ["lasso", "--design", design, "--y", ypath, "--lambda", "0.5"]
        if truth:
            argv += ["--beta0", write_csv(tmp_path / "b.csv", [[1.0, 0.0, 0.0]])]
        out = tmp_path / "report.json"
        rc = main(argv + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: InvalidParameter: X must be n x p with Y of length n\n")
        assert not out.exists()

    def test_design_without_truth_gives_no_verdict(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        design = write_csv(tmp_path / "x.csv", x)
        ypath = write_csv(tmp_path / "y.csv", [y])
        out = tmp_path / "report.json"
        rc = main(["lasso", "--design", design, "--y", ypath,
                   "--lambda", "0.5", "--out", str(out)])
        assert rc == 0
        assert read_report(out)["result"]["verdict"] is None


class TestRecover:
    def test_identity_recovers_indicator(self, tmp_path):
        gram = write_csv(tmp_path / "g.csv", np.eye(5))
        out = tmp_path / "report.json"
        rc = main(["recover", "--gram", gram, "--S", "0,2", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["result"]["recovered"] is True
        assert report["result"]["max_abs_error"] <= 1e-6
        np.testing.assert_allclose(report["result"]["beta_lp"],
                                   [1.0, 0.0, 1.0, 0.0, 0.0], atol=1e-6)

    def test_report_names_the_route(self, tmp_path):
        gram = write_csv(tmp_path / "g.csv", np.eye(5))
        out = tmp_path / "report.json"
        assert main(["recover", "--gram", gram, "--S", "0,2", "--out", str(out)]) == 0
        result = read_report(out)["result"]
        assert result == {"beta_lp": [1.0, 0.0, 1.0, 0.0, 0.0], "recovered": True,
                          "max_abs_error": 0.0, "route": "dual_certificate"}
        ambiguous = write_csv(tmp_path / "r1.csv", np.ones((2, 2)))
        beta0 = write_csv(tmp_path / "b.csv", [[2.0, -1.0]])
        assert main(["recover", "--gram", ambiguous, "--beta0", beta0, "--out", str(out)]) == 0
        result = read_report(out)["result"]
        assert (result["recovered"], result["route"]) == (False, "simplex")


class TestNonFiniteTruth:
    @pytest.mark.parametrize("argv", [
        ["recover"],
        ["lasso", "--S", "0", "--lambda", "0.1"],
    ])
    def test_rejected(self, argv, tmp_path, capsys):
        gram = write_csv(tmp_path / "g.csv", np.eye(3))
        bpath = tmp_path / "b.csv"
        bpath.write_text("1.0,nan,0.0\n")
        out = tmp_path / "report.json"
        rc = main(argv + ["--gram", gram, "--beta0", str(bpath), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: InvalidParameter: beta0 must be finite\n"
        assert not out.exists()


class TestSupportOutOfRange:
    @pytest.mark.parametrize("argv", [
        ["recover"],
        ["recover", "--beta0"],
        ["lasso", "--lambda", "0.1"],
        ["lasso", "--lambda", "0.1", "--beta0"],
    ])
    def test_rejected(self, argv, tmp_path, capsys):
        gram = write_csv(tmp_path / "g.csv", np.eye(5))
        if argv[-1] == "--beta0":
            argv = argv + [write_csv(tmp_path / "b.csv", [[1.0, 0.0, 0.0, 0.0, 0.0]])]
        out = tmp_path / "report.json"
        rc = main(argv + ["--gram", gram, "--S", "0,7", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: InvalidParameter: S index 7 out of range for p=5\n")
        assert not out.exists()


class TestOverflowingGram:
    """Entries too large for the constants' squares and p-fold sums
    (p^1.5 max|entry| above 2^511) are refused when the Gram is built,
    before any solve, with one line on stderr and no numpy warning."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--S", "0"],
        ["lasso", "--S", "0", "--lambda", "0.1"],
        ["implications", "--S", "0"],
        ["recover", "--S", "0"],
    ])
    @pytest.mark.parametrize("entries, message", [
        ([[1e308, 0.0], [0.0, 1e308]],
         "|entry| 1e+308 exceeds 2^511 / p^1.5 = 2.370187977027294e+153 at p=2"),
        (np.full((3, 3), 8e307),
         "|entry| 8e+307 exceeds 2^511 / p^1.5 = 1.290166919599193e+153 at p=3"),
        # finite spectra whose constants overflowed: coherence squared inf
        (np.full((2, 2), 8e307),
         "|entry| 8e+307 exceeds 2^511 / p^1.5 = 2.370187977027294e+153 at p=2"),
        (np.diag([8e307, 8e307, 1.0]),
         "|entry| 8e+307 exceeds 2^511 / p^1.5 = 1.290166919599193e+153 at p=3"),
    ])
    def test_every_command_exits_1_before_any_solve(self, argv, entries, message, tmp_path,
                                                     capsys, monkeypatch):
        import lasso_audit.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("a solve started on an overflowing Gram")

        for name in ("condition_report", "solve_noiseless", "check_all",
                     "basis_pursuit_recover"):
            monkeypatch.setattr(cli, name, refuse)
        gram = write_csv(tmp_path / "g.csv", entries)
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--gram", gram, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: InvalidParameter: Gram matrix entries too large: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("p", [3, 8])
    @pytest.mark.parametrize("kind", ["full", "diagonal", "random_psd"])
    def test_entries_just_below_the_bound_raise_no_runtime_warning(self, kind, p, tmp_path):
        # 0.99 of the bound: every command runs to a report; lasso is left
        # out, as coordinate descent stops on an absolute tolerance
        shape = {"full": np.ones((p, p)), "diagonal": np.diag(np.linspace(1.0, 0.5, p)),
                 "random_psd": random_psd_entries(p, 3, 0.05)}[kind]
        entries = 0.99 * 2.0 ** 511 / p ** 1.5 * shape / np.max(np.abs(shape))
        gram = write_csv(tmp_path / "g.csv", entries)
        out = tmp_path / "report.json"
        for argv in (["analyze", "--S", "0"], ["analyze", "--S", "0,1", "--N", "2"],
                     ["implications", "--S", "0"], ["recover", "--S", "0"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(argv + ["--gram", gram, "--out", str(out)]) in (0, 2)
            assert "NaN" not in out.read_text()
            read_report(out)


class TestImplicationsCommand:
    def test_matches_library_check_all(self, tmp_path):
        entries = np.eye(6)
        gram_path = write_csv(tmp_path / "g.csv", entries)
        out = tmp_path / "report.json"
        # N = 2s so every certified upper route applies and no edge skips
        rc = main(["implications", "--gram", gram_path, "--S", "0,1",
                   "--L", "2", "--N", "4", "--seed", "0", "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        config = replace(DEFAULT_CONFIG, tol=1e-9, seed=0)
        want = [v.to_json_dict()
                for v in check_all(GramMatrix(entries), ConeSpec((0, 1), 2.0, 4),
                                   config)]
        assert report["result"] == want
        assert all(v["holds"] for v in report["result"])


    def test_tiny_scale_gram_reports_without_nan(self, tmp_path):
        # the regression search's inverse-sign heads reach 1e160 here; their
        # squares overflowed, and a nan reached the report's BoundedValue
        gram_path = write_csv(tmp_path / "g.csv", 1e-160 * np.eye(4))
        out = tmp_path / "report.json"
        rc = main(["implications", "--gram", gram_path, "--S", "0", "--N", "2",
                   "--out", str(out)])
        assert rc == 0
        assert "NaN" not in out.read_text()
        assert read_report(out)["result"]


class TestMonteCarloCommand:
    def test_concentration_defaults_to_identity_population(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["montecarlo", "--experiment", "concentration", "--n", "100",
                   "--p", "3", "--reps", "150", "--t", "1,2", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["result"]["kind"] == "concentration"
        assert report["result"]["pass"] == [True, True]

    def test_noise_experiment(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["montecarlo", "--experiment", "noise", "--n", "50", "--p", "3",
                   "--reps", "150", "--t", "1", "--out", str(out)])
        assert rc == 0
        assert read_report(out)["result"]["kind"] == "noise"

    def test_requires_dimensions(self, capsys):
        rc = main(["montecarlo", "--experiment", "noise", "--reps", "150"])
        assert rc == 1
        assert "requires --n and --p" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--experiment", "concentration", "--n", "-5", "--p", "3"],
         "--n and --p must be at least 1, got n=-5, p=3"),
        (["--experiment", "noise", "--n", "50", "--p", "-1"],
         "--n and --p must be at least 1, got n=50, p=-1"),
        (["--experiment", "noise", "--n", "0", "--p", "3"],
         "--n and --p must be at least 1, got n=0, p=3"),
        (["--experiment", "concentration", "--n", "0", "--p", "3"],
         "--n and --p must be at least 1, got n=0, p=3"),
        (["--experiment", "concentration", "--n", "50", "--p", "3", "--t", "-1"],
         "need t >= 0, n >= 1, p >= 1, got t=-1.0, n=50, p=3"),
        (["--experiment", "noise", "--n", "50", "--p", "3", "--t", "1,-1"],
         "t, n, p must be positive"),
    ])
    def test_bad_sizes_rejected_before_any_rep(self, argv, message, tmp_path, capsys,
                                               monkeypatch):
        import lasso_audit.experiments as experiments

        def refuse(*args, **kwargs):
            raise AssertionError("a rep was drawn despite an invalid argument")

        monkeypatch.setattr(experiments, "_box_muller", refuse)
        out = tmp_path / "report.json"
        rc = main(["montecarlo", "--reps", "150"] + argv + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: InvalidParameter: {message}\n"
        assert not out.exists()


class TestSeedResolution:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LASSO_AUDIT_SEED", "7")
        out = tmp_path / "report.json"
        rc = main(["montecarlo", "--experiment", "noise", "--n", "40", "--p", "2",
                   "--reps", "120", "--t", "2", "--out", str(out)])
        assert rc == 0
        assert read_report(out)["meta"]["seed"] == 7

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LASSO_AUDIT_SEED", "7")
        out = tmp_path / "report.json"
        rc = main(["montecarlo", "--experiment", "noise", "--n", "40", "--p", "2",
                   "--reps", "120", "--t", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert read_report(out)["meta"]["seed"] == 3

    def test_commands_without_seed_ignore_env(self, tmp_path, monkeypatch):
        # recover reads no seed, so the report records the default, not 7
        monkeypatch.setenv("LASSO_AUDIT_SEED", "7")
        gram = write_csv(tmp_path / "g.csv", np.eye(3))
        out = tmp_path / "report.json"
        assert main(["recover", "--gram", gram, "--S", "0", "--out", str(out)]) == 0
        assert read_report(out)["meta"]["seed"] == 0

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("LASSO_AUDIT_SEED", "pi")
        rc = main(["montecarlo", "--experiment", "noise", "--n", "40", "--p", "2",
                   "--reps", "120", "--t", "2"])
        assert rc == 1
        assert "LASSO_AUDIT_SEED" in capsys.readouterr().err


class TestInvalidArguments:
    """Bad numbers and flags a command form ignores are refused with exit 1
    before any input is read or run."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import lasso_audit.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("work started despite an invalid argument")

        for name in ("load_matrix_csv", "solve_noiseless", "solve_noisy",
                     "noise_bound_experiment", "concentration_experiment", "generate"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv, message", [
        (["lasso", "--gram", "g.csv", "--S", "0", "--lambda", "nan"],
         "--lambda must be finite, got nan"),
        (["lasso", "--gram", "g.csv", "--S", "0", "--lambda", "inf"],
         "--lambda must be finite, got inf"),
        (["montecarlo", "--experiment", "noise", "--n", "40", "--p", "2", "--t", "1,nan"],
         "--t must be finite, got nan"),
        (["analyze", "--gram", "g.csv", "--S", "0", "--L=-inf"],
         "--L must be finite, got -inf"),
        (["analyze", "--gram", "g.csv", "--S", "0", "--cap-subsets", "-5"],
         "--cap-subsets must be at least 1, got -5"),
        (["implications", "--gram", "g.csv", "--S", "0", "--cap-signs", "0"],
         "--cap-signs must be at least 1, got 0"),
        (["lasso", "--design", "x.csv", "--y", "y.csv", "--lambda", "0.5", "--gram", "g.csv"],
         "lasso --design takes no --gram"),
        (["lasso", "--design", "x.csv", "--y", "y.csv", "--lambda", "0.5", "--S", "0"],
         "lasso --design takes no --S"),
        (["lasso", "--design", "x.csv", "--y", "y.csv", "--lambda", "0.5", "--N", "2"],
         "lasso --design takes no --N"),
        (["montecarlo", "--experiment", "noise", "--n", "40", "--p", "2", "--gram", "g.csv"],
         "montecarlo --experiment noise takes no --gram"),
        (["lasso", "--design", "x.csv", "--y", "y.csv", "--lambda", "0.5", "--L", "1"],
         "lasso --design takes no --L"),
        (["lasso", "--design", "x.csv", "--y", "y.csv", "--lambda", "0.5",
          "--cap-subsets", "10", "--S", "0"],
         "lasso --design takes no --S, --cap-subsets"),
        (["generate", "--kind", "identity", "--p", "3", "--jitter", "0.1"],
         "generate --kind identity takes no --jitter"),
        (["generate", "--kind", "equicorrelation", "--p", "3", "--rho", "0.2", "--seed", "0"],
         "generate --kind equicorrelation takes no --seed"),
        (["generate", "--kind", "random_psd", "--p", "3", "--noise-sd", "1"],
         "generate --kind random_psd takes no --noise-sd"),
        (["generate", "--kind", "gaussian_design", "--n", "4", "--p", "3", "--jitter", "0"],
         "generate --kind gaussian_design takes no --jitter"),
    ])
    def test_rejected_before_work(self, argv, message, tmp_path, capsys, no_work):
        out = tmp_path / "report.json"
        rc = main(argv + ["--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: InvalidParameter: {message}\n"
        assert not out.exists()


COMMAND_FLAGS = {
    "analyze": {"--gram", "--S", "--L", "--N", "--seed", "--cap-subsets", "--cap-signs",
                "--tol", "--out"},
    "implications": {"--gram", "--S", "--L", "--N", "--seed", "--cap-subsets",
                     "--cap-signs", "--tol", "--out"},
    "lasso": {"--gram", "--design", "--y", "--beta0", "--S", "--L", "--N", "--lambda",
              "--cap-subsets", "--tol", "--out"},
    "recover": {"--gram", "--beta0", "--S", "--out"},
    "montecarlo": {"--experiment", "--gram", "--n", "--p", "--reps", "--t", "--seed", "--out"},
    "generate": {"--kind", "--p", "--s", "--rho", "--block-size", "--n", "--seed", "--jitter",
                 "--noise-sd", "--out"},
}


def subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlagTable:
    """Each command takes exactly the flags its code path reads."""

    def test_each_command_takes_only_its_flags(self):
        taken = {name: {flag for action in cmd._actions for flag in action.option_strings}
                 - {"-h", "--help"} for name, cmd in subparsers().items()}
        assert taken == COMMAND_FLAGS
        assert sum(len(flags) for flags in taken.values()) == 51

    def test_no_flag_has_a_parser_default(self):
        for cmd in subparsers().values():
            for action in cmd._actions:
                if action.option_strings != ["-h", "--help"]:
                    assert action.default is None, action.option_strings

    @pytest.mark.parametrize("argv", [
        ["analyze", "--gram", "g.csv", "--S", "0", "--lambda", "0.1"],
        ["recover", "--gram", "g.csv", "--tol", "1e-6"],
        ["lasso", "--gram", "g.csv", "--S", "0", "--lambda", "0.1", "--seed", "3"],
        ["generate", "--kind", "identity", "--p", "3", "--S", "0"],
    ])
    def test_flag_outside_the_table_exits_2_before_any_read(self, argv, monkeypatch, capsys):
        import lasso_audit.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("input read despite an unknown flag")

        monkeypatch.setattr(cli, "load_matrix_csv", refuse)
        monkeypatch.setattr(cli, "generate", refuse)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_config_holds_every_field_with_its_default(self, tmp_path):
        gram = write_csv(tmp_path / "g.csv", np.eye(3))
        out = tmp_path / "report.json"
        assert main(["analyze", "--gram", gram, "--S", "0", "--out", str(out)]) == 0
        config = read_report(out)["meta"]["config"]
        given = {"command": "analyze", "gram_path": gram, "s_members": [0], "out": str(out)}
        fields = dataclasses.fields(RunConfig)
        assert list(config) == [f.name for f in fields] and len(fields) == 25
        for f in fields:
            default = list(f.default) if isinstance(f.default, tuple) else f.default
            assert config[f.name] == given.get(f.name, default), f.name


class TestParserCache:
    """main builds the parser tree once per process and reuses it: a parse
    leaves nothing behind that a later call could see."""

    def test_five_calls_build_one_tree(self, tmp_path, monkeypatch):
        import lasso_audit.cli as cli

        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._cached_parser.cache_clear()
        gram = write_csv(tmp_path / "g.csv", np.eye(3))
        out = str(tmp_path / "report.json")
        for argv in (["recover", "--gram", gram, "--S", "0"],
                     ["lasso", "--gram", gram, "--S", "0,2", "--lambda", "0.1"],
                     ["generate", "--kind", "identity", "--p", "3"],
                     ["recover", "--gram", gram, "--S", "1,2"],
                     ["analyze", "--gram", gram, "--S", "0"]):
            assert main(argv + ["--out", out]) == 0
        # the top parser and one per command
        assert len(built) == 1 + len(cli._COMMANDS) == 7
        build_parser()
        assert len(built) == 14

    def test_a_flag_does_not_carry_into_the_next_call(self, tmp_path):
        gram = write_csv(tmp_path / "g.csv", np.eye(3))
        out = tmp_path / "report.json"
        argv = ["lasso", "--gram", gram, "--S", "0", "--lambda", "0.1", "--out", str(out)]
        assert main(argv + ["--L", "2"]) == 0
        assert read_report(out)["meta"]["config"]["big_l"] == 2.0
        assert main(argv) == 0
        assert read_report(out)["meta"]["config"]["big_l"] == RunConfig.big_l == 1.0

    def test_calls_after_a_usage_error_match_fresh_processes(self, tmp_path, capsys,
                                                             monkeypatch):
        # the usage and help text wrap at COLUMNS, here and in the children
        monkeypatch.setenv("COLUMNS", "80")
        gram = write_csv(tmp_path / "g.csv", random_psd_entries(6, 5, 0.1))
        outs = [str(tmp_path / "recover.json"), str(tmp_path / "analyze.json")]
        calls = [["recover", "--gram", gram, "--bogus", "1"],
                 ["recover", "--gram", gram, "--S", "0,3", "--out", outs[0]],
                 ["analyze", "--gram", gram, "--S", "1,4", "--N", "3", "--out", outs[1]],
                 ["analyze", "--help"]]

        def reports():
            found = [json.loads(Path(out).read_text()) for out in outs]
            for report in found:
                del report["meta"]["wall_time_s"]
            return found

        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
        assert "unrecognized arguments: --bogus 1" in in_process[0][2]
        assert in_process[3][1].startswith("usage: lasso-audit analyze")
        first = reports()
        fresh = []
        for argv in calls:
            done = run_cli(argv)
            fresh.append((done.returncode, done.stdout.decode(), done.stderr.decode()))
        assert in_process == fresh
        assert first == reports()
