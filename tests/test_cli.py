import csv
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tribvp import cli
from tribvp.cli import main
from tribvp.errors import BvpError

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "demos" / "problems"
STEEP = str(PROBLEMS / "steep_slope.prob")
BOUNDED = str(PROBLEMS / "bounded_forcing.prob")
POLE_ENVELOPE = ("[problem]\nT = 0.01\nf = exp(4*v) - e\nbc = p1\n"
                 "[hypotheses]\nM1 = 0\nM2 = 0.5\nc_lower = 1/t\n")
MISORDERED = ("[problem]\nT = 0.01\nf = exp(4*v) - e\nbc = p1\n"
              "[hypotheses]\nM1 = 1\nM2 = 0\nc_lower = -3\n")


def write(tmp_path, text, name="case.prob"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rows_of(text):
    lines = [ln for ln in text.splitlines() if ln and "=" not in ln.split(",")[0]]
    return list(csv.reader(io.StringIO("\n".join(lines))))


class TestSolve:
    def test_steep_slope_csv_and_summary(self, capsys):
        assert main(["solve", STEEP]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "t,u,du,phi_du,f"
        assert lines[-1].startswith("status=ok residual=")
        assert "backend=fixed-point" in lines[-1]
        body = rows_of(out)[1:]
        assert len(body) == 401
        for row in body[:: 80]:
            t, u = float(row[0]), float(row[1])
            assert abs(u - (1.0 + t) / 4.0) < 1e-6

    def test_out_file_keeps_stdout_clean(self, tmp_path, capsys):
        dest = tmp_path / "table.csv"
        assert main(["solve", STEEP, "--out", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "t,u," not in out
        assert out.strip().startswith("status=ok")
        text = dest.read_text()
        assert text.splitlines()[0] == "t,u,du,phi_du,f"
        # 17 significant digits: values survive a text round-trip bit-exactly
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == float(row[1])

    def test_backend_override(self, capsys):
        assert main(["solve", STEEP, "--backend", "shooting"]) == 0
        assert "backend=shooting" in capsys.readouterr().out

    def test_zero_forcing_returns_zeros(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = 0\nbc = p2\n")
        assert main(["solve", path]) == 0
        body = rows_of(capsys.readouterr().out)[1:]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in body)

    def test_atan_flux_at_the_largest_floats_has_no_nan(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nn = 50\nphi = atan\n"
                               "a = 1e308\nf = 0.4 * cos(u)\nbc = p2\n")
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        assert len(rows_of(out)) == 52

    def test_range_violation_exit_2(self, tmp_path, capsys):
        path = write(tmp_path,
                     "[problem]\nT = 1\nf = 10 * sin(2*pi*t)\nbc = p2\n")
        assert main(["solve", path]) == 2
        assert "status=fail" in capsys.readouterr().out

    def test_no_convergence_exit_2(self, tmp_path, capsys):
        path = write(tmp_path,
                     "[problem]\nT = 1\nf = 0.4 * cos(u)\nbc = p2\n"
                     "[solver]\nmax_iters = 3\ntol = 1e-14\n")
        assert main(["solve", path]) == 2
        out = capsys.readouterr().out
        assert "status=fail" in out and "iters=3" in out

    def test_shooting_without_a_root_counts_its_sweeps(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 0.01\nn = 200\n"
                               "f = exp(v) - exp(3.5)\nbc = p1\n")
        assert main(["solve", path, "--backend", "shooting"]) == 2
        captured = capsys.readouterr()
        assert "status=fail" in captured.out
        assert int(captured.out.split("iters=")[1].split()[0]) >= 1
        assert "no sign change" in captured.err

    def test_non_finite_rhs_exit_2(self, tmp_path, capsys):
        # log(u) is -inf on the zero seed of the p2 continuation
        path = write(tmp_path, "[problem]\nT = 1\nf = log(u)\nbc = p2\n")
        assert main(["solve", path]) == 2
        captured = capsys.readouterr()
        assert "status=fail" in captured.out
        assert "right-hand side" in captured.err

    def test_constant_division_by_zero_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = u + 1/(2-2)\nbc = p2\n")
        assert main(["solve", path]) == 2
        assert "right-hand side returned inf at t=" in capsys.readouterr().err

    def test_overflowing_literal_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = 1e999*u\nbc = p2\n")
        assert main(["solve", path]) == 4
        assert "'1e999' is not finite" in capsys.readouterr().err

    def test_backends_that_pick_different_solutions_warn(self, tmp_path,
                                                         capsys):
        # f vanishes on the lines of slope 0.5 and -2.5: the fixed point
        # seeds on the first, shooting's wider scan meets the second first
        path = write(tmp_path, "[problem]\nT = 0.1\nn = 100\n"
                     "f = (v + 2.5)*(v - 0.5)\nbc = p1\n")
        assert main(["solve", path, "--backend", "both"]) == 0
        captured = capsys.readouterr()
        assert "warning: backends disagree by 3.3" in captured.err
        assert captured.out.splitlines()[-1].startswith("status=ok")

    def test_require_hypotheses_blocks_bad_bound(self, tmp_path, capsys):
        path = write(tmp_path,
                     "[problem]\nT = 1\nf = 0.6 * cos(u)\nbc = p2\n"
                     "[hypotheses]\nc_bound = 0.6\n")
        assert main(["solve", path, "--require-hypotheses"]) == 3
        assert "bound: 0.6 >= 0.5" in capsys.readouterr().err

    def test_seeding_failure_keeps_the_scan_message_exit_3(self, tmp_path, capsys):
        # the seed scan straddles the pole at v = 0.26 but cannot narrow it
        path = write(tmp_path, "[problem]\nT = 0.1\nn = 200\nf = 1/(v-0.26)\nbc = p1\n")
        assert main(["solve", path]) == 3
        assert "could not be narrowed" in capsys.readouterr().err

    def test_require_hypotheses_allows_good_bound(self, capsys):
        assert main(["solve", BOUNDED, "--require-hypotheses"]) == 0
        assert "status=ok" in capsys.readouterr().out

    def test_out_into_a_missing_directory_exit_4(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "table.csv"
        assert main(["solve", STEEP, "--out", str(dest)]) == 4
        assert f"cannot write {dest}" in capsys.readouterr().err
        assert not dest.parent.exists()

    @pytest.mark.parametrize("grid,fragment", [
        ("T = 1\nn = 1", "interval count must be an integer >= 2, got 1"),
        ("T = inf", "[problem] T: must be finite"),
    ], ids=["one-interval", "infinite-horizon"])
    def test_unusable_grid_exit_4(self, tmp_path, capsys, grid, fragment):
        path = write(tmp_path, f"[problem]\n{grid}\nf = 0\nbc = p2\n")
        assert main(["solve", path]) == 4
        assert fragment in capsys.readouterr().err

    def test_missing_file_exit_4(self, capsys):
        assert main(["solve", "/nonexistent/file.prob"]) == 4
        assert capsys.readouterr().err.strip()

    def test_malformed_file_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = sin(\nbc = p1\n")
        assert main(["solve", path]) == 4

    def test_file_that_is_not_utf8_exit_4(self, tmp_path, capsys):
        path = tmp_path / "case.prob"
        path.write_bytes(b"\xff\xfe[problem]\nT = 1\nf = u\nbc = p2\n")
        assert main(["solve", str(path)]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_expression_nested_too_deeply_exit_4(self, tmp_path, capsys):
        f = " + ".join(["0.001*u"] * 1200)
        path = write(tmp_path, f"[problem]\nT = 0.5\nn = 50\nf = {f}\nbc = p2\n")
        assert main(["solve", path]) == 4
        assert "nested more than 160 levels" in capsys.readouterr().err

    def test_grid_too_large_to_allocate_exit_4(self, tmp_path, capsys):
        # 10**15 nodes are 8 PB, which numpy refuses at once
        path = write(tmp_path, "[problem]\nT = 1\nn = 1000000000000000\n"
                               "f = 0.4*cos(u)\nbc = p2\n")
        assert main(["solve", path]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_require_hypotheses_misordered_thresholds_exit_4(self, tmp_path,
                                                            capsys):
        path = write(tmp_path, MISORDERED)
        assert main(["solve", path, "--require-hypotheses"]) == 4
        captured = capsys.readouterr()
        assert "M1 must be below M2" in captured.err
        assert captured.out == ""


class TestCheck:
    def test_steep_slope_passes(self, capsys):
        assert main(["check", STEEP]) == 0
        out = capsys.readouterr().out
        assert "sign: sampled-only" in out
        assert "width: pass" in out
        assert "L=0.4472135955" in out
        assert "rho_min=" in out and "kappa_range=" in out

    def test_bounded_forcing_passes(self, capsys):
        assert main(["check", BOUNDED]) == 0
        out = capsys.readouterr().out
        assert "bound: pass" in out
        assert "0.4 < 0.5" in out
        assert "solution_bound=" in out
        lines = out.splitlines()
        assert "r=1.333333333" in lines
        assert not any(line.startswith("L=") for line in lines)

    def test_missing_data_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = v\nbc = p1\n")
        assert main(["check", path]) == 1
        assert "insufficient data" in capsys.readouterr().out

    def test_failing_bound_exit_1(self, tmp_path, capsys):
        path = write(tmp_path,
                     "[problem]\nT = 1\nf = 0.6 * cos(u)\nbc = p2\n"
                     "[hypotheses]\nc_bound = 0.6\n")
        assert main(["check", path]) == 1
        assert "fail" in capsys.readouterr().out

    def test_nan_inside_envelope_box_exit_1(self, tmp_path, capsys):
        # f is NaN for |v| < 0.5, which the envelope samples reach
        path = write(tmp_path,
                     "[problem]\nT = 0.01\nf = atan(v) + 0*sqrt(v*v - 0.25)\n"
                     "bc = p1\n[hypotheses]\nM1 = -1\nM2 = 1\nc_lower = -2\n")
        assert main(["check", path]) == 1
        assert "envelope: fail - f or c(t) not finite: f = nan" in capsys.readouterr().out

    def test_envelope_with_a_pole_at_t_0_warns_nothing(self, tmp_path, capsys):
        # c(0) = inf: the grid node t = 0 divides by zero
        assert main(["check", write(tmp_path, POLE_ENVELOPE)]) == 1
        captured = capsys.readouterr()
        assert "envelope: fail - f = -2.49799 dips below c = 114.115" in captured.out
        assert "||c-||_1=0\n" in captured.out
        assert captured.err == ""

    def test_constant_division_by_zero_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = u + 1/(2-2)\nbc = p2\n")
        assert main(["check", path]) == 1
        assert "bound: fail - f not finite" in capsys.readouterr().out

    def test_overflowing_literal_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = 1e999*u\nbc = p2\n")
        assert main(["check", path]) == 4
        assert "'1e999' is not finite" in capsys.readouterr().err

    def test_negative_bound_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = 0.4 * cos(u)\nbc = p2\n"
                               "[hypotheses]\nc_bound = -1\n")
        assert main(["check", path]) == 4
        captured = capsys.readouterr()
        assert "c_bound bounds |f|, so it cannot be negative" in captured.err
        assert captured.out == ""

    def test_misordered_thresholds_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, MISORDERED)
        assert main(["check", path]) == 4
        captured = capsys.readouterr()
        assert "M1 must be below M2" in captured.err
        assert captured.out == ""

    def test_envelope_in_u_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 0.01\nf = exp(4*v) - e\n"
                               "bc = p1\n[hypotheses]\nc_lower = -3 + u\n")
        assert main(["check", path]) == 4
        captured = capsys.readouterr()
        assert captured.err == ("error: [hypotheses] c_lower: variable 'u' "
                                "not allowed here (allowed: t) (offset 5)\n")
        assert captured.out == ""

    def test_seed_changes_nothing_essential(self, capsys):
        assert main(["check", STEEP, "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["check", STEEP, "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("seed", ["-5", "x"])
    def test_bad_seed_exit_4(self, seed, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", STEEP, "--seed", seed])
        assert info.value.code == 4
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err


# The sampled points are bit-identical to those of the (N, 3) remainder
# formulation the checker first used; this text was recorded with it.
STEEP_GOLDEN = """\
sign: sampled-only - opposite strict signs across the thresholds on 200000 samples
envelope: sampled-only - f >= c(t) on 100000 samples
width: pass - L + 2||c-||_1 = 0.5072135955 < a = 1
kappa_in_range: pass - kappa = 0.9 vs admissible (0.5072135955, 1)
rho_in_range: pass - rho = 1.2 vs minimum 1.182960336
M1=0
M2=0.5
L=0.4472135955
r=0.5885374805
||c-||_1=0.03
rho_min=1.182960336
kappa_range=(0.5072135955, 1)
"""
BOUNDED_GOLDEN = """\
bound: pass - 0.4 < 0.5
bound_consistency: sampled-only - max sampled |f| = 0.4 within the asserted bound
r=1.333333333
c_bound=0.4
solution_bound=4
"""
OSCILLATING = ("[problem]\nT = 1\nf = sin(3*v) + 0.1*u\nbc = p1\n"
               "[hypotheses]\nM1 = -1\nM2 = 1\nc_lower = -0.5\n")
OSCILLATING_TAIL = """\
width: fail - L + 2||c-||_1 = 1.707106781 >= a = 1; no admissible slope bound exists
M1=-1
M2=1
L=0.7071067812
||c-||_1=0.5
"""
LYING = ("[problem]\nT = 1\nf = 0.45*cos(u) + 0.01*t*v\nbc = p2\n"
         "[hypotheses]\nc_bound = 0.1\n")
LYING_TAIL = """\
r=0.2041241452
c_bound=0.1
solution_bound=0.6123724357
"""
SIGN_FAIL = ("sign: fail - no strict constant sign on y >= M2 (pointwise condition "
             "violated; the integral form remains undetermined) at (t, x, y) = ")
GOLDEN = {
    ("oscillating", "0"): SIGN_FAIL + "(0.725405, -9.32263, 2.49459)\n"
    "envelope: fail - f = -1.52802 dips below c = -0.5 at (t, x, y) = "
    "(0.514655, -5.43193, 1.51266)\n" + OSCILLATING_TAIL,
    ("oscillating", "1"): SIGN_FAIL + "(0.938313, 5.06529, 1.91734)\n"
    "envelope: fail - f = -0.977338 dips below c = -0.5 at (t, x, y) = "
    "(0.704463, -0.0444694, -8.97897)\n" + OSCILLATING_TAIL,
    ("lying", "0"): "bound: pass - 0.1 < 0.5\nbound_consistency: fail - sampled "
    "|f| reached 0.546896, above the asserted bound at (t, x, y) = "
    "(0.974464, -0.0354032, 9.97248)\n" + LYING_TAIL,
    ("lying", "1"): "bound: pass - 0.1 < 0.5\nbound_consistency: fail - sampled "
    "|f| reached 0.5486, above the asserted bound at (t, x, y) = "
    "(0.99866, -6.31697, 9.8989)\n" + LYING_TAIL,
}


class TestCheckGolden:
    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("path, golden", [(STEEP, STEEP_GOLDEN),
                                              (BOUNDED, BOUNDED_GOLDEN)],
                             ids=["steep", "bounded"])
    def test_demo_output_is_unchanged(self, path, golden, seed, capsys):
        assert main(["check", path, "--seed", seed]) == 0
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("name, text", [("oscillating", OSCILLATING),
                                            ("lying", LYING)])
    def test_counterexamples_are_unchanged(self, name, text, seed, tmp_path,
                                           capsys):
        assert main(["check", write(tmp_path, text), "--seed", seed]) == 1
        assert capsys.readouterr().out == GOLDEN[name, seed]

class TestDegree:
    def test_steep_slope_is_minus_one(self, capsys):
        code = main(["degree", STEEP, "--rho", "1.2", "--kappa", "0.9"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("degree=-1 ")
        assert "min_boundary_norm=" in out and "samples=" in out

    def test_p1t_problem_certifies(self, tmp_path, capsys):
        # the p1t degree is taken along u = x + y (t - T); along p1's lines
        # u = x + y t this map has no zero and the degree would read 0
        path = write(tmp_path, "[problem]\nT = 1\nn = 400\nphi = curvature\n"
                     "f = v - 0.6666666666666666*u + 0.1\nbc = p1t\n")
        assert main(["degree", path, "--rho", "3", "--kappa", "0.9"]) == 0
        assert capsys.readouterr().out.startswith("degree=-1 ")

    def test_zero_degree_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = 1\nbc = p1\n")
        code = main(["degree", path, "--rho", "1.0", "--kappa", "0.9"])
        assert code == 1
        assert "degree=0" in capsys.readouterr().out

    def test_zero_on_boundary_exit_2(self, capsys):
        code = main(["degree", STEEP,
                     "--rho", "0.3535533905932738", "--kappa", "0.9"])
        assert code == 2
        assert capsys.readouterr().err.strip()

    def test_non_finite_rhs_exit_2(self, tmp_path, capsys):
        # log(v) is undefined on the negative-slope part of the domain
        path = write(tmp_path, "[problem]\nT = 0.01\nf = log(v)\nbc = p1\n")
        code = main(["degree", path, "--rho", "1.2", "--kappa", "0.9"])
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    def test_missing_rho_exit_4(self, capsys):
        # argparse's own usage-error code 2 would read as "uncertifiable"
        with pytest.raises(SystemExit) as info:
            main(["degree", STEEP])
        assert info.value.code == 4
        assert "required: --rho, --kappa" in capsys.readouterr().err

    def test_p2_rejected_exit_4(self, capsys):
        code = main(["degree", BOUNDED, "--rho", "1.0", "--kappa", "0.3"])
        assert code == 4

    def test_bad_domain_exit_4(self, capsys):
        code = main(["degree", STEEP, "--rho", "1.2", "--kappa", "1.5"])
        assert code == 4

    def test_samples_too_many_to_allocate_exit_4(self, capsys):
        # 10**15 angles are 8 PB, which numpy refuses at once; exit 1 would
        # read as a zero degree
        code = main(["degree", STEEP, "--rho", "1.2", "--kappa", "0.9",
                     "--samples", "1000000000000000"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_samples_flag(self, capsys):
        code = main(["degree", STEEP, "--rho", "1.2", "--kappa", "0.9",
                     "--samples", "256"])
        assert code == 0
        assert "samples=" in capsys.readouterr().out


class Unlisted(BvpError):
    """An error no exit-code table names."""


@pytest.mark.parametrize("argv,target,code,stream", [
    (["solve", STEEP], "solve", 2, "err"),
    (["check", STEEP], "check_problem", 1, "out"),
    (["degree", STEEP, "--rho", "1.2", "--kappa", "0.9"],
     "degree_for_problem", 2, "err"),
], ids=["solve", "check", "degree"])
def test_unlisted_error_gets_the_failure_code(monkeypatch, capsys, argv,
                                              target, code, stream):
    def fail(*args, **kwargs):
        raise Unlisted("unlisted failure")

    monkeypatch.setattr(cli, target, fail)
    assert main(argv) == code
    assert "unlisted failure" in getattr(capsys.readouterr(), stream)


class TestEntryPoint:
    """`python -m tribvp` in a fresh process with every warning an error."""

    @staticmethod
    def run(*argv):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.run([sys.executable, "-W", "error", "-m", "tribvp", *argv],
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=120)

    @pytest.mark.parametrize("argv", [
        ["solve", STEEP],
        ["check", STEEP],
        ["degree", STEEP, "--rho", "1.2", "--kappa", "0.9"],
    ], ids=["solve", "check", "degree"])
    def test_demo_exits_0_with_empty_stderr(self, argv):
        proc = self.run(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout

    def test_envelope_with_a_pole_exits_1_with_empty_stderr(self, tmp_path):
        proc = self.run("check", write(tmp_path, POLE_ENVELOPE))
        assert (proc.returncode, proc.stderr) == (1, "")
        assert "envelope: fail" in proc.stdout

    def test_missing_file_exits_4(self, tmp_path):
        proc = self.run("check", str(tmp_path / "absent.prob"))
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_closed_stdout_exits_4_without_a_traceback(self, command, unbuffered):
        # the pipe's read end is closed before the child starts, so its
        # first write to stdout, or the flush of what it buffered, fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        try:
            proc = subprocess.run([sys.executable, "-W", "error", "-m", "tribvp",
                                   command, STEEP], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, cwd=ROOT,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 4
        assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


class TestDeterminism:
    """A command line prints the same bytes and exits the same in every
    process, whatever the string hash seed; the check's seed alone moves
    its sample."""

    @staticmethod
    def outputs(runs):
        """(returncode, stdout, stderr) of each (hash seed, argv), the
        processes run side by side."""
        procs = [subprocess.Popen(
            [sys.executable, "-m", "tribvp", *argv], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                 "PYTHONHASHSEED": hash_seed}) for hash_seed, argv in runs]
        outs = [proc.communicate(timeout=120) for proc in procs]
        return [(proc.returncode, *out) for proc, out in zip(procs, outs)]

    def test_hash_seed_changes_nothing_and_the_check_seed_moves_the_sample(
            self, tmp_path):
        oscillating = write(tmp_path, OSCILLATING)
        commands = [["check", oscillating, "--seed", "3"],
                    ["solve", STEEP, "--backend", "both"],
                    ["degree", STEEP, "--rho", "1.2", "--kappa", "0.9"]]
        runs = [(h, argv) for argv in commands for h in ("0", "1")]
        got = self.outputs([*runs, ("0", ["check", oscillating, "--seed", "4"])])
        for argv, first, second in zip(commands, got[0:6:2], got[1:6:2]):
            assert first == second, argv
        (code3, seed3, _), (code4, seed4, _) = got[0], got[-1]
        assert code3 == code4 == 1
        points = [[line.split(b" at (t, x, y) = ")[1] for line in out.splitlines()
                   if b" at (t, x, y) = " in line] for out in (seed3, seed4)]
        assert len(points[0]) == len(points[1]) == 2
        assert all(a != b for a, b in zip(*points))


class TestCollectorFreeze:
    """`entry()` freezes the imported objects out of the garbage collector;
    `main()`, which tests and library callers run in process, does not."""

    def test_the_process_entry_point_freezes(self):
        code = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
                f"sys.argv = ['tribvp', 'degree', {STEEP!r}, '--rho', '1.2', '--kappa', '0.9']\n"
                "runpy.run_module('tribvp', run_name='__main__')\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        degree, frozen = proc.stdout.splitlines()
        assert degree.startswith("degree=-1 ")
        label, count = frozen.split()
        assert label == "frozen" and int(count) > 0

    def test_main_leaves_the_collector_unfrozen(self, capsys):
        assert main(["degree", STEEP, "--rho", "1.2", "--kappa", "0.9"]) == 0
        assert gc.get_freeze_count() == 0
