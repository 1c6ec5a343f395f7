import csv
import io
from pathlib import Path

import pytest

from tribvp import cli
from tribvp.cli import main
from tribvp.errors import BvpError

PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"
STEEP = str(PROBLEMS / "steep_slope.prob")
BOUNDED = str(PROBLEMS / "bounded_forcing.prob")
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

    def test_non_finite_rhs_exit_2(self, tmp_path, capsys):
        # log(u) is -inf on the zero seed of the p2 continuation
        path = write(tmp_path, "[problem]\nT = 1\nf = log(u)\nbc = p2\n")
        assert main(["solve", path]) == 2
        captured = capsys.readouterr()
        assert "status=fail" in captured.out
        assert "right-hand side" in captured.err

    def test_require_hypotheses_blocks_bad_bound(self, tmp_path, capsys):
        path = write(tmp_path,
                     "[problem]\nT = 1\nf = 0.6 * cos(u)\nbc = p2\n"
                     "[hypotheses]\nc_bound = 0.6\n")
        assert main(["solve", path, "--require-hypotheses"]) == 3
        assert "bound: 0.6 >= 0.5" in capsys.readouterr().err

    def test_require_hypotheses_allows_good_bound(self, capsys):
        assert main(["solve", BOUNDED, "--require-hypotheses"]) == 0
        assert "status=ok" in capsys.readouterr().out

    def test_missing_file_exit_4(self, capsys):
        assert main(["solve", "/nonexistent/file.prob"]) == 4
        assert capsys.readouterr().err.strip()

    def test_malformed_file_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "[problem]\nT = 1\nf = sin(\nbc = p1\n")
        assert main(["solve", path]) == 4

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

    def test_misordered_thresholds_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, MISORDERED)
        assert main(["check", path]) == 4
        captured = capsys.readouterr()
        assert "M1 must be below M2" in captured.err
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


class TestDegree:
    def test_steep_slope_is_minus_one(self, capsys):
        code = main(["degree", STEEP, "--rho", "1.2", "--kappa", "0.9"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("degree=-1 ")
        assert "min_boundary_norm=" in out and "samples=" in out

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
