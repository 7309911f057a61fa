"""Command-line interfaces (python -m repro, python -m repro.bench)."""

import pytest

from repro.__main__ import main as repro_main
from repro.bench.__main__ import main as run_bench_cli


def test_inject_clean_exit(capsys):
    assert repro_main(["inject", "--size", "64", "--errors", "3"]) == 0
    out = capsys.readouterr().out
    assert "injected : 3" in out
    assert "verified : True" in out


def test_inject_weighted_parallel(capsys):
    code = repro_main(
        ["inject", "--size", "64", "--errors", "2",
         "--threads", "2", "--scheme", "weighted"]
    )
    assert code == 0
    assert "scheme=weighted" in capsys.readouterr().out


def test_tune_default_prints_paper_params(capsys):
    assert repro_main(["tune"]) == 0
    out = capsys.readouterr().out
    assert "MC=192 KC=384 NC=9216" in out


def test_tune_scaled_caches(capsys):
    assert repro_main(["tune", "--l2-kib", "4096"]) == 0
    out = capsys.readouterr().out
    assert "KC=" in out and "KC=384" not in out  # 4 MiB L2 moves KC


def test_validate_subcommand(capsys):
    assert repro_main(["validate", "--size", "20"]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_validate_weighted_beta(capsys):
    code = repro_main(
        ["validate", "--size", "18", "--beta", "0.5", "--scheme", "weighted"]
    )
    assert code == 0


def test_validate_explicit_modes(capsys):
    for mode in ("tile", "batched"):
        assert repro_main(["validate", "--size", "20", "--mode", mode]) == 0
        assert "MATCH" in capsys.readouterr().out


def test_inject_batched_mode_falls_back_to_tile(capsys):
    code = repro_main(
        ["inject", "--size", "48", "--errors", "2", "--mode", "batched"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "dispatch=batched -> ran tile" in out


def test_dispatch_subcommand(capsys):
    assert repro_main(["dispatch", "--size", "96", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "allclose" in out and "MATCH" in out


def test_storm_subcommand(capsys):
    assert repro_main(["storm", "--rate", "120", "--size", "64", "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "correct %" in out


def test_bench_single_figure(tmp_path, capsys):
    assert run_bench_cli(["--figure", "fig2a", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig2a.txt").exists()
    assert "fig2a" in capsys.readouterr().out


def test_bench_forwarding_through_top_level(tmp_path, capsys):
    code = repro_main(
        ["bench", "--figure", "scaling", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "scaling.txt").exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        repro_main(["frobnicate"])


def test_tune_search_show_apply_round_trip(tmp_path, capsys):
    db = str(tmp_path / "db.json")
    code = repro_main(
        ["tune", "search", "--space", "small", "--shape", "64x32x16",
         "--db", db, "--repeats", "1", "--json", str(tmp_path / "r.json")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "winner" in out and "rank rho" in out
    assert (tmp_path / "r.json").exists()

    assert repro_main(["tune", "show", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "entries   : 1" in out and "m64n32k16" in out

    code = repro_main(
        ["tune", "apply", "--shape", "64x32x16", "--space", "small",
         "--db", db, "--repeats", "1"]
    )
    assert code == 0
    assert "speedup" in capsys.readouterr().out


def test_tune_smoke_writes_db_artifact(tmp_path, capsys):
    db = str(tmp_path / "smoke.json")
    assert repro_main(["tune", "--smoke", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "db       : 2 entries" in out
    assert (tmp_path / "smoke.json").exists()


def test_tune_apply_without_entry_reports_fallback(tmp_path, capsys):
    db = str(tmp_path / "db.json")
    assert repro_main(
        ["tune", "search", "--space", "small", "--shape", "64x32x16",
         "--db", db, "--no-measure"]
    ) == 0
    capsys.readouterr()
    code = repro_main(
        ["tune", "apply", "--shape", "4000x4000x4000", "--db", db]
    )
    assert code == 1
    assert "static config" in capsys.readouterr().out


def test_serve_with_tune_db(tmp_path, capsys):
    db = str(tmp_path / "db.json")
    assert repro_main(
        ["tune", "search", "--space", "small", "--shape", "24x32x32",
         "--shape", "16x48x24", "--db", db, "--repeats", "1"]
    ) == 0
    capsys.readouterr()
    code = repro_main(
        ["serve", "--duration", "0.5", "--arrival-rate", "30",
         "--tune-db", db, "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tune-db  : 2 entries" in out
    assert "workload OK" in out


@pytest.mark.parametrize("kernel", ["gemv", "trsm", "fft"])
def test_inject_kernel_flag(kernel, capsys):
    code = repro_main(
        ["inject", "--kernel", kernel, "--size", "48", "--errors", "2",
         "--model", "additive", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"kernel {kernel}" in out
    assert "verified : True" in out
    assert "per-site" in out


def test_inject_kernel_rejects_fail_stop(capsys):
    code = repro_main(
        ["inject", "--kernel", "gemv", "--size", "32",
         "--fail-stop", "1:2"]
    )
    assert code == 2
    assert "GEMM thread-team feature" in capsys.readouterr().out


def test_trace_kernel_flag(tmp_path, capsys):
    out_path = str(tmp_path / "fft.json")
    code = repro_main(
        ["trace", "--kernel", "fft", "--size", "32", "--errors", "1",
         "--out", out_path]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel fft" in out and "verified : True" in out
    assert (tmp_path / "fft.json").exists()


def test_serve_kernel_mix_flag(capsys):
    code = repro_main(
        ["serve", "--kernel-mix", "--duration", "0.6",
         "--arrival-rate", "60", "--fault-rate", "0.3", "--seed", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "workload OK" in out
    assert "kernels  :" in out
    for name in ("gemm", "gemv", "trsm", "fft"):
        assert name in out


def test_serve_single_kernel_flag(capsys):
    code = repro_main(
        ["serve", "--kernel", "trsm", "--duration", "0.5",
         "--arrival-rate", "40", "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "kernels  : trsm" in out


def test_serve_rejects_kernel_with_kernel_mix():
    from repro.util.errors import ConfigError

    with pytest.raises(ConfigError, match="kernel-mix"):
        repro_main(
            ["serve", "--kernel-mix", "--kernel", "gemv",
             "--duration", "0.1"]
        )
