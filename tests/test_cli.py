"""Tests for the command-line interface."""

import json
import os
import pathlib

import pytest

from repro.cli import build_parser, main


def test_experiments_list(capsys):
    assert main(["experiments", "--list"]) == 0
    out = capsys.readouterr().out
    assert "table_3_1" in out
    assert "fig_4_16" in out


def test_experiments_single_table(capsys):
    assert main(["experiments", "table_5_1"]) == 0
    out = capsys.readouterr().out
    assert "== table_5_1 ==" in out
    assert "gemm" in out


def test_experiments_unknown_id(capsys):
    assert main(["experiments", "table_nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment ids" in err


def test_simulate_gemm(capsys):
    assert main(["simulate", "gemm", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert "kernel        : gemm" in out
    assert "utilisation" in out


def test_simulate_cholesky_and_fft(capsys):
    assert main(["simulate", "cholesky", "--size", "8"]) == 0
    assert main(["simulate", "fft", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert "cholesky" in out and "fft" in out


def test_simulate_rejects_misaligned_size(capsys):
    assert main(["simulate", "gemm", "--size", "10"]) == 2
    assert "multiple of nr" in capsys.readouterr().err


@pytest.mark.parametrize("kernel,size,nr,needed,store,capacity", [
    ("gemm", 184, 4, 2116, "MEM A", 2048),
    ("syrk", 184, 4, 2116, "MEM A", 2048),
    ("trsm", 184, 4, 2116, "MEM A", 2048),
    ("cholesky", 184, 4, 2116, "MEM A", 2048),
    ("lu", 8196, 4, 2049, "MEM A", 2048),
    ("gemm", 264, 8, 264, "MEM B", 256),
])
def test_simulate_rejects_operands_beyond_the_pe_stores(capsys, kernel, size, nr,
                                                        needed, store, capacity):
    """Operands that overflow a PE store fail cleanly instead of ending in
    the simulator's IndexError traceback."""
    assert main(["simulate", kernel, "--size", str(size), "--nr", str(nr)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == (
        f"simulate failed: {kernel} at size {size} needs {needed} words of {store} "
        f"per PE at nr={nr}; the store holds {capacity}")
    assert captured.out == ""


def test_largest_fitting_sizes_pass_the_store_check():
    from repro.kernels.dispatch import check_size

    check_size("gemm", 180, 4)
    check_size("lu", 8192, 4)
    check_size("fft", 4096, 4)


def test_sweep_rejects_operands_beyond_the_pe_stores(capsys):
    assert main(["sweep", "--runner", "simulate", "--grid", "kernel=gemm",
                 "--grid", "size=16,256", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "sweep failed: gemm at size 256 needs 4096 words of MEM A" in err


def test_design_rejects_a_one_by_one_core(capsys):
    """Bugfix: ``--nr 1`` used to print a LAP of 1x1 cores that no simulator
    or model accepts; it now fails like the other commands."""
    assert main(["design", "--nr", "1"]) == 2
    assert "design failed: core dimension nr must be >= 2" in capsys.readouterr().err
    assert main(["sweep", "--runner", "design", "--set", "nr=1", "--no-cache"]) == 2
    assert "sweep failed: core dimension nr must be >= 2" in capsys.readouterr().err


def test_design_summary(capsys):
    assert main(["design", "--cores", "8", "--frequency", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "gflops_per_w" in out
    assert "area_mm2" in out


def test_simulate_fft_reports_rounded_points(capsys):
    assert main(["simulate", "fft", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert "64-point" in out
    assert "rounded from --size 8" in out


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["simulate", "trsm", "--size", "12", "--nr", "4"])
    assert args.kernel == "trsm"
    assert args.size == 12
    with pytest.raises(SystemExit):
        parser.parse_args(["simulate", "not-a-kernel"])


def test_experiments_json_to_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["experiments", "table_4_1", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert "table_4_1" in payload["experiments"]
    assert payload["experiments"]["table_4_1"]


def test_design_json_to_stdout(capsys):
    assert main(["design", "--cores", "8", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["design"]["cores"] == 8
    assert payload["design"]["gflops_per_w"] > 0


def test_sweep_design_grid_reports_frontier(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--runner", "design", "--grid", "cores=4,8,16,24",
            "--grid", "nr=2,4,8", "--grid", "frequency_ghz=0.5,1.0",
            "--cache-dir", cache]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "24 jobs: 24 executed, 0 cached" in out
    assert "Pareto frontier" in out
    assert "best per metric:" in out

    # Acceptance: the second, warm-cache run executes zero jobs.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 executed, 24 cached" in out


def test_sweep_json_output(tmp_path, capsys):
    argv = ["sweep", "--runner", "design", "--grid", "cores=4,8",
            "--no-cache", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs"] == 2
    assert len(payload["rows"]) == 2
    assert payload["objectives"] == ["gflops", "gflops_per_w", "gflops_per_mm2"]
    assert payload["frontier"]


def test_sweep_zip_and_set(tmp_path, capsys):
    argv = ["sweep", "--runner", "design", "--set", "nr=4",
            "--zip", "cores=4,8", "--zip", "frequency_ghz=1.0,1.4",
            "--no-cache", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs"] == 2
    freqs = [row["frequency_ghz"] for row in payload["rows"]]
    assert freqs == [1.0, 1.4]


def test_sweep_simulate_runner(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--runner", "simulate", "--grid", "kernel=gemm,syrk",
            "--grid", "size=8,16", "--cache-dir", cache, "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 4
    assert {row["kernel"] for row in payload["rows"]} == {"gemm", "syrk"}
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 0 and payload["cached"] == 4


def test_sweep_rejects_empty_spec(capsys):
    assert main(["sweep", "--runner", "design"]) == 2
    assert "no jobs" in capsys.readouterr().err


def test_sweep_rejects_malformed_axis(capsys):
    assert main(["sweep", "--grid", "cores"]) == 2
    assert "--grid expects" in capsys.readouterr().err


def test_simulate_fft_accepts_unaligned_size(capsys):
    # fft derives a radix-4 point count, so the nr-alignment rule of the
    # matrix kernels does not apply (matches the engine's simulate runner).
    assert main(["simulate", "fft", "--size", "10"]) == 0
    assert "64-point" in capsys.readouterr().out


def test_sweep_rejects_duplicate_set(capsys):
    assert main(["sweep", "--set", "nr=2", "--set", "nr=8",
                 "--grid", "cores=4", "--no-cache"]) == 2
    assert "already defined" in capsys.readouterr().err


def test_json_to_unwritable_path_fails_cleanly(capsys):
    assert main(["design", "--json", "/proc/nope/x.json"]) == 2
    assert "cannot write JSON" in capsys.readouterr().err


def test_simulate_rejects_nonpositive_size(capsys):
    assert main(["simulate", "fft", "--size", "0"]) == 2
    assert "size must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", [["simulate", "gemm", "--size", "8"],
                                     ["design", "--json", "-"]],
                         ids=["simulate", "design"])
def test_simulate_and_design_reject_bad_frequency(capsys, command, value):
    """A NaN or infinite clock used to print "GFLOPS @ nan GHz" or write NaN
    into the JSON, and a zero or negative one ended in a traceback."""
    assert main([*command, "--frequency", value]) == 2
    captured = capsys.readouterr()
    assert (f"{command[0]} failed: frequency must be a positive finite number "
            f"of GHz, got {float(value)}") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["design", "--cores", "0"], "num_cores must be at least 1, got 0"),
    (["design", "--local-store-kbytes", "inf"],
     "local_store_kbytes must be a positive finite number of KB, got inf"),
    (["design", "--local-store-kbytes", "nan"],
     "local_store_kbytes must be a positive finite number of KB, got nan"),
    (["design", "--onchip-mbytes", "inf"],
     "onchip_memory_mbytes must be a positive finite number of MB, got inf"),
    (["design", "--onchip-mbytes", "nan"],
     "onchip_memory_mbytes must be a positive finite number of MB, got nan"),
    (["trace", "--set", "onchip_mbytes=inf"],
     "onchip_memory_mbytes must be a positive finite number of MB, got inf"),
    (["trace", "--set", "onchip_mbytes=nan"],
     "onchip_memory_mbytes must be a positive finite number of MB, got nan"),
    (["sweep", "--runner", "design", "--set", "cores=0", "--no-cache"],
     "num_cores must be at least 1, got 0"),
], ids=["design-cores-0", "design-store-inf", "design-store-nan",
        "design-onchip-inf", "design-onchip-nan", "trace-onchip-inf",
        "trace-onchip-nan", "sweep-cores-0"])
def test_chip_sizes_are_validated_by_name(tmp_path, capsys, argv, message):
    """A zero-core chip used to print a 0-GFLOPS design point, and an infinite
    or NaN size ended in a traceback or an error naming no parameter."""
    if argv[0] == "trace":
        argv = [*argv, "--out", str(tmp_path / "t.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{argv[0]} failed: {message}" in captured.err
    assert not (tmp_path / "t.json").exists()


def test_sweep_rejects_nonfinite_axis_value(capsys):
    assert main(["sweep", "--runner", "design", "--grid", "cores=inf",
                 "--no-cache"]) == 2
    assert "sweep failed" in capsys.readouterr().err


def test_cached_sweep_rejects_nonfinite_value_by_name(tmp_path, capsys):
    """A non-finite value fails before any job runs or any key is hashed,
    and the message names the parameter."""
    assert main(["sweep", "--runner", "lap_runtime", "--set", "algorithm=cholesky",
                 "--set", "n=32", "--set", "tile=8",
                 "--grid", "bandwidth_gbs=inf",
                 "--cache-dir", str(tmp_path / "cache")]) == 2
    err = capsys.readouterr().err
    assert "sweep failed" in err and "bandwidth_gbs" in err


def test_sweep_names_a_negative_offchip_energy(capsys):
    """The off-chip energy has one check, which names the parameter in
    its unit (LAPRuntime raises the same message)."""
    assert main(["sweep", "--runner", "lap_runtime", "--set", "algorithm=cholesky",
                 "--set", "n=32", "--set", "tile=8", "--set", "timing=memoized",
                 "--set", "verify=false", "--set", "offchip_pj_per_byte=-1",
                 "--no-cache", "--mode", "serial"]) == 2
    assert ("sweep failed: offchip_pj_per_byte must be a non-negative finite "
            "number of pJ/byte, got -1.0") in capsys.readouterr().err


@pytest.mark.parametrize("runner, setting", [
    ("lap_runtime", "verify=off"),
    ("lap_runtime", "verify=no"),
    ("lap_runtime", "memory=off"),
    ("blocked_fact", "use_extension=off"),
    ("blas", "full_overlap=off"),
    ("chip_gemm_onchip", "full_overlap=2"),
])
def test_sweep_rejects_a_flag_that_is_not_boolean(capsys, runner, setting):
    """Bugfix: flags were read by truthiness, so ``verify=off`` ran verified
    rows with a residual, ``use_extension=off`` priced the extension and
    ``full_overlap=off`` overlapped.  A flag takes true, false, 0 or 1."""
    assert main(["sweep", "--runner", runner, "--set", setting,
                 "--no-cache"]) == 2
    name, value = setting.split("=")
    err = capsys.readouterr().err
    assert (f"sweep failed: parameter '{name}' must be true, false, 0 or 1, "
            f"got ") in err and value in err


@pytest.mark.parametrize("value", ["true", "false", "0", "1"])
def test_sweep_accepts_boolean_flags(capsys, value):
    assert main(["sweep", "--runner", "blas", "--set", f"full_overlap={value}",
                 "--no-cache"]) == 0
    assert "1 executed" in capsys.readouterr().out


def test_sweep_best_per_metric_lists_float_axes(capsys):
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--grid", "frequency_ghz=0.5,1.0", "--no-cache"]) == 0
    out = capsys.readouterr().out
    best_lines = out.split("best per metric:")[1]
    assert "frequency_ghz=" in best_lines


def test_sweep_rejects_duplicate_axis_cleanly(capsys):
    assert main(["sweep", "--grid", "cores=4,8", "--grid", "cores=16",
                 "--no-cache"]) == 2
    assert "already defined" in capsys.readouterr().err


def test_sweep_rejects_duplicate_zip_axis(capsys):
    assert main(["sweep", "--zip", "cores=4,8", "--zip", "cores=16,32",
                 "--no-cache"]) == 2
    assert "already defined" in capsys.readouterr().err


def test_sweep_unusable_cache_dir_degrades_to_no_cache(tmp_path, capsys):
    blocker = tmp_path / "cachefile"
    blocker.write_text("not a directory")
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--cache-dir", str(blocker)]) == 0
    captured = capsys.readouterr()
    assert "cache directory unusable" in captured.err
    assert "2 executed" in captured.out


def test_sweep_rejects_zip_length_mismatch_cleanly(capsys):
    assert main(["sweep", "--zip", "cores=4,8", "--zip", "nr=2",
                 "--no-cache"]) == 2
    assert "equal lengths" in capsys.readouterr().err


def test_sweep_warns_on_unknown_parameter(capsys):
    assert main(["sweep", "--runner", "design", "--grid", "coresz=4,8",
                 "--no-cache"]) == 0
    err = capsys.readouterr().err
    assert "ignores parameter(s) coresz" in err


def test_sweep_rejects_unknown_objective(capsys):
    argv = ["sweep", "--runner", "design", "--grid", "cores=4,8",
            "--no-cache", "--objectives", "not_a_column"]
    assert main(argv) == 2
    assert "sweep failed" in capsys.readouterr().err


def test_sweep_lists_new_runner_families():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--runner", "lap_runtime",
                              "--grid", "n=16"])
    assert args.runner == "lap_runtime"
    args = parser.parse_args(["sweep", "--runner", "blocked_fact",
                              "--grid", "method=lu"])
    assert args.runner == "blocked_fact"
    for runner in ("chip_gemm_onchip", "blas", "fact_kernel"):
        assert parser.parse_args(["sweep", "--runner", runner,
                                  "--grid", "n=512"]).runner == runner


def test_sweep_lap_runtime_runner_end_to_end(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--runner", "lap_runtime", "--set", "algorithm=gemm",
            "--set", "tile=8", "--set", "num_cores=2", "--grid", "n=16,24",
            "--cache-dir", cache, "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 2
    assert all(row["residual"] < 1e-9 for row in payload["rows"])
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 0 and payload["cached"] == 2


def test_sweep_policy_comparison_end_to_end(tmp_path, capsys):
    """Acceptance: the policy-comparison sweep runs through the cached,
    parallel engine from the CLI (policies x cores, LU/QR workloads)."""
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--runner", "lap_runtime",
            "--grid", "policy=greedy,critical_path,locality",
            "--grid", "num_cores=1,2", "--grid", "algorithm=lu,qr",
            "--set", "n=16", "--set", "tile=8", "--set", "timing=memoized",
            "--cache-dir", cache, "--mode", "process", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 12
    assert {row["policy"] for row in payload["rows"]} == {
        "greedy", "critical_path", "locality"}
    assert all(row["residual"] < 1e-9 for row in payload["rows"])
    # Warm-cache rerun: every policy point comes back from the cache.
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 0 and payload["cached"] == 12


def test_experiments_lists_runtime_policy_sweep(capsys):
    assert main(["experiments", "--list"]) == 0
    assert "runtime_policies" in capsys.readouterr().out


def test_sweep_blocked_fact_runner_end_to_end(capsys):
    argv = ["sweep", "--runner", "blocked_fact", "--grid",
            "method=cholesky,lu,qr", "--set", "n=8", "--no-cache", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {row["method"] for row in payload["rows"]} == {"cholesky", "lu", "qr"}
    assert all(row["residual"] < 1e-8 for row in payload["rows"])


# ------------------------------------------------------------------- cache
def _seed_cache(tmp_path, capsys, jobs=4):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "--runner", "design", "--grid",
                 "cores=" + ",".join(str(4 * (i + 1)) for i in range(jobs)),
                 "--cache-dir", cache_dir, "--json", os.devnull]) == 0
    capsys.readouterr()  # drain the sweep's output before the cache command
    return cache_dir


def test_cache_stats(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries       : 4" in out
    assert "size_mbytes" in out


def test_cache_stats_json(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "stats", "--cache-dir", cache_dir,
                 "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["entries"] == 4
    assert payload["cache"]["size_bytes"] > 0


def test_cache_prune_to_entry_budget(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "prune", "--cache-dir", cache_dir,
                 "--max-entries", "1"]) == 0
    assert "pruned 3 entries; 1 left" in capsys.readouterr().out


def test_cache_prune_and_clear_honor_json(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "prune", "--cache-dir", cache_dir,
                 "--max-entries", "2", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["action"] == "prune"
    assert payload["cache"]["removed"] == 2
    assert payload["cache"]["entries"] == 2
    assert main(["cache", "clear", "--cache-dir", cache_dir,
                 "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"] == {"action": "clear", "removed": 2,
                                "directory": cache_dir}


def test_cache_prune_to_size_budget(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "prune", "--cache-dir", cache_dir,
                 "--max-mb", "0.0001"]) == 0
    out = capsys.readouterr().out
    assert "pruned" in out
    assert main(["cache", "stats", "--cache-dir", cache_dir, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["size_bytes"] <= 0.0001 * 2 ** 20


def test_cache_prune_without_limits_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "prune", "--cache-dir", cache_dir]) == 2
    assert "needs a limit" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--max-mb", "nan"), ("--max-mb", "inf"),
                                        ("--max-mb", "0"), ("--max-entries", "-1")])
def test_cache_prune_rejects_unusable_budgets(tmp_path, capsys, flag, value):
    """A NaN or infinite --max-mb used to end in a traceback, and
    --max-entries -1 pruned every entry."""
    cache_dir = _seed_cache(tmp_path, capsys)
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "prune", "--cache-dir", cache_dir, flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert main(["cache", "stats", "--cache-dir", cache_dir, "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["cache"]["entries"] == 4


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_serve_rejects_non_finite_budget(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--cache-dir", str(tmp_path), "--port", "0",
              "--max-mb", value])
    assert excinfo.value.code == 2
    assert "argument --max-mb: must be a positive finite number" in capsys.readouterr().err


def test_sweep_runs_unlimited_on_non_finite_env_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "nan")
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    captured = capsys.readouterr()
    assert "REPRO_CACHE_MAX_MB=nan is not a positive finite number" in captured.err
    assert "2 executed" in captured.out


def test_cache_clear(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 4 cache entries" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["entries"] == 0


def test_cache_clear_missing_directory_fails_cleanly(tmp_path, capsys):
    assert main(["cache", "clear", "--cache-dir",
                 str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cache_stats_missing_directory_does_not_create_it(tmp_path, capsys):
    target = tmp_path / "nope"
    assert main(["cache", "stats", "--cache-dir", str(target)]) == 0
    assert "does not exist yet" in capsys.readouterr().out
    assert not target.exists()
    assert main(["cache", "stats", "--cache-dir", str(target),
                 "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"] == {"directory": str(target), "exists": False,
                                "entries": 0, "size_bytes": 0}
    assert not target.exists()


# --------------------------------------------------------- trace / report
def _sets(*assignments):
    """``--set`` arguments, one per ``NAME=VALUE``."""
    return [arg for text in assignments for arg in ("--set", text)]


#: The point the trace tests run: a 64^2 Cholesky in 16^2 tiles on two
#: cores, 4 MB on chip and memoized timing, where the golden trace was
#: recorded.
TRACE_POINT = _sets("algorithm=cholesky", "n=64", "tile=16", "num_cores=2",
                    "onchip_mbytes=4", "timing=memoized")

#: Memory pressure on that point: spills, a two-level hierarchy, overlap.
TRACE_PRESSURE = _sets("on_chip_kb=8", "bandwidth_gbs=8", "local_store_kb=2",
                       "stall_overlap=0.5")


def _trace(tmp_path, capsys, *extra):
    out = str(tmp_path / "t.trace.json")
    assert main(["trace", *TRACE_POINT, "--out", out, *extra]) == 0
    return out, capsys.readouterr().out


def test_trace_writes_valid_chrome_trace(tmp_path, capsys):
    from repro.obs import validate_chrome_trace

    out, printed = _trace(tmp_path, capsys)
    assert "makespan" in printed and "TOTAL" in printed
    assert "compute%" in printed and "idle%" in printed
    with open(out) as handle:
        payload = json.load(handle)
    events = validate_chrome_trace(payload)
    tasks = [e for e in events if e.get("cat") == "task"]
    assert tasks and {e["tid"] for e in tasks} == {0, 1}
    assert all("compute_cycles" in e["args"] for e in tasks)
    meta = payload["metadata"]
    assert meta["time_unit"] == "cycles"
    assert meta["params"]["algorithm"] == "cholesky"
    attribution = meta["cycle_attribution"]
    assert attribution["num_cores"] == 2
    assert sum(attribution["totals"].values()) == pytest.approx(
        attribution["total_cycles"], rel=1e-6)


def test_trace_with_memory_pressure_reports_stalls(tmp_path, capsys):
    out, printed = _trace(tmp_path, capsys, *TRACE_PRESSURE)
    with open(out) as handle:
        totals = json.load(handle)["metadata"]["cycle_attribution"]["totals"]
    assert totals["spill_stall"] > 0 and totals["transfer"] > 0


TRACE_GOLDEN = (pathlib.Path(__file__).resolve().parent / "goldens" / "trace"
                / "cholesky_n64.trace.json")


def test_trace_reproduces_golden(tmp_path, capsys):
    """The trace rebuilt from the execution rows after the scheduler loop
    reproduces the committed trace of the instrumented loop it replaced:
    every span (names, tracks, times, cycle and byte args), the counter
    series, the idle gaps and the cycle attribution."""
    out, _ = _trace(tmp_path, capsys, *TRACE_PRESSURE)
    with open(out) as handle:
        payload = json.load(handle)
    golden = json.loads(TRACE_GOLDEN.read_text())
    assert payload["traceEvents"] == golden["traceEvents"]
    assert (payload["metadata"]["cycle_attribution"]
            == golden["metadata"]["cycle_attribution"])
    for name in ("makespan_cycles", "energy_j"):
        assert (payload["metadata"]["row"][name]
                == golden["metadata"]["stats"][name])
    tasks = [e for e in golden["traceEvents"] if e.get("cat") == "task"]
    for key in ("shared_to_local_bytes", "compulsory_bytes", "hidden_cycles"):
        assert any(key in e["args"] for e in tasks), key


#: An 8-core chip with 4 MB on chip, under memoized timing.
EIGHT_CORES = _sets("num_cores=8", "onchip_mbytes=4", "timing=memoized")


def test_trace_rejects_bad_geometry(tmp_path, capsys):
    assert main(["trace", *_sets("algorithm=cholesky", "n=60", "tile=16"),
                 *EIGHT_CORES, "--out", str(tmp_path / "x.json")]) == 2
    assert "trace failed" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    _sets("n=64", "tile=8", "on_chip_kb=6", "bandwidth_gbs=nan"),
    _sets("n=32", "tile=8", "bandwidth_gbs=inf"),
])
def test_trace_rejects_non_finite_bandwidth(tmp_path, capsys, extra):
    """A non-finite bandwidth used to give an inf makespan and a trace file
    full of NaN and Infinity tokens, which strict JSON parsers reject."""
    out = tmp_path / "x.json"
    assert main(["trace", "--set", "algorithm=cholesky", *EIGHT_CORES,
                 *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "trace failed: bandwidth must be a positive finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--runner", "lap_runtime", "--set", "n=32.5", "--no-cache",
      "--json"], "sweep failed: parameter 'n' must be an integer, got 32.5"),
    (["sweep", "--runner", "blocked_fact", "--set", "n=8.5", "--no-cache",
      "--json"], "sweep failed: parameter 'n' must be an integer, got 8.5"),
    (["trace", "--set", "n=16.5", "--out"],
     "trace failed: parameter 'n' must be an integer, got 16.5"),
    (["trace", "--set", "n=inf", "--out"],
     "trace failed: parameter 'n' must be an integer, got inf"),
])
def test_integer_parameters_are_checked_not_truncated(tmp_path, capsys, argv,
                                                      message):
    """Bugfix: ``n=32.5`` wrote a row for the n=32 point, ``blocked_fact``
    ran ``n=8.5`` as n=8, and ``trace --set n=inf`` printed ``cannot
    convert float infinity to integer``, naming no parameter."""
    out = tmp_path / "out.json"
    assert main([*argv, str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("on_chip_kb=0",
     "on_chip_kb must be a positive finite number of KiB, got 0.0"),
    ("local_store_kb=0",
     "local_store_kb must be a positive finite number of KiB, got 0.0"),
    ("bandwidth_gbs=16GB", "parameter 'bandwidth_gbs' must be a number, "
                           "got '16GB'"),
    ("core_frequencies_ghz=1:abc", "parameter 'core_frequencies_ghz' must "
                                   "be a number, got 'abc'"),
    ("seed=-1", "parameter 'seed' must be a non-negative integer, got -1"),
])
def test_sweep_names_an_unusable_parameter_and_its_value(capsys, setting,
                                                         message):
    """Bugfix: ``on_chip_kb=0`` failed with ``on-chip capacity must be a
    positive finite number`` (and ``local_store_kb=0`` alike), naming
    neither the parameter nor the value, and so did a real parameter
    ``float()`` rejects or a negative seed."""
    assert main(["sweep", "--runner", "lap_runtime", "--set", setting,
                 "--no-cache", "--mode", "serial"]) == 2
    assert f"sweep failed: {message}" in capsys.readouterr().err


def test_trace_checks_its_job_before_simulating(tmp_path, capsys, monkeypatch):
    """``trace`` applies a sweep job's checks to its ``--set`` values, so a
    NaN exits 2 before the point simulates, not when its metadata fails to
    encode as strict JSON."""
    from repro.engine import runners

    def simulate(point):
        raise AssertionError("the point simulated")

    monkeypatch.setattr(runners, "simulate_lap_runtime", simulate)
    out = tmp_path / "x.json"
    assert main(["trace", "--set", "foo=nan", "--out", str(out)]) == 2
    assert ("trace failed: sweep parameter 'foo' must be finite, got nan"
            in capsys.readouterr().err)
    assert not out.exists()


#: Jobs whose traced row must be the sweep's row: the four algorithms,
#: and each parameter the trace's own flags could not set.
TRACED_JOBS = [
    {"algorithm": "gemm", "n": 32, "tile": 8, "frequency_ghz": 1.4},
    {"algorithm": "cholesky", "n": 64, "tile": 16, "timing": "memoized",
     "offchip_pj_per_byte": 30.0},
    {"algorithm": "lu", "n": 32, "tile": 8, "core_frequencies_ghz": "1.0:2.0"},
    {"algorithm": "qr", "n": 32, "tile": 8, "timing": "memoized",
     "verify": False},
]


def _traced(tmp_path, params):
    """The ``metadata`` of ``repro trace`` of the job ``params``."""
    from repro.obs.chrome import read_trace_metadata

    out = tmp_path / "t.trace.json"
    assert main(["trace", *_sets(*(f"{name}={value}" for name, value
                                   in params.items())),
                 "--out", str(out)]) == 0
    return read_trace_metadata(out)


@pytest.mark.parametrize("params", TRACED_JOBS,
                         ids=lambda params: params["algorithm"])
def test_trace_row_is_the_sweep_row(tmp_path, capsys, params):
    """A trace holds its job and the ``lap_runtime`` runner's row for it,
    values and column order: the trace and the sweep state a point once."""
    from scheduler_oracle import resimulated_row

    metadata = _traced(tmp_path, params)
    assert metadata["params"] == params
    row = resimulated_row(params)
    assert list(metadata["row"].items()) == list(row.items())
    if params.get("verify") is False:
        assert row["residual"] is None


def test_trace_row_is_the_replayed_sweep_row(tmp_path, capsys):
    """A bandwidth delta the sweep replays traces to the replayed row, and
    the trace itself neither replays nor records a schedule."""
    from repro.engine import runners
    from repro.lap.replay import REPLAY_STATS

    job = {"algorithm": "cholesky", "n": 64, "tile": 16,
           "timing": "memoized", "verify": False}
    runners._REPLAY_MEMO.clear()
    runners.configure_worker(None)
    try:
        runners.run_lap_runtime({**job, "bandwidth_gbs": 16.0})
        replayed = REPLAY_STATS["replayed"]
        row = runners.run_lap_runtime({**job, "bandwidth_gbs": 64.0})
        assert REPLAY_STATS["replayed"] == replayed + 1
        counts = dict(REPLAY_STATS)
        metadata = _traced(tmp_path, {**job, "bandwidth_gbs": 64.0})
        assert REPLAY_STATS == counts
    finally:
        runners._REPLAY_MEMO.clear()
    assert list(metadata["row"].items()) == list(row.items())


def test_report_from_trace(tmp_path, capsys):
    out, _ = _trace(tmp_path, capsys)
    assert main(["report", "--trace", out]) == 0
    printed = capsys.readouterr().out
    assert "cycle attribution" in printed and "TOTAL" in printed
    assert "algorithm=cholesky" in printed


def _break_params(metadata):
    metadata["params"] = "cholesky"


def _break_with_nan(metadata):
    metadata["cycle_attribution"]["per_core"][0]["idle"] = float("nan")


def _break_conservation(metadata):
    metadata["cycle_attribution"]["per_core"][1]["compute"] *= 2


@pytest.mark.parametrize("corrupt, reason", [
    (_break_params, "metadata.params is 'cholesky', not an object"),
    (_break_with_nan, "core 0 attribution is not finite"),
    (_break_conservation, "core 1 attribution does not conserve"),
])
def test_report_rejects_a_trace_it_cannot_print(tmp_path, capsys, corrupt,
                                                reason):
    """A trace whose params are not an object, or whose attribution is not
    finite or does not tile cores x makespan, exits 2 naming the reason,
    instead of crashing or printing a NaN table."""
    out, _ = _trace(tmp_path, capsys)
    with open(out) as handle:
        payload = json.load(handle)
    corrupt(payload["metadata"])
    with open(out, "w") as handle:
        handle.write('{"displayTimeUnit":"ns","metadata":'
                     + json.dumps(payload["metadata"], separators=(",", ":"))
                     + ',"traceEvents":[\n]}\n')
    assert main(["report", "--trace", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read attribution from '{out}': ")
    assert reason in captured.err


def test_report_rejects_a_trace_in_another_layout(tmp_path, capsys):
    """The report reads only the writer's header line; the same payload
    re-encoded with other separators is not a trace it can read."""
    out, _ = _trace(tmp_path, capsys)
    with open(out) as handle:
        payload = json.load(handle)
    with open(out, "w") as handle:
        json.dump(payload, handle)
    assert main(["report", "--trace", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read attribution from '{out}': "
                                   "its first line is not a trace header")


def test_report_reads_only_the_trace_header(tmp_path, capsys):
    """Reporting a 100,000-event trace parses its first line alone: it
    allocates under 1 MiB, where loading the whole file took megabytes."""
    import itertools
    import tracemalloc

    out, _ = _trace(tmp_path, capsys)
    lines = pathlib.Path(out).read_text().splitlines()
    events = [line.rstrip(",") for line in lines[1:-1]]
    big = tmp_path / "big.trace.json"
    big.write_text(lines[0] + "\n" + ",\n".join(
        itertools.islice(itertools.cycle(events), 100_000)) + "\n]}\n")
    assert main(["report", "--trace", out]) == 0
    expected = capsys.readouterr().out
    tracemalloc.start()
    try:
        assert main(["report", "--trace", str(big)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == expected
    assert peak < 2 ** 20, peak


def test_report_from_manifest_and_json(tmp_path, capsys):
    rows = str(tmp_path / "rows.json")
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--cache-dir", str(tmp_path / "cache"), "--json", rows]) == 0
    capsys.readouterr()
    manifest = rows + ".manifest.json"
    assert os.path.exists(manifest)
    assert main(["report", "--manifest", manifest]) == 0
    printed = capsys.readouterr().out
    assert "sweep telemetry [design]" in printed
    assert "2 jobs" in printed and "hit rate" in printed
    assert main(["report", "--trace", _trace(tmp_path, capsys)[0],
                 "--manifest", manifest, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["schema"] == "repro.obs.run_manifest/v1"
    assert payload["trace"]["cycle_attribution"]["num_cores"] == 2


def test_sweep_stream_live_progress_and_manifest(tmp_path, capsys):
    rows = str(tmp_path / "rows.json")
    argv = ["sweep", "--runner", "design", "--grid", "cores=4,8,16",
            "--grid", "nr=2,4", "--cache-dir", str(tmp_path / "cache"),
            "--stream", "--json", rows]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "6/6 rows" in captured.err
    assert "% cached" in captured.err
    assert "frontier" in captured.err
    manifest = rows + ".manifest.json"
    with open(manifest) as handle:
        streaming = json.load(handle)["streaming"]
    assert streaming["first_row_s"] is not None
    assert streaming["last_row_s"] >= streaming["first_row_s"]

    # The warm streaming re-run reports a 100% hit-rate live.
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "100% cached" in captured.err
    with open(rows) as handle:
        payload = json.load(handle)
    assert payload["executed"] == 0 and payload["cached"] == 6

    # `repro report` surfaces the recorded streaming latencies.
    assert main(["report", "--manifest", manifest]) == 0
    assert "streaming     : first row" in capsys.readouterr().out


def test_sweep_stream_non_tty_emits_newline_updates(tmp_path, capsys):
    """Captured (non-TTY) stderr gets plain newline-delimited progress --
    no carriage-return animation -- and the final state always renders,
    even when 10 Hz throttling swallows intermediate redraws."""
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8,16",
                 "--no-cache", "--stream", "--json", os.devnull]) == 0
    err = capsys.readouterr().err
    assert "\r" not in err
    lines = [line for line in err.splitlines() if "rows" in line]
    assert lines and lines[-1].startswith("3/3 rows")


def test_sweep_stream_rows_match_batch(tmp_path, capsys):
    batch = ["sweep", "--runner", "design", "--grid", "cores=4,8",
             "--no-cache", "--json", "-"]
    assert main(batch) == 0
    expected = json.loads(capsys.readouterr().out)["rows"]
    assert main(batch + ["--stream"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == expected


def test_sweep_explicit_manifest_path(tmp_path, capsys):
    target = str(tmp_path / "custom.manifest.json")
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--manifest", target, "--json", os.devnull]) == 0
    capsys.readouterr()
    with open(target) as handle:
        manifest = json.load(handle)
    assert manifest["jobs"] == 2 and manifest["runner"] == "design"


def test_report_requires_an_input(capsys):
    assert main(["report"]) == 2
    assert "nothing to report" in capsys.readouterr().err


def test_report_missing_trace_fails_cleanly(tmp_path, capsys):
    assert main(["report", "--trace", str(tmp_path / "nope.json")]) == 2
    assert "cannot read attribution" in capsys.readouterr().err


@pytest.mark.parametrize("document,reason", [
    ([], "not a JSON object"),
    ({"elapsed_s": None}, "schema is None"),
    ({"latency": {"count": 2}}, "schema is None"),
    ({"schema": "repro.obs.run_manifest/v1", "elapsed_s": None},
     "'elapsed_s' is None, not a number"),
    ({"schema": "repro.obs.run_manifest/v1", "latency": {"count": 2}},
     "'latency.mean_s' is None, not a number"),
    ({"schema": "repro.obs.run_manifest/v1", "cache": [1]},
     "'cache' is not an object"),
    ({"schema": "repro.obs.run_manifest/v1", "shards": [1]},
     "'shards' is not a list of objects"),
])
def test_report_rejects_what_is_not_a_run_manifest(tmp_path, capsys, document,
                                                   reason):
    """Bugfix: JSON that is not a run manifest ended in a traceback."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document))
    assert main(["report", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read run manifest '{path}': {reason}" in err


def test_cache_stats_reports_lifetime_counters(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    _seed_cache(tmp_path, capsys)  # warm second run: all hits
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "hits          : 4 (lifetime)" in out
    assert "misses        : 4 (lifetime)" in out
    assert "hit_rate      : 50.0% (lifetime)" in out


# ------------------------------------------------------------------- serve
@pytest.mark.parametrize("argv,flag", [
    (["serve", "--port", "70000"], "--port"),
    (["serve", "--port", "-1"], "--port"),
    (["experiments", "table_4_1", "--max-rows", "-1"], "--max-rows"),
    (["sweep", "--runner", "design", "--grid", "cores=4,8", "--no-cache",
      "--max-rows", "-1"], "--max-rows"),
    (["report", "--manifest", "m.json", "--max-rows", "-1"], "--max-rows"),
])
def test_integer_flags_are_range_checked(capsys, argv, flag):
    """Bugfix: a port outside 0-65535 ended in an OverflowError traceback,
    and a negative --max-rows silently dropped rows from the table."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be " in capsys.readouterr().err


def test_sweep_max_rows_zero_prints_no_rows(capsys):
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--no-cache", "--objectives", "gflops", "--max-rows", "0"]) == 0
    assert "... (1 more rows)" in capsys.readouterr().out


def test_sweep_server_without_local_tier_warns_and_runs(capsys):
    assert main(["sweep", "--runner", "design", "--set", "nr=4",
                 "--grid", "cores=2,4", "--mode", "serial", "--no-cache",
                 "--server", "http://127.0.0.1:1"]) == 0
    captured = capsys.readouterr()
    assert "ignoring --server" in captured.err
    assert "2 jobs" in captured.out


def test_serve_rejects_unusable_cache_dir(capsys):
    assert main(["serve", "--cache-dir", "/proc/nope/x"]) == 2
    assert "unusable" in capsys.readouterr().err


def test_sweep_against_live_server_deduplicates(tmp_path, capsys):
    from repro.serve import ServeDaemon

    daemon = ServeDaemon(tmp_path / "server", quiet=True).start()
    try:
        base = ["sweep", "--runner", "design", "--set", "nr=4",
                "--grid", "cores=2,4", "--mode", "serial",
                "--server", daemon.url, "--json", "-"]
        assert main(base + ["--cache-dir", str(tmp_path / "a")]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["executed"] == 2

        # A second client with an empty local cache resolves everything
        # through the shared server tier.
        assert main(base + ["--cache-dir", str(tmp_path / "b")]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["executed"] == 0
        assert second["cached"] == 2
        assert json.dumps(second["rows"]) == json.dumps(first["rows"])
    finally:
        daemon.stop()
