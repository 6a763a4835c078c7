"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.backends import DEFAULT_BACKEND
from repro.circuits import qasm
from repro.cli import build_parser, load_noisy, main, read_manifest
from repro.library import qft


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "qft3.qasm"
    qasm.dump(qft(3), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_check_defaults(self, qasm_file):
        args = build_parser().parse_args(["check", qasm_file])
        assert args.epsilon == 0.01
        assert args.algorithm == "auto"


class TestLoadNoisy:
    def test_random_insertion(self, qasm_file):
        args = build_parser().parse_args(
            ["check", qasm_file, "--noises", "3", "--seed", "1"]
        )
        ideal, noisy = load_noisy(args)
        assert noisy.num_noise_sites == 3
        assert ideal.num_gates == noisy.num_gates

    def test_every_gate(self, qasm_file):
        args = build_parser().parse_args(
            ["check", qasm_file, "--every-gate"]
        )
        _, noisy = load_noisy(args)
        assert noisy.num_noise_sites > qft(3).num_gates  # 2q gates get 2

    def test_channel_selection(self, qasm_file):
        args = build_parser().parse_args(
            ["check", qasm_file, "--noises", "1", "--channel", "bit_flip"]
        )
        _, noisy = load_noisy(args)
        assert noisy.noise_instructions()[0].name == "bit_flip"


class TestCommands:
    def test_check_equivalent_exit_zero(self, qasm_file, capsys):
        code = main(["check", qasm_file, "--noises", "2", "--epsilon", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "EQUIVALENT" in out

    def test_check_not_equivalent_exit_one(self, qasm_file, capsys):
        code = main([
            "check", qasm_file, "--noises", "4", "--p", "0.5",
            "--epsilon", "0.01", "--algorithm", "alg2",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT EQUIVALENT" in out

    def test_fidelity_prints_number(self, qasm_file, capsys):
        code = main(["fidelity", qasm_file, "--noises", "2"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert 0.9 < float(out) <= 1.0

    def test_fidelity_algorithms_agree(self, qasm_file, capsys):
        main(["fidelity", qasm_file, "--noises", "2", "--algorithm", "alg1"])
        f1 = float(capsys.readouterr().out.strip())
        main(["fidelity", qasm_file, "--noises", "2", "--algorithm", "alg2"])
        f2 = float(capsys.readouterr().out.strip())
        assert np.isclose(f1, f2, atol=1e-8)

    def test_fidelity_dense_choice(self, qasm_file, capsys):
        """The dense baseline is a first-class fidelity algorithm."""
        main(["fidelity", qasm_file, "--noises", "2", "--algorithm", "dense"])
        dense = float(capsys.readouterr().out.strip())
        main(["fidelity", qasm_file, "--noises", "2", "--algorithm", "alg2"])
        alg2 = float(capsys.readouterr().out.strip())
        assert np.isclose(dense, alg2, atol=1e-8)

    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    def test_fidelity_backend_flag(self, qasm_file, capsys, backend):
        code = main([
            "fidelity", qasm_file, "--noises", "2", "--backend", backend,
        ])
        assert code == 0
        assert 0.9 < float(capsys.readouterr().out.strip()) <= 1.0


class TestJsonOutput:
    def test_check_json_contains_required_fields(self, qasm_file, capsys):
        code = main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["verdict"] == "EQUIVALENT"
        assert record["backend"] == "einsum"
        assert record["stats"]["backend"] == "einsum"
        assert 0.9 < record["fidelity"] <= 1.0
        assert record["time_seconds"] >= 0
        assert record["stats"]["algorithm"] == record["algorithm"]

    def test_check_json_backend_selection(self, qasm_file, capsys):
        main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--backend", "tdd", "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert record["backend"] == "tdd"
        assert record["stats"]["max_nodes"] > 0

    def test_check_json_roundtrips_direct_result(self, qasm_file, capsys):
        from repro import CheckConfig, CheckSession
        from repro.noise import insert_random_noise

        main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        ideal = qasm.load(qasm_file)
        noisy = insert_random_noise(ideal, 2, seed=0)
        direct = CheckSession(CheckConfig(epsilon=0.05)).check(ideal, noisy)
        assert record["equivalent"] == direct.equivalent
        assert np.isclose(record["fidelity"], direct.fidelity, atol=1e-12)


class TestBatch:
    @pytest.fixture
    def manifest(self, tmp_path, qasm_file):
        other = tmp_path / "qft2.qasm"
        qasm.dump(qft(2), other)
        path = tmp_path / "manifest.txt"
        path.write_text(
            "# ideal [noisy]\n"
            f"{qasm_file}\n"
            f"{other} {other}\n"
            "\n"
        )
        return str(path)

    def test_read_manifest(self, manifest):
        entries = list(read_manifest(manifest))
        assert len(entries) == 2
        assert entries[0][1] is None
        assert entries[1][1] is not None

    def test_read_manifest_rejects_extra_fields(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a.qasm b.qasm c.qasm\n")
        with pytest.raises(ValueError):
            list(read_manifest(str(bad)))

    def test_batch_streams_jsonl(self, manifest, qasm_file, capsys):
        code = main([
            "batch", manifest, "--noises", "1", "--epsilon", "0.05",
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["ideal"] == qasm_file
        for record in records:
            assert record["verdict"] == "EQUIVALENT"
            assert record["backend"] == "einsum"
            assert 0.9 < record["fidelity"] <= 1.0

    def test_batch_jsonl_roundtrips_direct_check(self, manifest, capsys):
        """JSONL records carry the same verdict/fidelity as direct checks."""
        from repro import CheckConfig, CheckSession
        from repro.noise import insert_random_noise

        main([
            "batch", manifest, "--noises", "1", "--epsilon", "0.05",
            "--backend", "einsum",
        ])
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        session = CheckSession(CheckConfig(epsilon=0.05, backend="einsum"))
        for record in records:
            ideal = qasm.load(record["ideal"])
            base = qasm.load(record["noisy"])
            noisy = insert_random_noise(base, 1, seed=0)
            direct = session.check(ideal, noisy)
            assert record["equivalent"] == direct.equivalent
            assert np.isclose(record["fidelity"], direct.fidelity, atol=1e-12)


class TestPlanCommand:
    def test_plan_prints_report_without_contracting(self, qasm_file, capsys,
                                                    monkeypatch):
        """`repro plan` must never execute a contraction."""
        from repro.backends import DenseBackend, NumpyEinsumBackend, TddBackend
        from repro.tensornet import TensorNetwork

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("plan command contracted a network")

        # Patch the concrete classes (they override the ABC method) and
        # the raw dense engine, so any contraction path trips the guard.
        for cls in (DenseBackend, NumpyEinsumBackend, TddBackend):
            monkeypatch.setattr(cls, "contract_scalar", boom)
        monkeypatch.setattr(TensorNetwork, "contract", boom)
        code = main(["plan", qasm_file, "--noises", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "steps" in out
        assert "predicted flops" in out
        assert "peak intermediate" in out
        assert "width" in out

    def test_plan_json_fields(self, qasm_file, capsys):
        code = main([
            "plan", qasm_file, "--noises", "1", "--algorithm", "alg1",
            "--order-method", "anneal", "--plan-budget", "0.01", "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["planner"] == "anneal"
        assert record["algorithm"] == "alg1"
        assert record["num_steps"] == len(record["steps"])
        assert record["num_slices"] == 1
        assert record["total_cost"] > 0

    def test_plan_slicing_caps_peak(self, qasm_file, capsys):
        # three noises: one leaves a shrunk qft3 miter of scalars only
        main(["plan", qasm_file, "--noises", "3", "--json"])
        unsliced = json.loads(capsys.readouterr().out)
        bound = unsliced["peak_intermediate_size"] // 4
        main([
            "plan", qasm_file, "--noises", "3", "--json",
            "--max-intermediate", str(bound),
        ])
        sliced = json.loads(capsys.readouterr().out)
        assert sliced["peak_intermediate_size"] <= bound
        assert sliced["num_slices"] > 1

    def test_plan_max_steps_truncates(self, qasm_file, capsys):
        main(["plan", qasm_file, "--noises", "1", "--max-steps", "2"])
        out = capsys.readouterr().out
        assert "more steps" in out

    def test_removed_planner_flag_is_rejected(self, qasm_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", qasm_file, "--planner", "greedy"])
        assert exit_info.value.code == 2
        assert "--planner" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "removed", ["tree_decomposition", "hyper", "sequential", "greedy"]
    )
    @pytest.mark.parametrize("command", ["check", "plan"])
    def test_removed_tree_decomposition_is_rejected(
        self, qasm_file, capsys, command, removed
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, qasm_file, "--order-method", removed])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{removed}'" in err
        assert "min_fill" in err

    def test_check_accepts_plan_flags(self, qasm_file, capsys):
        code = main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--order-method", "anneal", "--plan-budget", "0.01",
            "--max-intermediate", "64", "--backend", "dense", "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["stats"]["max_intermediate_size"] <= 64
        assert record["stats"]["predicted_cost"] > 0


class TestPlanSearchFlags:
    def test_plan_search_json_carries_the_report(self, qasm_file, capsys):
        code = main([
            "plan", qasm_file, "--noises", "1", "--json",
            "--order-method", "anneal", "--plan-budget", "0",
            "--plan-seed", "9",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["planner"] == "anneal"
        assert record["search"]["planner"] == "anneal"
        assert record["search"]["seed"] == 9
        assert record["search"]["trials"] == 0  # budget 0: baseline only

    def test_plan_text_report_includes_the_search_line(self, qasm_file,
                                                       capsys):
        code = main([
            "plan", qasm_file, "--noises", "1",
            "--order-method", "anneal", "--plan-budget", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "search" in out
        assert "0 trials" in out

    def test_check_accepts_search_flags(self, qasm_file, capsys):
        code = main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--order-method", "anneal", "--plan-budget", "0",
            "--plan-seed", "2",
            "--backend", "dense", "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["stats"]["plan_trials"] == 0

    def test_compare_json_races_every_order_method(self, qasm_file,
                                                   capsys):
        from repro.tensornet.planner import ORDER_METHODS

        code = main([
            "plan", qasm_file, "--noises", "1", "--json",
            "--compare", "--plan-budget", "0.05",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        rows = record["plans"]
        assert [row["order_method"] for row in rows] == list(ORDER_METHODS)
        best = min(row["total_cost"] for row in rows)
        for row in rows:
            assert row["best"] == (row["total_cost"] == best)
            assert row["plan_seconds"] >= 0
            if row["order_method"] == "anneal":
                assert row["trials"] >= 1
            else:
                assert row["trials"] is None

    def test_compare_table_lists_every_order_method(self, qasm_file,
                                                    capsys):
        from repro.tensornet.planner import ORDER_METHODS

        code = main([
            "plan", qasm_file, "--noises", "1",
            "--compare", "--plan-budget", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for method in ORDER_METHODS:
            assert method in out
        assert "cost" in out and "trials" in out
        assert "*" in out  # the cheapest plan is starred

    def test_plan_cache_replays_the_searched_plan(self, qasm_file, tmp_path,
                                                  capsys):
        argv = [
            "plan", qasm_file, "--noises", "1", "--json",
            "--order-method", "anneal", "--plan-budget", "0.05",
            "--cache", "--cache-dir", str(tmp_path),
        ]
        main(argv)
        cold = json.loads(capsys.readouterr().out)
        assert cold["plan_cache"] == "miss"
        assert cold["search"]["trials"] >= 1
        main(argv)
        warm = json.loads(capsys.readouterr().out)
        assert warm["plan_cache"] == "hit"
        # the provenance record is cached alongside the plan itself
        assert warm["search"] == cold["search"]
        assert warm["steps"] == cold["steps"]


class TestBatchFailureIsolation:
    @pytest.fixture
    def broken_manifest(self, tmp_path, qasm_file):
        path = tmp_path / "broken.txt"
        path.write_text(
            f"{qasm_file}\n"
            "missing.qasm\n"            # unreadable file
            "a.qasm b.qasm c.qasm\n"    # malformed row
            f"{qasm_file}\n"
        )
        return str(path)

    def test_bad_rows_become_error_records(self, broken_manifest, capsys):
        code = main([
            "batch", broken_manifest, "--noises", "1", "--epsilon", "0.05",
        ])
        captured = capsys.readouterr()
        records = [json.loads(line) for line in
                   captured.out.strip().splitlines()]
        assert code == 2  # errors present -> distinct exit code
        assert [r["verdict"] for r in records] == [
            "EQUIVALENT", "ERROR", "ERROR", "EQUIVALENT",
        ]
        assert records[1]["error_type"] == "FileNotFoundError"
        assert records[2]["error_type"] == "ManifestError"
        assert [r["line"] for r in records] == [1, 2, 3, 4]
        assert "2 errors" in captured.err
        assert "2 checked" in captured.err

    def test_summary_reports_wall_and_cpu(self, broken_manifest, capsys):
        main(["batch", broken_manifest, "--noises", "1", "--epsilon", "0.05"])
        err = capsys.readouterr().err
        assert "wall " in err and "cpu " in err and "jobs=1" in err


class TestBatchJobs:
    @pytest.fixture
    def manifest4(self, tmp_path):
        paths = []
        for n in (2, 3):
            path = tmp_path / f"qft{n}.qasm"
            qasm.dump(qft(n), path)
            paths.append(str(path))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"{p}\n" for p in paths + paths))
        return str(manifest)

    def test_jobs_output_matches_serial_order(self, manifest4, capsys):
        flags = ["--noises", "1", "--epsilon", "0.05", "--backend", "einsum"]
        code_serial = main(["batch", manifest4, *flags])
        serial = [json.loads(line) for line in
                  capsys.readouterr().out.strip().splitlines()]
        code_parallel = main(["batch", manifest4, *flags, "--jobs", "2"])
        parallel = [json.loads(line) for line in
                    capsys.readouterr().out.strip().splitlines()]
        assert code_serial == code_parallel == 0
        assert [r["ideal"] for r in parallel] == [r["ideal"] for r in serial]
        for a, b in zip(serial, parallel):
            assert b["verdict"] == a["verdict"]
            assert abs(b["fidelity"] - a["fidelity"]) < 1e-12

    def test_jobs_isolates_raising_rows(self, manifest4, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        with open(manifest4) as handle:
            lines = handle.read().splitlines()
        bad.write_text("\n".join([lines[0], "nope.qasm", lines[1]]) + "\n")
        code = main([
            "batch", str(bad), "--noises", "1", "--epsilon", "0.05",
            "--jobs", "2",
        ])
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert code == 2
        assert [r["verdict"] for r in records] == [
            "EQUIVALENT", "ERROR", "EQUIVALENT",
        ]


class TestCacheFlags:
    def cache_flags(self, tmp_path):
        return ["--cache", "--cache-dir", str(tmp_path / "cache")]

    def test_check_warm_run_is_a_result_hit(self, qasm_file, tmp_path,
                                            capsys):
        flags = [
            "check", qasm_file, "--noises", "1", "--epsilon", "0.05",
            "--json", *self.cache_flags(tmp_path),
        ]
        main(flags)
        cold = json.loads(capsys.readouterr().out)
        assert cold["stats"]["result_cache_hit"] == 0
        main(flags)
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"]["result_cache_hit"] == 1
        assert warm["fidelity"] == cold["fidelity"]
        assert warm["verdict"] == cold["verdict"]

    def test_no_cache_writes_nothing(self, qasm_file, tmp_path, capsys):
        main([
            "check", qasm_file, "--noises", "1", "--epsilon", "0.05",
            "--no-cache", "--cache-dir", str(tmp_path / "cache"), "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert record["stats"]["result_cache_hit"] == 0
        assert not (tmp_path / "cache").exists()

    def test_batch_summary_reports_hits(self, tmp_path, capsys):
        path = tmp_path / "qft2.qasm"
        qasm.dump(qft(2), path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{path}\n{path}\n")
        flags = [
            "batch", str(manifest), "--noises", "1", "--epsilon", "0.05",
            *self.cache_flags(tmp_path),
        ]
        main(flags)
        cold_err = capsys.readouterr().err
        # identical rows dedup inside one run already
        assert "result hits 1" in cold_err
        main(flags)
        warm_err = capsys.readouterr().err
        assert "result hits 2" in warm_err

    def test_batch_without_cache_keeps_old_summary(self, tmp_path, capsys):
        path = tmp_path / "qft2.qasm"
        qasm.dump(qft(2), path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{path}\n")
        main(["batch", str(manifest), "--noises", "1", "--epsilon", "0.05"])
        err = capsys.readouterr().err
        assert "result hits" not in err and "plan hits" not in err

    def test_plan_reports_hit_state(self, qasm_file, tmp_path, capsys):
        flags = [
            "plan", qasm_file, "--noises", "1", "--json",
            *self.cache_flags(tmp_path),
        ]
        main(flags)
        cold = json.loads(capsys.readouterr().out)
        assert cold["plan_cache"] == "miss"
        main(flags)
        warm = json.loads(capsys.readouterr().out)
        assert warm["plan_cache"] == "hit"
        assert warm["steps"] == cold["steps"]
        assert warm["total_cost"] == cold["total_cost"]

    def test_plan_without_cache_omits_state(self, qasm_file, capsys):
        main(["plan", qasm_file, "--noises", "1", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert record["plan_cache"] is None


class TestCacheCommand:
    def populate(self, qasm_file, tmp_path):
        cache_dir = tmp_path / "cache"
        main([
            "check", qasm_file, "--noises", "1", "--epsilon", "0.05",
            "--cache", "--cache-dir", str(cache_dir),
        ])
        return cache_dir

    def test_stats_counts_kinds(self, qasm_file, tmp_path, capsys):
        cache_dir = self.populate(qasm_file, tmp_path)
        capsys.readouterr()
        code = main(["cache", "stats", "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert str(cache_dir) in out
        assert "1 plans, 1 results" in out

    def test_stats_json(self, qasm_file, tmp_path, capsys):
        cache_dir = self.populate(qasm_file, tmp_path)
        capsys.readouterr()
        code = main([
            "cache", "stats", "--cache-dir", str(cache_dir), "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["entries"] == 2
        assert record["kinds"] == {"plans": 1, "results": 1, "other": 0}
        assert record["total_bytes"] > 0

    def test_stats_uses_env_dir_by_default(self, qasm_file, tmp_path,
                                           monkeypatch, capsys):
        cache_dir = self.populate(qasm_file, tmp_path)
        capsys.readouterr()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        main(["cache", "stats", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert record["entries"] == 2

    def test_clear_empties_the_store(self, qasm_file, tmp_path, capsys):
        cache_dir = self.populate(qasm_file, tmp_path)
        capsys.readouterr()
        code = main(["cache", "clear", "--cache-dir", str(cache_dir)])
        assert code == 0
        assert "removed 2 entries" in capsys.readouterr().out
        main(["cache", "stats", "--cache-dir", str(cache_dir), "--json"])
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_prune_respects_byte_budget(self, qasm_file, tmp_path, capsys):
        cache_dir = self.populate(qasm_file, tmp_path)
        capsys.readouterr()
        code = main([
            "cache", "prune", "--max-bytes", "0",
            "--cache-dir", str(cache_dir),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 2 entries" in out
        assert "0 entries / 0 bytes remain" in out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestWireSchemaOutput:
    """CLI payloads are the version-1 wire schema — no CLI/API drift."""

    def test_check_json_carries_schema_version(self, qasm_file, capsys):
        from repro import SCHEMA_VERSION

        main([
            "check", qasm_file, "--noises", "1", "--epsilon", "0.05",
            "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert record["schema_version"] == SCHEMA_VERSION

    def test_batch_records_carry_schema_version(self, tmp_path, capsys):
        from repro import SCHEMA_VERSION

        path = tmp_path / "qft2.qasm"
        qasm.dump(qft(2), path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{path}\nmissing.qasm\n")
        main(["batch", str(manifest), "--noises", "1", "--epsilon", "0.05"])
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert [r["schema_version"] for r in records] == [SCHEMA_VERSION] * 2
        assert records[1]["error_code"] == "circuit_load_failed"

    def test_check_json_equals_engine_payload(self, qasm_file, capsys):
        """The CLI emits exactly what the Engine emits."""
        from repro import CheckRequest, CircuitSpec, Engine, NoiseSpec

        main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--algorithm", "alg2", "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        response = Engine().check(CheckRequest(
            ideal=CircuitSpec.from_path(qasm_file),
            noise=NoiseSpec(noises=2, seed=0),
            epsilon=0.05,
            config={"algorithm": "alg2"},
        ))
        direct = response.to_dict()
        assert record["backend"] == direct["backend"] == DEFAULT_BACKEND
        for volatile in ("time_seconds", "planning_seconds"):
            record.pop(volatile, None)
            direct.pop(volatile, None)
            record["stats"][volatile] = direct["stats"][volatile] = 0.0
        record["stats"]["cpu_seconds"] = direct["stats"]["cpu_seconds"] = 0.0
        assert record == direct

    def test_missing_file_exits_2_with_typed_error(self, capsys):
        code = main(["check", "/definitely/missing.qasm"])
        err = capsys.readouterr().err
        assert code == 2
        assert "circuit_load_failed" in err


class TestJsonManifestRows:
    @pytest.fixture
    def mixed_manifest(self, tmp_path, qasm_file):
        inline = qasm.dumps(qft(2))
        rows = [
            qasm_file,  # classic path row, CLI flags apply
            json.dumps({  # wire-schema row: library spec, own epsilon
                "ideal": {"library": "qft", "params": {"num_qubits": 2}},
                "epsilon": 0.1,
            }),
            json.dumps({  # inline QASM + noise off despite CLI flags
                "ideal": {"qasm": inline},
                "noise": None,
            }),
            json.dumps({"ideal": {"library": "unheard_of"}}),  # bad library
            json.dumps({"ideal": {"qasm": inline}, "bogus_field": 1}),
            "{not json",
        ]
        manifest = tmp_path / "mixed.jsonl"
        manifest.write_text("".join(row + "\n" for row in rows))
        return str(manifest)

    def test_mixed_rows_stream_wire_records(self, mixed_manifest, qasm_file,
                                            capsys):
        code = main([
            "batch", mixed_manifest, "--noises", "1", "--epsilon", "0.05",
        ])
        captured = capsys.readouterr()
        records = [json.loads(line) for line in
                   captured.out.strip().splitlines()]
        assert code == 2  # bad rows present
        assert [r["verdict"] for r in records] == [
            "EQUIVALENT", "EQUIVALENT", "EQUIVALENT",
            "ERROR", "ERROR", "ERROR",
        ]
        # path row keeps its path label; JSON rows get spec labels
        assert records[0]["ideal"] == qasm_file
        assert records[1]["ideal"] == "<library:qft>"
        assert records[2]["ideal"] == "<inline-qasm>"
        # row-level fields beat CLI flags
        assert records[1]["epsilon"] == 0.1
        # noise: null switches the CLI noise off -> exact equivalence
        assert records[2]["fidelity"] == pytest.approx(1.0, abs=1e-12)
        # typed error codes per failure kind
        assert records[3]["error_code"] == "invalid_circuit_spec"
        assert records[4]["error_code"] == "unknown_field"
        assert records[5]["error_type"] == "ManifestError"
        assert [r["line"] for r in records] == [1, 2, 3, 4, 5, 6]
        # index counts manifest rows (errors included), joinable to input
        assert [r["index"] for r in records] == [0, 1, 2, 3, 4, 5]

    def test_json_rows_inherit_cli_flags(self, tmp_path, capsys):
        row = {"ideal": {"library": "qft", "params": {"num_qubits": 2}}}
        manifest = tmp_path / "one.jsonl"
        manifest.write_text(json.dumps(row) + "\n")
        main([
            "batch", str(manifest), "--noises", "1", "--epsilon", "0.05",
            "--backend", "einsum",
        ])
        record = json.loads(capsys.readouterr().out.strip())
        assert record["backend"] == "einsum"
        assert record["epsilon"] == 0.05
        assert record["stats"]["terms_total"] >= 1  # noise was applied

    def test_json_rows_work_under_jobs(self, tmp_path, capsys):
        rows = [
            json.dumps({
                "ideal": {"library": "qft", "params": {"num_qubits": 2}},
                "noise": {"noises": 1, "seed": seed},
            })
            for seed in range(2)
        ]
        manifest = tmp_path / "par.jsonl"
        manifest.write_text("".join(row + "\n" for row in rows))
        flags = ["batch", str(manifest), "--epsilon", "0.05"]
        code = main(flags)
        serial = [json.loads(line)["fidelity"] for line in
                  capsys.readouterr().out.strip().splitlines()]
        code_parallel = main(flags + ["--jobs", "2"])
        parallel = [json.loads(line)["fidelity"] for line in
                    capsys.readouterr().out.strip().splitlines()]
        assert code == code_parallel == 0
        assert parallel == serial

    def test_read_manifest_rejects_json_rows(self, tmp_path):
        manifest = tmp_path / "j.jsonl"
        manifest.write_text('{"ideal": {"library": "qft"}}\n')
        with pytest.raises(ValueError, match="JSON request rows"):
            list(read_manifest(str(manifest)))

    def test_fidelity_mode_rows(self, tmp_path, capsys):
        row = {
            "ideal": {"library": "qft", "params": {"num_qubits": 2}},
            "noise": {"noises": 1, "seed": 0},
            "mode": "fidelity",
        }
        manifest = tmp_path / "f.jsonl"
        manifest.write_text(json.dumps(row) + "\n")
        code = main(["batch", str(manifest), "--epsilon", "0.05"])
        record = json.loads(capsys.readouterr().out.strip())
        assert code == 0
        assert 0.9 < record["fidelity"] <= 1.0


class TestBadFlagErrors:
    """Invalid noise flags take the typed-error exit, not a traceback."""

    def test_check_bad_noises_flag(self, qasm_file, capsys):
        code = main(["check", qasm_file, "--noises", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid_noise_spec" in err

    def test_fidelity_bad_noises_flag(self, qasm_file, capsys):
        code = main(["fidelity", qasm_file, "--noises", "-1"])
        assert code == 2
        assert "invalid_noise_spec" in capsys.readouterr().err

    def test_batch_bad_noises_flag(self, tmp_path, qasm_file, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{qasm_file}\n")
        code = main(["batch", str(manifest), "--noises", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid_noise_spec" in captured.err


class TestTraceFlag:
    def test_trace_writes_a_chrome_trace_file(self, qasm_file, tmp_path,
                                              capsys):
        out = tmp_path / "trace.json"
        code = main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--trace", str(out),
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        assert str(out) in stdout  # the human report names the file
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert all(event["ph"] == "X" for event in events)
        names = {event["name"] for event in events}
        assert "engine.request" in names
        assert "session.check" in names

    def test_trace_rides_along_in_json_output(self, qasm_file, tmp_path,
                                              capsys):
        out = tmp_path / "trace.json"
        code = main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--trace", str(out), "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["trace"]["name"] == "engine.request"
        assert out.exists()

    def test_no_trace_flag_means_no_trace(self, qasm_file, capsys):
        main([
            "check", qasm_file, "--noises", "2", "--epsilon", "0.05",
            "--json",
        ])
        assert "trace" not in json.loads(capsys.readouterr().out)

    def test_plan_compare_reports_per_method_traces(self, qasm_file,
                                                    capsys):
        code = main([
            "plan", qasm_file, "--noises", "1", "--json",
            "--compare", "--plan-budget", "0",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        for row in record["plans"]:
            tree = row["trace"]
            names = {tree["name"]} | {
                child["name"] for child in tree.get("children", ())
            }
            assert "plan.build" in names

    def test_plan_compare_table_has_a_trace_section(self, qasm_file,
                                                    capsys):
        code = main([
            "plan", qasm_file, "--noises", "1",
            "--compare", "--plan-budget", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out
        assert "plan.build" in out
