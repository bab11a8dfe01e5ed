import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustdiff import cli, trainer
from robustdiff import data as data_mod
from robustdiff.trainer import TrainConfig

TINY = [
    "batch_size=16",
    "hidden=8",
    "depth=2",
    "quad_nodes=3",
    "num_steps=6",
    "total_iters=20",
    "early_stop_iters=10",
]

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _set_args():
    return [arg for item in TINY for arg in ("--set", item)]


class TestPipeline:
    def test_gen_data_train_sample_eval(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        ckpt = tmp_path / "ckpt"
        samples = tmp_path / "samples.csv"
        steps = [
            ["gen-data", "--n-per-class", "20", "--eta", "0.4", "--seed", "0",
             "--out", str(data)],
            ["train", "--data", str(data), "--out", str(ckpt), *_set_args()],
            ["sample", "--checkpoint", str(ckpt), "--per-class", "10",
             "--out", str(samples)],
            ["eval", "--dataset", str(data), "--samples", str(samples)],
        ]
        for argv in steps:
            assert cli.main(argv) == 0, argv[0]
        out = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"mae \S+ controllability \S+", out[-1])
        assert sorted(os.listdir(ckpt)) == [trainer.CHECKPOINT_FILE, trainer.LOG_FILE]

    def test_four_commands_rerun_a_sweep_cell(self, tmp_path, capsys):
        # gen-data writes cell (eta, seed)'s dataset; train and sample at the
        # cell's train and eval seeds (_cell_seeds: 3000 + seed, 4000 + seed)
        # then score what the sweep scored.
        sweep, data, ckpt, samples = (tmp_path / name for name in ("r", "d.csv", "c", "s.csv"))
        assert cli.main(["reproduce", "--out", str(sweep), "--set", "etas=0.4", "--set", "seeds=1",
                         "--set", "variants=pc_rdc", *_set_args(), "--set", "n_per_class=20",
                         "--set", "per_class_samples=10"]) == 0
        row = (sweep / "results.csv").read_text().splitlines()[1].split(",")
        steps = [
            ["gen-data", "--n-per-class", "20", "--noise", "sym", "--eta", "0.4", "--seed", "1",
             "--out", str(data)],
            ["train", "--data", str(data), "--out", str(ckpt), *_set_args(),
             "--set", "variant=pc_rdc", "--set", "seed=3001"],
            ["sample", "--checkpoint", str(ckpt), "--per-class", "10", "--seed", "4001",
             "--out", str(samples)],
            ["eval", "--dataset", str(data), "--samples", str(samples)],
        ]
        for argv in steps:
            assert cli.main(argv) == 0, argv[0]
        assert capsys.readouterr().out.splitlines()[-1] == f"mae {row[4]} controllability {row[5]}"

    def test_outputs_default_under_robust_diff_out(self, tmp_path, monkeypatch):
        # Without --out, train and sample write under $ROBUST_DIFF_OUT.
        root, data = tmp_path / "root", tmp_path / "data.csv"
        monkeypatch.setenv("ROBUST_DIFF_OUT", str(root))
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), *_set_args()]) == 0
        assert (root / "train" / trainer.CHECKPOINT_FILE).is_file()
        assert cli.main(["sample", "--checkpoint", str(root / "train"), "--per-class", "3"]) == 0
        per_class = data_mod.read_samples(root / "samples.csv")
        assert [len(pts) for pts in per_class.values()] == [3] * data_mod.N_CLASSES

    def test_eval_out_into_a_new_directory(self, tmp_path, capsys):
        data, ckpt = _gen_and_train(tmp_path)
        samples, out = tmp_path / "samples.csv", tmp_path / "new" / "eval.txt"
        assert cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "4",
                         "--out", str(samples)]) == 0
        assert cli.main(["eval", "--dataset", str(data), "--samples", str(samples),
                         "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out.splitlines()[-1] + "\n"


def _reproduce_args(out, *extra):
    return ["reproduce", "--out", str(out), "--set", "etas=0.4", "--set", "seeds=0",
            "--set", "variants=vanilla,pc_rdc", *_set_args(),
            "--set", "n_per_class=20", "--set", "per_class_samples=10", *extra]


@pytest.mark.parametrize(
    "command, flag",
    [("train", "--variant"), ("train", "--total-iters"), ("train", "--seed"),
     ("reproduce", "--etas"), ("reproduce", "--seeds"), ("reproduce", "--variants"),
     ("reproduce", "--noise"), ("reproduce", "--jobs")],
)
def test_named_setting_flag_is_usage_error(tmp_path, capsys, command, flag):
    # Each of these repeated a --set key; --set is now the one spelling.
    out = tmp_path / "out"
    argv = (_reproduce_args(out) if command == "reproduce" else
            ["train", "--data", str(tmp_path / "data.csv"), "--out", str(out), *_set_args()])
    assert cli.main([*argv, flag, "1"]) == 1
    assert f"usage error: unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


class TestReporting:
    """A command that cannot finish raises, and main alone prints the failure."""

    FAILURES = {  # case: (exit code, the one stderr line)
        "train_diverges": (2, r"error: training diverged: .+ at iteration \d+"),
        "sample_diverged": (2, r"error: .+: training diverged at iteration \d+; not sampling it"),
        "train_missing_data": (2, r"error: .+missing\.csv.*"),
        "train_unknown_setting": (1, r"usage error: unknown setting hiden"),
        "sample_guidance_below_one": (1, r"usage error: --w must be >= 1 and finite"),
    }

    @pytest.mark.parametrize("case", FAILURES)
    def test_one_stderr_line_per_failure(self, tmp_path, capsys, case):
        code, line = self.FAILURES[case]
        data, ckpt, out = tmp_path / "data.csv", tmp_path / "ckpt", tmp_path / "samples.csv"
        assert cli.main(["gen-data", "--n-per-class", "20", "--eta", "0.4",
                         "--out", str(data)]) == 0
        train = ["train", "--data", str(data), "--out", str(ckpt), *_set_args()]
        diverge = [*train, "--set", "lr=1e18"]
        sample = ["sample", "--checkpoint", str(ckpt), "--per-class", "10", "--out", str(out)]
        if case == "sample_diverged":
            assert cli.main(diverge) == 2
        argv = {"train_diverges": diverge,
                "sample_diverged": sample,
                "train_missing_data": ["train", "--data", str(tmp_path / "missing.csv"),
                                       "--out", str(ckpt), *_set_args()],
                "train_unknown_setting": [*train, "--set", "hiden=8"],
                "sample_guidance_below_one": [*sample, "--w", "0.5"]}[case]
        capsys.readouterr()
        assert cli.main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(line, err[0]), err
        assert not out.exists()

    def test_diverged_train_in_a_fresh_process_prints_one_line(self, tmp_path):
        # No warning filter here: the interpreter's own defaults decide what
        # numpy's RuntimeWarnings would print. Training and sampling past the
        # float32 range each end with their own one line.
        data, ckpt, out = tmp_path / "data.csv", tmp_path / "ckpt", tmp_path / "samples.csv"
        assert cli.main(["gen-data", "--n-per-class", "20", "--eta", "0.4",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt), *_set_args()]) == 0
        cases = [
            (["train", "--data", str(data), "--out", str(tmp_path / "diverged"), *_set_args(),
              "--set", "lr=1e18"], r"error: training diverged: .+"),
            (["sample", "--checkpoint", str(ckpt), "--per-class", "3", "--w", "1e300",
              "--out", str(out)], re.escape(f"error: {out}: non-finite coordinates, not written")),
        ]
        for argv, line in cases:
            proc = subprocess.run([sys.executable, "-m", "robustdiff.cli", *argv],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": SRC})
            assert proc.returncode == 2, argv[0]
            err = proc.stderr.splitlines()
            assert len(err) == 1 and re.fullmatch(line, err[0]), err

    def test_only_main_and_reproduce_write_stderr(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        writers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute) and node.attr == "stderr"
                   and isinstance(node.value, ast.Name) and node.value.id == "sys"}
        assert "main" in writers
        assert writers <= {"main", "cmd_reproduce"}

    def test_numpy_silenced_only_where_the_code_checks_the_result(self):
        # train checks the loss and Adam's values, and cmd_sample the points
        # it writes. Elsewhere numpy's warning may be the only sign of trouble:
        # run_cell does not check its samples.
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            parent = {child: node for node in ast.walk(tree)
                      for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if getattr(node, "attr", getattr(node, "id", None)) in ("errstate", "seterr"):
                    owner = node
                    while owner in parent and not isinstance(owner, ast.FunctionDef):
                        owner = parent[owner]
                    found.append(f"{path.stem}.{getattr(owner, 'name', '<module>')}")
        assert sorted(found) == ["cli.cmd_sample", "trainer.train"]


class TestReproduce:
    def test_jobs2_prints_one_line_per_cell(self, tmp_path, capsys):
        cli.main(_reproduce_args(tmp_path / "r", "--set", "jobs=2"))
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("finished ")]
        assert lines == ["finished vanilla eta=0.4 seed=0", "finished pc_rdc eta=0.4 seed=0"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cells_reported_once_as_they_end(self, tmp_path, capfd, jobs):
        # capfd, so that what the spawned workers print reaches `err` too.
        out = tmp_path / "r"
        assert cli.main(_reproduce_args(out, "--set", "lr=1e18", "--set", f"jobs={jobs}")) == 2
        captured = capfd.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 2
        for line, variant in zip(err, ("vanilla", "pc_rdc")):
            assert re.fullmatch(f"FAILED CELL: {variant} eta=0.4 seed=0: "
                                r"training diverged: .+ at iteration \d+", line), line
        assert not [l for l in captured.out.splitlines() if l.startswith("finished")]
        assert (out / "results.csv").read_text() == "variant,noise,eta,seed,mae,controllability\n"
        for variant in ("vanilla", "pc_rdc"):
            assert trainer.load_checkpoint(out / "cells" / f"{variant}_sym0.4_s0")[2].diverged

    @pytest.mark.parametrize(
        "jobs, user, want",
        [
            (1, {}, {}),
            (2, {}, dict.fromkeys(cli.BLAS_THREAD_VARS, "1")),
            (2, {"OMP_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "3"}),
        ],
        ids=["one_job_untouched", "workers_pinned", "user_setting_kept"],
    )
    def test_worker_blas_threads(self, monkeypatch, jobs, user, want):
        for key in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(key, raising=False)
        for key, value in user.items():
            monkeypatch.setenv(key, value)
        assert cli._worker_blas_env(jobs) == want

    def test_manifest_records_blas_threads_as_comment(self, tmp_path, monkeypatch):
        for key in cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(key, raising=False)
        cli.main(_reproduce_args(tmp_path / "r", "--set", "variants=vanilla", "--set", "jobs=2"))
        manifest = (tmp_path / "r" / "manifest.txt").read_text()
        assert "# BLAS threads: OPENBLAS_NUM_THREADS=1 " in manifest
        assert not any(key in os.environ for key in cli.BLAS_THREAD_VARS)

    def test_jobs_below_one_is_usage_error(self, tmp_path):
        assert cli.main(_reproduce_args(tmp_path / "r", "--set", "jobs=-1")) == 1
        assert cli.main(_reproduce_args(tmp_path / "r0", "--set", "jobs=0")) == 1
        assert not (tmp_path / "r0" / "manifest.txt").exists()

    def test_unknown_setting_is_usage_error(self, tmp_path, capsys):
        assert cli.main(_reproduce_args(tmp_path / "r", "--set", "hiden=8")) == 1
        assert "unknown setting hiden" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_manifest_with_shape_settings_refused(self, tmp_path, capsys):
        # A manifest written while x_dim and cond_dim were settings lists them,
        # and one written while the EDM constants were settings lists rho.
        manifest = tmp_path / "manifest.txt"
        for extra, named in (("cond_dim = 4\nx_dim = 2\n", "cond_dim, x_dim"),
                             ("rho = 7.0\n", "rho")):
            manifest.write_text("command = reproduce\netas = 0.4\nseeds = 0\n"
                                "variants = vanilla\nnoise = sym\njobs = 1\n" + extra)
            code = cli.main(["reproduce", "--out", str(tmp_path / "r"),
                             "--config", str(manifest)])
            assert code == 1
            assert f"usage error: unknown setting {named}" in capsys.readouterr().err
            assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [({"noise": "gauss"}, "usage error: noise must be one of sym, asym"),
         ({"": "5"}, "usage error: expected key=value, got '= 5'")],
        ids=["bad_noise", "empty_key"],
    )
    def test_malformed_manifest_is_usage_error(self, tmp_path, capsys, edit, message):
        manifest = tmp_path / "manifest.txt"
        keys = {"command": "reproduce", "etas": "0.4", "seeds": "0", "variants": "vanilla",
                "noise": "sym", **edit}
        manifest.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        code = cli.main(["reproduce", "--out", str(tmp_path / "r"), "--config", str(manifest)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [(["--set", "lr=x"], "lr must be a number, got 'x'"),
         (["--set", "seeds=0,x"], "seeds must be an integer, got 'x'"),
         (["--set", "per_class_samples=0"], "per_class_samples must be >= 1"),
         (["--set", "n_per_class=abc"], "n_per_class must be an integer, got 'abc'"),
         (["--set", "etas=1.5"], "etas must lie in [0, 1]"),
         (["--set", "etas=nan"], "etas must lie in [0, 1]"),
         (["--set", "n_per_class=0"], "n_per_class must be >= 1"),
         (["--set", "etas=0.4,0.40"], "etas names a value twice: '0.4,0.40'"),
         (["--set", "etas=0.1234567,0.1234568"],
          "etas 0.1234567 and 0.1234568 share a cell label"),
         (["--set", "etas=0.1231,0.1232"], "etas 0.1231 and 0.1232 share a noise seed"),
         (["--set", "seeds=0,0"], "seeds names a value twice: '0,0'"),
         (["--set", "variants=vanilla,pc_rdc,vanilla"], "variants names a value twice"),
         (["--set", "variants=vanilla,pc"], "variants must be among vanilla, pc_only, pc_rdc"),
         (["--set", "seeds=-1"], "seeds must be >= 0"),
         (["--set", "seed=1"], "unknown setting seed"),
         (["--set", "early_stop_iters=0"], "early_stop_iters must be >= 1 for pc_only"),
         (["--set", "jobs=two"], "jobs must be an integer, got 'two'"),
         (["--set", "noise=gauss"], "noise must be one of sym, asym"),
         (["--manifest", "manifest.txt"], "unrecognized arguments: --manifest"),
         (["--set", "=5"], "expected key=value, got '=5'")],
        ids=["lr_not_number", "seed_not_integer", "no_samples", "points_not_integer",
             "eta_above_one", "eta_nan", "no_points", "eta_twice", "eta_label_shared", "eta_noise_seed_shared",
             "seed_twice", "variant_twice", "unknown_variant",
             "negative_seed", "cell_seed_setting", "config_invalid_for_pc_rdc",
             "jobs_not_integer", "unknown_noise", "manifest_flag_gone", "empty_key"],
    )
    def test_bad_sweep_value_is_usage_error(self, tmp_path, capsys, extra, message):
        assert cli.main(_reproduce_args(tmp_path / "r", *extra)) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_manifest_value_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("command = reproduce\netas = 0.4\nseeds = 0\n"
                            "variants = vanilla\njobs = two\n")
        code = cli.main(["reproduce", "--out", str(tmp_path / "r"), "--config", str(manifest)])
        assert code == 1
        assert "usage error: jobs must be an integer, got 'two'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_later_set_overrides_earlier_set_and_config(self, tmp_path):
        # The first run's manifest as the config: --set overrides it, a later --set both.
        first = tmp_path / "first"
        assert cli.main(_reproduce_args(first, "--set", "variants=vanilla")) in (0, 2)
        cli.main(["reproduce", "--out", str(tmp_path / "second"),
                  "--config", str(first / "manifest.txt"),
                  "--set", "hidden=5", "--set", "etas=0.6", "--set", "etas=0.2"])
        got = cli.parse_config_file(tmp_path / "second" / "manifest.txt")
        assert (got["etas"], got["hidden"], got["depth"], got["quad_nodes"]) == ("0.2", "5", "2", "3")

    def test_default_manifest(self, tmp_path):
        # A default run's manifest, byte for byte: every key is listed in key
        # order after the command line and the BLAS comment.
        cli.Sweep.from_values({}).write_manifest(tmp_path / "manifest.txt", {})
        assert (tmp_path / "manifest.txt").read_text() == (
            "command = reproduce\n# BLAS threads: unset\n"
            "alpha = 0.1\nbatch_size = 512\ndepth = 3\nearly_stop_iters = 500\n"
            "etas = 0.2,0.4,0.6,0.8\nhidden = 64\njobs = 1\nlr = 0.001\nn_per_class = 2000\n"
            "noise = sym\nnum_steps = 18\nper_class_samples = 1000\nquad_nodes = 8\n"
            "seeds = 0,1,2\ntotal_iters = 10000\nvariants = vanilla,pc_only,pc_rdc\n"
        )

    def test_manifest_names_every_settable_key(self, tmp_path):
        # A field missing from the manifest would take its default on a rerun.
        cli.Sweep.from_values({}).write_manifest(tmp_path / "manifest.txt", {})
        settable = ({"command"}
                    | {f.name for f in dataclasses.fields(cli.Sweep)} - {"config"}
                    | {f.name for f in dataclasses.fields(TrainConfig)} - {"variant", "seed"})
        assert set(cli.parse_config_file(tmp_path / "manifest.txt")) == settable

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_manifest_round_trip(self, data):
        variants = data.draw(st.lists(st.sampled_from(trainer.VARIANTS), min_size=1,
                                      unique=True))
        budget = data.draw(st.integers(1, 1000))
        config = TrainConfig(
            variant=variants[0],
            batch_size=data.draw(st.integers(1, 4096)),
            total_iters=data.draw(st.integers(budget, 100_000)),
            alpha=data.draw(st.floats(0.0, 1.0)),
            early_stop_iters=budget,
            num_steps=data.draw(st.integers(2, 200)),
            hidden=data.draw(st.integers(1, 512)),
            depth=data.draw(st.integers(1, 16)),
            quad_nodes=data.draw(st.integers(1, 64)),
            lr=data.draw(st.floats(1e-300, 1e3)),
        )
        sweep = cli.Sweep(
            # Distinct cell labels and noise seeds, as from_values requires.
            etas=tuple(data.draw(st.lists(
                st.floats(0.0, 1.0), min_size=1, max_size=8,
                unique_by=(lambda eta: f"{eta:g}",
                           lambda eta: cli._cell_seeds(0, eta)["noise"])))),
            seeds=tuple(data.draw(st.lists(st.integers(0, 10**6), min_size=1, unique=True))),
            variants=tuple(variants),
            noise=data.draw(st.sampled_from(tuple(cli.NOISE_KINDS))),
            jobs=data.draw(st.integers(1, 64)),
            n_per_class=data.draw(st.integers(1, 10**5)),
            per_class_samples=data.draw(st.integers(1, 10**5)),
            config=config,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.txt"
            sweep.write_manifest(path, {"OMP_NUM_THREADS": "1"})
            assert cli.Sweep.from_values(cli.parse_config_file(path)) == sweep

    def test_tables_with_dynamics(self, tmp_path):
        # At total_iters=DYNAMICS_EVERY each eta=0.4 cell records one snapshot.
        out = tmp_path / "r"
        cli.main(_reproduce_args(out, "--set", f"total_iters={cli.DYNAMICS_EVERY}"))
        num = r"-?\d+\.\d{6}"
        tables = {
            "results.csv": ("variant,noise,eta,seed,mae,controllability",
                            [rf"vanilla,sym,0\.4,0,{num},{num}",
                             rf"pc_rdc,sym,0\.4,0,{num},{num}"]),
            "summary.csv": ("variant,noise,eta,median_mae,median_controllability",
                            [rf"pc_rdc,sym,0\.4,{num},{num}", rf"vanilla,sym,0\.4,{num},{num}"]),
            "mae_delta.csv": ("eta,mae_vanilla,mae_pc_rdc,delta", [rf"0\.4,{num},{num},{num}"]),
            "dynamics.csv": ("variant,seed,iter,controllability",
                             [rf"pc_rdc,0,{cli.DYNAMICS_EVERY},{num}",
                              rf"vanilla,0,{cli.DYNAMICS_EVERY},{num}"]),
        }
        lines = {}
        for name, (header, rows) in tables.items():
            lines[name] = (out / name).read_text().splitlines()
            assert lines[name][0] == header, name
            assert len(lines[name]) == len(rows) + 1, name
            for line, row in zip(lines[name][1:], rows):
                assert re.fullmatch(row, line), (name, line)
        # One seed: each median is the cell's own result.
        results = {l.split(",")[0]: l.split(",")[4:] for l in lines["results.csv"][1:]}
        for line in lines["summary.csv"][1:]:
            assert line.split(",")[3:] == results[line.split(",")[0]]
        assert (out / "dynamics.svg").read_text().count("<polyline") == 2
        for variant in ("vanilla", "pc_rdc"):
            assert (out / "cells" / f"{variant}_sym0.4_s0" / "scatter.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("eta, special", [("0.4", True), ("0.4000000001", False)])
    def test_special_cells_and_gate_agree(self, tmp_path, capsys, eta, special):
        # The eta=0.4 cells record dynamics and seed-0 scatters, and the
        # controllability gate reads their medians. An eta that only prints
        # as 0.4 is not 0.4, so it gets none of the three.
        out = tmp_path / "r"
        cli.main(_reproduce_args(out, "--set", f"total_iters={cli.DYNAMICS_EVERY}",
                                 "--set", f"etas={eta}"))
        gate = "controllability pc_rdc" in capsys.readouterr().out
        rows = (out / "dynamics.csv").read_text().splitlines()[1:]
        scatters = sorted(path.parent.name for path in (out / "cells").glob("*/scatter.svg"))
        want = (True, 2, ["pc_rdc_sym0.4_s0", "vanilla_sym0.4_s0"]) if special else (False, 0, [])
        assert (gate, len(rows), scatters) == want

    def test_rerun_without_dynamics_drops_the_older_curves(self, tmp_path):
        out = tmp_path / "r"
        cli.main(_reproduce_args(out, "--set", f"total_iters={cli.DYNAMICS_EVERY}"))
        assert (out / "dynamics.svg").exists()
        cli.main(_reproduce_args(out))  # total_iters=20: no snapshot
        assert (out / "dynamics.csv").read_text() == "variant,seed,iter,controllability\n"
        assert not (out / "dynamics.svg").exists()

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_snapshot_leaves_the_run_bitwise_unchanged(self, variant):
        # A dynamics snapshot samples the training network as run_cell's
        # does; the run then ends bitwise as one without snapshots.
        cfg = TrainConfig(variant=variant, batch_size=16, hidden=8, depth=2, quad_nodes=3,
                          num_steps=6, total_iters=20, early_stop_iters=10)
        samples = data_mod.inject_noise(data_mod.make_toy_dataset(20, seed=0),
                                        data_mod.NoiseSpec("symmetric", 0.4, 1))
        seen = []

        def snapshot(iteration, net, table):
            protos = trainer.sampling_prototypes(cfg, table, samples.noisy)
            seen.append(cli.sample_per_class(net, cfg, 10, 7, None, protos))

        plain = trainer.train(cfg, samples)
        snapped = trainer.train(cfg, samples, snapshot_every=3, snapshot_cb=snapshot)
        assert len(seen) == 6
        for got, want in [(snapped.params.values, plain.params.values),
                          (snapped.pseudo, plain.pseudo),
                          (snapped.prototypes, plain.prototypes)]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rerun_into_one_directory_keeps_only_its_own_cells(self, tmp_path):
        out = tmp_path / "r"
        cli.main(_reproduce_args(out, "--set", "etas=0.4,0.6"))
        assert len(os.listdir(out / "cells")) == 4
        cli.main(_reproduce_args(out, "--set", "etas=0.2", "--set", "variants=vanilla"))
        assert os.listdir(out / "cells") == ["vanilla_sym0.2_s0"]
        assert (out / "results.csv").read_text().count("\n") == 2  # header + 1 cell

    def test_help_names_every_key(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["reproduce", "--help"])
        shown = " ".join(capsys.readouterr().out.split()).split("KEY is one of ", 1)[1]
        assert shown.split(", ") == [f.name for cls in (cli.Sweep, TrainConfig)
                                     for f in dataclasses.fields(cls)
                                     if f.name not in ("config", "variant", "seed")]

    def test_results_byte_identical_across_jobs_and_manifest_rerun(self, tmp_path):
        # The gates may fail on a run this small, so the exit code is not asserted.
        # At total_iters=DYNAMICS_EVERY the dynamics files and scatters are written too.
        dyn = ("--set", f"total_iters={cli.DYNAMICS_EVERY}")
        cli.main(_reproduce_args(tmp_path / "j1", *dyn, "--set", "jobs=1"))
        cli.main(_reproduce_args(tmp_path / "j2", *dyn, "--set", "jobs=2"))
        cli.main(["reproduce", "--out", str(tmp_path / "rerun"),
                  "--config", str(tmp_path / "j1" / "manifest.txt")])
        assert (tmp_path / "j1" / "results.csv").read_bytes().count(b"\n") == 3  # header + 2 cells
        # Every file but the manifest (its jobs differ), the checkpoints (zip
        # timestamps) and the training logs (wall times).
        skip = {"manifest.txt", trainer.CHECKPOINT_FILE, trainer.LOG_FILE}

        def files(run):
            return sorted(str(p.relative_to(tmp_path / run)) for p in (tmp_path / run).rglob("*")
                          if p.is_file() and p.name not in skip)

        names = files("j1")
        assert {"dynamics.csv", "dynamics.svg", "mae_delta.csv", "results.csv",
                "summary.csv", "cells/vanilla_sym0.4_s0/scatter.svg"} <= set(names)
        assert files("j2") == files("rerun") == names
        for name in names:
            want = (tmp_path / "j1" / name).read_bytes()
            assert want
            assert (tmp_path / "j2" / name).read_bytes() == want, name
            assert (tmp_path / "rerun" / name).read_bytes() == want, name
        # Read as a config, a manifest writes itself back unchanged.
        manifest = (tmp_path / "j1" / "manifest.txt").read_bytes()
        assert (tmp_path / "rerun" / "manifest.txt").read_bytes() == manifest


GATE_ETAS = (0.2, 0.4, 0.6, 0.8)


def _gate_meds(line=None, margin=1.0):
    """Sweep medians whose five gate lines (the MAE delta at each eta, then
    the controllability gap) all clear their bounds by 0.5, except `line`,
    which sits `margin` above its bound (below it when negative)."""
    meds = {}
    for i, eta in enumerate(GATE_ETAS):
        need = 0.15 if eta == 0.8 else 0.0
        meds[("vanilla", "sym", eta)] = (1.0, 0.3)
        meds[("pc_rdc", "sym", eta)] = (1.0 - need - (margin if i == line else 0.5), 0.9)
    if line == 4:
        meds[("pc_rdc", "sym", 0.4)] = (meds[("pc_rdc", "sym", 0.4)][0], 0.3 + 0.10 + margin)
    return meds


class TestGates:
    @pytest.mark.parametrize("line", range(5))
    @pytest.mark.parametrize("margin", [1e-6, -1e-6], ids=["above", "below"])
    def test_each_gate_at_its_bound(self, tmp_path, capsys, line, margin):
        ok = cli._check_deltas(_gate_meds(line, margin), GATE_ETAS, "sym", tmp_path / "d.csv")
        printed = capsys.readouterr().out.splitlines()
        assert ok == (margin > 0)
        assert [l.rsplit(" ", 1)[1] for l in printed] == [
            "ok" if i != line or margin > 0 else "FAIL" for i in range(5)]
        assert printed[4].startswith("eta=0.4: controllability pc_rdc ")
        assert "(need >= 0.15)" in printed[3] and "(need >= 0)" in printed[0]

    @pytest.mark.parametrize(
        "missing, lines",
        [(("pc_rdc", "sym", 0.6), ["eta=0.2", "eta=0.4", "eta=0.8", "eta=0.4"]),
         (("vanilla", "sym", 0.4), ["eta=0.2", "eta=0.6", "eta=0.8"])],
        ids=["pc_rdc_at_0.6", "vanilla_at_0.4"],
    )
    def test_missing_variant_skips_its_lines(self, tmp_path, capsys, missing, lines):
        meds = _gate_meds()
        del meds[missing]
        assert cli._check_deltas(meds, GATE_ETAS, "sym", tmp_path / "d.csv")
        printed = capsys.readouterr().out.splitlines()
        assert [l.split(":", 1)[0] for l in printed] == lines

    def test_sweep_without_the_gated_pair_says_no_gate_applies(self, tmp_path, capsys):
        meds = {("pc_only", "sym", eta): (1.0, 0.5) for eta in GATE_ETAS}
        assert cli._check_deltas(meds, GATE_ETAS, "sym", tmp_path / "d.csv")
        assert capsys.readouterr().out.splitlines() == [
            "no gate applies: the gates compare vanilla and pc_rdc"]
        assert (tmp_path / "d.csv").read_text() == "eta,mae_vanilla,mae_pc_rdc,delta\n"

    def test_delta_csv_rows_are_the_printed_deltas(self, tmp_path, capsys):
        meds = _gate_meds(2, -0.3)
        cli._check_deltas(meds, GATE_ETAS, "sym", tmp_path / "d.csv")
        printed = capsys.readouterr().out.splitlines()[:4]
        rows = (tmp_path / "d.csv").read_text().splitlines()
        assert rows[0] == "eta,mae_vanilla,mae_pc_rdc,delta"
        assert len(rows) == 5
        for row, line, eta in zip(rows[1:], printed, GATE_ETAS):
            got = row.split(",")
            assert float(got[0]) == eta and line.startswith(f"eta={got[0]}: ")
            shown = float(re.search(r"delta (\S+)", line).group(1))
            assert round(float(got[3]), 4) == shown
            assert float(got[3]) == pytest.approx(float(got[1]) - float(got[2]), abs=2e-6)


def _gen_and_train(tmp_path):
    data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
    assert cli.main(["gen-data", "--n-per-class", "20", "--eta", "0.4",
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(ckpt), *_set_args()]) == 0
    return data, ckpt


class TestReaders:
    def test_out_of_range_class_id_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        lines = data.read_text().splitlines()
        for bad in ("4", "-1"):
            lines[1] = lines[1].rsplit(",", 1)[0] + "," + bad  # noisy label
            data.write_text("\n".join(lines) + "\n")
            code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt"),
                             *_set_args()])
            assert code == 2
            assert "class ids" in capsys.readouterr().err

    def test_labels_beyond_cond_dim_rejected(self):
        # The dataset owns the class range; the class count is no setting
        # (TestTrain::test_unknown_setting_is_usage_error).
        points, labels = np.zeros((3, 2)), np.array([0, 1, 2])
        for clean, noisy in ((labels, np.array([0, 4, 2])), (np.array([0, 1, 4]), labels)):
            with pytest.raises(ValueError, match="expected 0..3"):
                data_mod.Dataset(points, clean, noisy)

    def test_checkpoint_with_shape_settings_rejected(self, tmp_path, capsys, edit_archive):
        # An archive written while x_dim and cond_dim were settings echoes
        # them, and one written while the EDM constants were settings echoes rho.
        _, ckpt = _gen_and_train(tmp_path)
        with np.load(ckpt / trainer.CHECKPOINT_FILE) as archive:
            echo = json.loads(str(archive["config_json"]))
        for extra in ({"x_dim": 2, "cond_dim": 4}, {"rho": 7.0}):
            edit_archive(ckpt, config_json=np.str_(json.dumps({**echo, **extra})))
            with pytest.raises(ValueError, match="bad config echo"):
                trainer.load_checkpoint(ckpt)
            code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "10",
                             "--out", str(tmp_path / "samples.csv")])
            assert code == 2
            assert "bad config echo" in capsys.readouterr().err
            assert not (tmp_path / "samples.csv").exists()

    def test_prototypes_with_missing_rows_rejected(self, tmp_path, capsys, edit_archive):
        _, ckpt = _gen_and_train(tmp_path)
        with np.load(ckpt / trainer.CHECKPOINT_FILE) as archive:
            protos = archive["prototypes"]
        edit_archive(ckpt, prototypes=protos[[0, 2]])
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "10",
                         "--out", str(tmp_path / "samples.csv")])
        assert code == 2
        assert "'prototypes'" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_non_finite_parameter_rejected(self, tmp_path, edit_archive):
        # Run as a program, so an uncaught exception would show as a traceback.
        _, ckpt = _gen_and_train(tmp_path)
        path = ckpt / trainer.CHECKPOINT_FILE
        with np.load(path) as archive:
            params = archive["params"].copy()
        params[0] = np.nan
        edit_archive(ckpt, params=params)
        out = tmp_path / "samples.csv"
        run = subprocess.run([sys.executable, "-m", "robustdiff.cli", "sample", "--checkpoint",
                              str(ckpt), "--per-class", "10", "--out", str(out)],
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert run.returncode == 2
        assert run.stderr.splitlines() == [f"error: {path}: 'params' holds non-finite values"]
        assert not out.exists()

    def test_flipped_bit_rejected(self, tmp_path, capsys):
        _, ckpt = _gen_and_train(tmp_path)
        path = ckpt / trainer.CHECKPOINT_FILE
        damaged = bytearray(path.read_bytes())
        # A bit of the parameters' bytes, which follow the first .npy header.
        # (A local zip header's extra field, which the reader never consults,
        # would load equal: TestArchiveDamage allows that.)
        damaged[damaged.index(b"\x93NUMPY") + 200] ^= 0x10
        path.write_bytes(bytes(damaged))
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "10",
                         "--out", str(tmp_path / "samples.csv")])
        assert code == 2
        assert f"{path}: unreadable checkpoint archive" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    def test_multi_file_checkpoint_rejected(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in ("model.ckpt", "opt.ckpt", "pseudo.txt", "prototypes.txt", "meta.txt"):
            (ckpt / name).write_text("")
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "10",
                         "--out", str(tmp_path / "samples.csv")])
        assert code == 2
        assert f"no checkpoint archive {ckpt / trainer.CHECKPOINT_FILE}" in capsys.readouterr().err

    def test_non_finite_coordinate_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        lines = data.read_text().splitlines()
        lines[2] = "nan,1.0," + lines[2].split(",", 2)[2]
        data.write_text("\n".join(lines) + "\n")
        code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt"),
                         *_set_args()])
        assert code == 2
        assert "record 1 has non-finite coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [("0.5,0.5,0", "record 1 has 3 fields, expected 4"),
         ("0.5,abc,0,0", "record 1 has a non-number in '0.5,abc,0,0'")],
        ids=["short", "not_a_number"],
    )
    def test_malformed_dataset_record_rejected(self, tmp_path, capsys, row, message):
        data = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        lines = data.read_text().splitlines()
        lines[2] = row
        data.write_text("\n".join(lines) + "\n")
        code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt"),
                         *_set_args()])
        assert code == 2
        assert f"error: {data}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [("", "no records"),
         ("1.0,nan,0\n", "record 0 has non-finite coordinates"),
         ("1.0,2.0,7\n", "record 0 has class ids 7; expected 0..3"),
         ("1.0,2.0\n", "record 0 has 2 fields, expected 3"),
         # scored as if whole, a file of some classes would read a MAE over those alone
         ("1.0,2.0,0\n3.0,4.0,2\n", "no samples of class 1,3")],
        ids=["header_only", "nan", "class_7", "short", "missing_class"],
    )
    def test_malformed_samples_file_rejected(self, tmp_path, capsys, body, message):
        data, samples = tmp_path / "data.csv", tmp_path / "samples.csv"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        samples.write_text("x1,x2,class\n" + body)
        capsys.readouterr()
        assert cli.main(["eval", "--dataset", str(data), "--samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert f"error: {samples}: {message}" in captured.err
        assert "mae" not in captured.out

    @pytest.mark.parametrize("missing", [1, 3])
    def test_dataset_without_a_class_rejected(self, tmp_path, capsys, missing):
        # Controllability is scored on the centroids of all N_CLASSES classes.
        data, samples = tmp_path / "data.csv", tmp_path / "samples.csv"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        lines = data.read_text().splitlines(keepends=True)
        data.write_text("".join(line for line in lines if line.split(",")[2] != str(missing)))
        samples.write_text("x1,x2,class\n0.5,0.5,0\n0.5,0.5,1\n0.5,0.5,2\n0.5,0.5,3\n")
        assert cli.main(["eval", "--dataset", str(data), "--samples", str(samples)]) == 2
        assert f"error: class {missing} missing from the reference data" in capsys.readouterr().err


class TestTrain:
    # x_dim and cond_dim are the data's shape; rho, beta1, guidance_w and
    # sigma_data are constants of the code.
    @pytest.mark.parametrize("setting", ["hiden=8", "x_dim=3", "cond_dim=5", "rho=0.5",
                                         "beta1=0.9", "guidance_w=3", "sigma_data=2.5"])
    def test_unknown_setting_is_usage_error(self, tmp_path, capsys, setting):
        data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        code = cli.main(["train", "--data", str(data), "--out", str(ckpt), *_set_args(),
                         "--set", setting])
        assert code == 1
        assert f"unknown setting {setting.split('=')[0]}" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [("num_steps=1", "num_steps must be >= 2"), ("lr=0", "lr must be > 0"),
         ("lr=nan", "lr must be > 0"), ("hidden=0", "hidden must be >= 1"),
         ("depth=0", "depth must be >= 1"), ("quad_nodes=0", "quad_nodes must be >= 1"),
         ("alpha=nan", "alpha must lie in [0, 1]"), ("alpha=1.5", "alpha must lie in [0, 1]"),
         ("hidden=abc", "usage error: hidden must be an integer, got 'abc'"),
         ("lr=fast", "usage error: lr must be a number, got 'fast'"),
         ("total_iters=1.5", "usage error: total_iters must be an integer, got '1.5'"),
         ("lr=1e50", "usage error: lr must be <= 3.40282e+38, the float32 maximum"),
         ("seed=-1", "usage error: seed must be >= 0"),
         ("total_iters=x", "usage error: total_iters must be an integer, got 'x'"),
         ("variant=pc", "usage error: variant must be one of ('vanilla', 'pc_only', 'pc_rdc')")],
    )
    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys, setting, message):
        data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        code = cli.main(["train", "--data", str(data), "--out", str(ckpt), *_set_args(),
                         "--set", setting])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

    def test_help_names_every_key(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        shown = " ".join(capsys.readouterr().out.split()).split("KEY is one of ", 1)[1]
        assert shown.split(", ") == [f.name for f in dataclasses.fields(TrainConfig)]

    def test_second_run_into_one_directory_replaces_the_log(self, tmp_path):
        data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        for _ in range(2):
            assert cli.main(["train", "--data", str(data), "--out", str(ckpt), *_set_args()]) == 0
        assert (ckpt / trainer.LOG_FILE).read_text().count("iter 0 ") == 1

    def test_vanilla_not_held_to_the_pseudo_budget(self, tmp_path, capsys):
        # The default early_stop_iters is 500; vanilla never reads it.
        data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        small = ["--set", "batch_size=16", "--set", "hidden=8", "--set", "depth=2"]
        for variant in ("pc_only", "pc_rdc"):
            code = cli.main(["train", "--data", str(data), "--out", str(ckpt),
                             "--set", f"variant={variant}", "--set", "total_iters=20", *small])
            assert code == 1
            assert "total_iters must cover the early-stop budget" in capsys.readouterr().err
            assert not ckpt.exists()
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         "--set", "variant=vanilla", "--set", "total_iters=20", *small]) == 0

    def test_unknown_setting_in_config_file_is_usage_error(self, tmp_path, capsys):
        data, ckpt, conf = tmp_path / "data.csv", tmp_path / "ckpt", tmp_path / "train.conf"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        conf.write_text("hidden = 8\nhiden = 8\n")
        code = cli.main(["train", "--data", str(data), "--out", str(ckpt), "--config", str(conf)])
        assert code == 1
        assert "unknown setting hiden" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_pseudo_budget_below_one_is_usage_error(self, tmp_path, capsys):
        data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        for variant in ("pc_only", "pc_rdc"):
            code = cli.main(["train", "--data", str(data), "--out", str(ckpt), "--set",
                             f"variant={variant}", *_set_args(), "--set", "early_stop_iters=0"])
            assert code == 1
            assert "early_stop_iters must be >= 1" in capsys.readouterr().err
            assert not ckpt.exists()
        # vanilla has no phase 1 and accepts a zero budget
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt), "--set",
                         "variant=vanilla", *_set_args(), "--set", "early_stop_iters=0"]) == 0

    @pytest.mark.parametrize(
        "variant, lr, message",
        [
            ("pc_rdc", "1e3", "non-finite gradient entries"),
            ("vanilla", "1e25", "non-finite gradient entries"),
            ("vanilla", "1e12", "second moment overflows"),
        ],
        ids=["pc_rdc_gradient", "vanilla_gradient", "vanilla_second_moment"],
    )
    def test_non_finite_update_ends_as_diverged(self, tmp_path, capsys, variant, lr, message):
        # The loss stays finite; the Adam step meets the non-finite values:
        # the gradient itself, or its square in the second moment.
        data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "5", "--eta", "0.4",
                         "--out", str(data)]) == 0
        code = cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         "--set", f"variant={variant}", "--set", "total_iters=60",
                         "--set", f"lr={lr}", "--set", "batch_size=16", "--set", "hidden=8",
                         "--set", "depth=2", "--set", "early_stop_iters=30"])
        assert code == 2
        assert re.search(f"training diverged: {message} at iteration \\d+",
                         capsys.readouterr().err)
        _, _, loaded = trainer.load_checkpoint(ckpt)
        assert loaded.diverged
        assert np.all(np.isfinite(loaded.params.values))
        assert np.all(np.isfinite(loaded.pseudo))


class TestImports:
    def test_no_process_pool_modules_on_import(self):
        # Only `reproduce` starts a pool; the other commands do not load its modules.
        code = ("import sys, robustdiff.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "[]"

    def test_package_needs_only_the_standard_library_and_numpy(self):
        # The north star's "no runtime dependency beyond numpy", as a check.
        found = set()
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found |= {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add(node.module.split(".")[0])
        assert "numpy" in found
        assert found - set(sys.stdlib_module_names) <= {"numpy", "robustdiff"}

    def test_one_module_runs_the_layers_and_one_builds_tapes(self):
        # nn_core alone calls silu_layer, so it alone knows of the half-scale
        # parameters; network alone builds an MlpTape, one per network.
        callers = {"silu_layer": set(), "MlpTape": set()}
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in callers:
                        callers[name].add(path.stem)
        assert callers == {"silu_layer": {"nn_core"}, "MlpTape": {"network"}}


class TestSample:
    def test_guidance_below_one_is_usage_error(self, tmp_path, capsys):
        # rejected before the (absent) checkpoint is looked at
        code = cli.main(["sample", "--checkpoint", str(tmp_path / "none"), "--w", "0.5"])
        assert code == 1
        assert "--w must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("w", ["nan", "inf"])
    def test_non_finite_guidance_is_usage_error(self, tmp_path, capsys, w):
        # On a trained checkpoint, where such a scale would sample nan rows.
        data, ckpt, out = tmp_path / "data.csv", tmp_path / "ckpt", tmp_path / "samples.csv"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt), *_set_args()]) == 0
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "4", "--w", w,
                         "--out", str(out)])
        assert code == 1
        assert "usage error: --w must be >= 1 and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_guidance_writes_no_samples(self, tmp_path, capsys):
        # A finite scale this large drives the sampler past the float32 range,
        # so the points come out nan; they are refused before the file opens
        # or its directory is made.
        data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
        out = tmp_path / "new" / "dir" / "samples.csv"
        assert cli.main(["gen-data", "--n-per-class", "5", "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt), *_set_args()]) == 0
        capsys.readouterr()
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "3", "--w", "1e300",
                         "--out", str(out)])
        assert code == 2
        assert f"error: {out}: non-finite coordinates, not written" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_svg_into_a_new_directory(self, tmp_path):
        _, ckpt = _gen_and_train(tmp_path)
        scatter = tmp_path / "new" / "scatter.svg"
        assert cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "4",
                         "--out", str(tmp_path / "samples.csv"), "--svg", str(scatter)]) == 0
        assert scatter.read_text().startswith("<svg")

    def test_per_class_below_one_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["sample", "--checkpoint", str(tmp_path / "none"), "--per-class", "0"])
        assert code == 1
        assert "--per-class must be >= 1" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out" / "samples.csv"
        code = cli.main(["sample", "--checkpoint", str(tmp_path / "none"), "--seed", "-1",
                         "--out", str(out)])
        assert code == 1
        assert "usage error: --seed must be >= 0" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_gen_data_n_per_class_below_one_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--n-per-class", "0", "--out", str(data)]) == 1
        assert "--n-per-class must be >= 1" in capsys.readouterr().err
        assert not data.exists()

    @pytest.mark.parametrize(
        "args, message",
        [(["--eta", "-0.5"], "--eta must lie in [0, 1]"),
         (["--eta", "nan"], "--eta must lie in [0, 1]"),
         (["--eta", "1.5"], "--eta must lie in [0, 1]"),
         (["--seed", "-3"], "--seed must be >= 0")],
        ids=["eta_negative", "eta_nan", "eta_above_one", "seed_negative"],
    )
    def test_gen_data_out_of_range_is_usage_error(self, tmp_path, capsys, args, message):
        data = tmp_path / "out" / "data.csv"
        assert cli.main(["gen-data", "--n-per-class", "5", *args, "--out", str(data)]) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not data.parent.exists()

    def test_diverged_pc_checkpoint_not_sampled(self, tmp_path, capsys):
        self._assert_diverged_not_sampled(tmp_path, capsys)

    def test_diverged_vanilla_checkpoint_not_sampled(self, tmp_path, capsys):
        self._assert_diverged_not_sampled(
            tmp_path, capsys, "--set", "variant=vanilla", "--set", "lr=1e30"
        )

    def test_overflowing_second_moment_not_sampled(self, tmp_path, capsys):
        # Every gradient entry stays finite, but its square overflows Adam's
        # second moment; left alone, no later step would move the parameters
        # and sampling would write nan rows.
        data, ckpt = tmp_path / "data.csv", tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "20", "--eta", "0.4",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         "--set", "variant=vanilla", "--set", "total_iters=20", "--set", "lr=1e12",
                         "--set", "batch_size=16", "--set", "hidden=8", "--set", "depth=2",
                         "--set", "early_stop_iters=0"]) == 2
        assert re.search(r"training diverged: second moment overflows at iteration \d+",
                         capsys.readouterr().err)
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "10",
                         "--out", str(tmp_path / "samples.csv")])
        assert code == 2
        assert "training diverged at iteration" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    @staticmethod
    def _assert_diverged_not_sampled(tmp_path, capsys, *train_args):
        data = tmp_path / "data.csv"
        ckpt = tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "20", "--eta", "0.4",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         *_set_args(), "--set", "lr=1e18", *train_args]) == 2
        capsys.readouterr()
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "10",
                         "--out", str(tmp_path / "samples.csv")])
        assert code == 2
        assert "training diverged at iteration" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()
