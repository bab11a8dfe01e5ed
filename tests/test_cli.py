import re

from robustdiff import cli

TINY = [
    "batch_size=16",
    "hidden=8",
    "depth=2",
    "quad_nodes=3",
    "num_steps=6",
    "total_iters=20",
    "early_stop_iters=10",
]


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
        assert (ckpt / "prototypes.txt").exists()


def _reproduce_args(out, *extra):
    return ["reproduce", "--out", str(out), "--etas", "0.4", "--seeds", "0",
            "--variants", "vanilla,pc_rdc", *_set_args(),
            "--set", "n_per_class=20", "--set", "per_class_samples=10", *extra]


class TestReproduce:
    def test_jobs2_prints_one_line_per_cell(self, tmp_path, capsys):
        cli.main(_reproduce_args(tmp_path / "r", "--jobs", "2"))
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("finished ")]
        assert lines == ["finished vanilla eta=0.4 seed=0", "finished pc_rdc eta=0.4 seed=0"]

    def test_jobs_below_one_is_usage_error(self, tmp_path):
        assert cli.main(_reproduce_args(tmp_path / "r", "--jobs=-1")) == 1
        assert cli.main(_reproduce_args(tmp_path / "r0", "--jobs", "0")) == 1
        assert not (tmp_path / "r0" / "manifest.txt").exists()

    def test_results_byte_identical_across_jobs_and_manifest_rerun(self, tmp_path):
        # The gates may fail on a run this small, so the exit code is not asserted.
        cli.main(_reproduce_args(tmp_path / "j1", "--jobs", "1"))
        cli.main(_reproduce_args(tmp_path / "j2", "--jobs", "2"))
        cli.main(["reproduce", "--out", str(tmp_path / "rerun"),
                  "--manifest", str(tmp_path / "j1" / "manifest.txt")])
        want = (tmp_path / "j1" / "results.csv").read_bytes()
        assert want.count(b"\n") == 3  # header + 2 cells
        assert (tmp_path / "j2" / "results.csv").read_bytes() == want
        assert (tmp_path / "rerun" / "results.csv").read_bytes() == want


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

    def test_prototypes_with_missing_rows_rejected(self, tmp_path, capsys):
        _, ckpt = _gen_and_train(tmp_path)
        protos = ckpt / "prototypes.txt"
        rows = protos.read_text().splitlines()
        protos.write_text(rows[0] + "\n" + rows[2] + "\n")
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "10",
                         "--out", str(tmp_path / "samples.csv")])
        assert code == 2
        assert "prototypes.txt" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()


class TestSample:
    def test_guidance_below_one_is_usage_error(self, tmp_path, capsys):
        # rejected before the (absent) checkpoint is looked at
        code = cli.main(["sample", "--checkpoint", str(tmp_path / "none"), "--w", "0.5"])
        assert code == 1
        assert "--w must be >= 1" in capsys.readouterr().err

    def test_diverged_pc_checkpoint_not_sampled(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        ckpt = tmp_path / "ckpt"
        assert cli.main(["gen-data", "--n-per-class", "20", "--eta", "0.4",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         *_set_args(), "--set", "lr=1e18"]) == 2
        assert not (ckpt / "prototypes.txt").exists()
        code = cli.main(["sample", "--checkpoint", str(ckpt), "--per-class", "10",
                         "--out", str(tmp_path / "samples.csv")])
        assert code == 2
        assert "without prototypes.txt" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()
