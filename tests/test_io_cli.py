import csv
import os
import struct

import numpy as np
import pytest

from trustfactor.cli import run_cli
from trustfactor.data import FactorModel, init_model
from trustfactor.fileio import (
    IdMap,
    load_dataset,
    load_id_map,
    load_model,
    load_ratings,
    load_social,
    save_id_map,
    save_model,
    save_ratings,
    save_social,
    format_number,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


FIGURE_SOCIAL = (
    "u1\tu2\t1\n"
    "u1\tu4\t1\n"
    "u1\tu6\t1\n"
    "u1\tu7\t1\n"
    "u1\tu3\t-1\n"
    "u1\tu5\t-1\n"
)


class TestLoadRatings:
    def test_basic(self, tmp_path):
        path = write(tmp_path / "r.tsv", "u1\ti1\t4\nu1\ti2\t3.5\nu2\ti3\t1\n")
        ratings = load_ratings(path)
        assert ratings.n == 2 and ratings.m == 3 and ratings.nnz == 3

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "r.tsv", "")
        ratings = load_ratings(path)
        assert ratings.n == 0 and ratings.m == 0 and ratings.nnz == 0

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write(tmp_path / "r.tsv", "u1\ti1\tsix\n")
        with pytest.raises(ValueError, match=r":1: rating 'six'"):
            load_ratings(path)

    def test_out_of_bounds_rating(self, tmp_path):
        path = write(tmp_path / "r.tsv", "u1\ti1\t9\n")
        with pytest.raises(ValueError, match="outside"):
            load_ratings(path)

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = write(tmp_path / "r.tsv", "u1\ti1\t4\nu1\ti1\t2\n")
        with caplog.at_level("WARNING"):
            ratings = load_ratings(path)
        assert ratings.nnz == 1
        assert ratings.values[0] == 2.0
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_comments_skipped(self, tmp_path):
        path = write(tmp_path / "r.tsv", "# header\nu1\ti1\t4\n")
        assert load_ratings(path).nnz == 1


class TestLoadSocial:
    def test_figure_fixture(self, tmp_path):
        path = write(tmp_path / "s.tsv", FIGURE_SOCIAL)
        graph = load_social(path)
        assert graph.trust_count == 4
        assert graph.distrust_count == 2

    def test_self_edge_rejected(self, tmp_path):
        path = write(tmp_path / "s.tsv", "u1\tu1\t1\n")
        with pytest.raises(ValueError, match="self-edge"):
            load_social(path)

    def test_bad_sign_rejected(self, tmp_path):
        path = write(tmp_path / "s.tsv", "u1\tu2\t2\n")
        with pytest.raises(ValueError, match="sign"):
            load_social(path)

    def test_contradiction_cites_both_lines(self, tmp_path):
        path = write(tmp_path / "s.tsv", "u1\tu2\t1\nu1\tu2\t-1\n")
        with pytest.raises(ValueError, match=r"s.tsv:2.*s.tsv:1"):
            load_social(path)

    def test_duplicate_edge_deduplicated(self, tmp_path, caplog):
        path = write(tmp_path / "s.tsv", "u1\tu2\t1\nu1\tu2\t1\n")
        with caplog.at_level("WARNING"):
            graph = load_social(path)
        assert graph.trust_count == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_unsigned_files_merged(self, tmp_path):
        ratings = write(tmp_path / "r.tsv", "u1\ti1\t4\nu2\ti1\t3\n")
        trust = write(tmp_path / "t.tsv", "u1\tu2\n")
        distrust = write(tmp_path / "d.tsv", "u1\tu3\n")
        bundle = load_dataset(ratings, trust_path=trust, distrust_path=distrust)
        # u3 appears only in the social data yet still gets a row
        assert bundle.ratings.n == 3
        assert bundle.graph.trust_count == 1
        assert bundle.graph.distrust_count == 1


class TestRoundtrips:
    def test_dataset_roundtrip(self, tmp_path):
        ratings_path = write(tmp_path / "r.tsv", "u1\ti1\t4\nu1\ti2\t3.5\nu2\ti1\t1\n")
        social_path = write(tmp_path / "s.tsv", FIGURE_SOCIAL)
        bundle = load_dataset(ratings_path, social_path=social_path)
        out_r = tmp_path / "r2.tsv"
        out_s = tmp_path / "s2.tsv"
        save_ratings(out_r, bundle.ratings, bundle.user_map, bundle.item_map)
        save_social(out_s, bundle.graph, bundle.user_map)
        orig_r = set(open(ratings_path).read().strip().splitlines())
        got_r = set(out_r.read_text().strip().splitlines())
        assert orig_r == got_r
        orig_s = set(open(social_path).read().strip().splitlines())
        got_s = set(out_s.read_text().strip().splitlines())
        assert orig_s == got_s

    def test_id_map_roundtrip(self, tmp_path):
        id_map = IdMap(["alpha", "beta", "gamma"])
        save_id_map(tmp_path / "ids.tsv", id_map)
        loaded = load_id_map(tmp_path / "ids.tsv")
        assert loaded.ids == id_map.ids

    def test_model_roundtrip_bit_exact(self, tmp_path):
        model = init_model(7, 5, 3, seed=123)
        save_model(model, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        assert loaded.U.tobytes() == model.U.tobytes()
        assert loaded.V.tobytes() == model.V.tobytes()
        assert loaded.k == 3 and loaded.seed == 123

    def test_model_file_length(self, tmp_path):
        model = FactorModel(np.array([[2.0]]), np.array([[3.0]]), 1, seed=9)
        save_model(model, tmp_path / "m.bin")
        assert os.path.getsize(tmp_path / "m.bin") == 4 + 4 + 24 + 8 + 8 + 8

    def test_truncated_model_rejected(self, tmp_path):
        model = init_model(4, 4, 2, seed=0)
        save_model(model, tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="unexpected end"):
            load_model(tmp_path / "cut.bin")

    @pytest.mark.parametrize("dims", [(2**62, 2**62, 1), (10**5, 10**5, 64)])
    def test_header_dims_checked_against_file_size(self, tmp_path, capsys, dims):
        model = init_model(2, 2, 1, seed=0)
        save_model(model, tmp_path / "m.bin")
        blob = bytearray((tmp_path / "m.bin").read_bytes())
        blob[8:32] = struct.pack("<QQQ", *dims)
        (tmp_path / "m.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unexpected end"):
            load_model(tmp_path / "m.bin")
        code = run_cli(["eval", "--ratings", write(tmp_path / "r.tsv", "u\ti\t3\n"),
                        "--model", str(tmp_path / "m.bin"), "--out", str(tmp_path / "ev")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            load_model(tmp_path / "bad.bin")


class TestFormatNumber:
    def test_six_significant_digits(self):
        assert format_number(1.2345678) == "1.23457"
        assert format_number(0.000123456789) == "0.000123457"
        assert format_number(3) == "3"
        assert format_number(None) == ""


def _synth_dir(tmp_path, seed=0):
    out = tmp_path / f"synth{seed}"
    code = run_cli([
        "synth", "--out", str(out), "--seed", str(seed),
        "--n", "40", "--m", "20", "--rank", "2", "--clusters", "2",
        "--density", "0.4", "--noise", "0.1",
        "--trust-edges", "60", "--distrust-edges", "60",
    ])
    assert code == 0
    return out


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestCli:
    def test_unknown_subcommand_fails(self, capsys):
        assert run_cli(["frobnicate"]) != 0

    def test_bad_train_frac(self, tmp_path, capsys):
        out = _synth_dir(tmp_path)
        code = run_cli([
            "fit", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"),
            "--out", str(tmp_path / "fit"), "--train-frac", "1.5", "--epochs", "2",
        ])
        assert code != 0
        assert "train-frac" in capsys.readouterr().err

    def test_synth_fit_eval_pipeline(self, tmp_path, capsys):
        out = _synth_dir(tmp_path)
        fit_dir = tmp_path / "fit"
        code = run_cli([
            "fit", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"),
            "--method", "mf-td", "--epochs", "60", "--eta", "0.02",
            "--lambda-s", "1.0", "--lambda-u", "0.05", "--lambda-v", "0.05",
            "--out", str(fit_dir), "--seed", "1",
        ])
        assert code == 0
        table = read_csv(fit_dir / "metrics.csv")
        assert table[0] == ["method", "repetition", "seed", "mae", "rmse"]
        assert len(table) == 4  # header + 1 repetition + mean + std
        eval_dir = tmp_path / "eval"
        code = run_cli([
            "eval", "--ratings", str(out / "ratings.tsv"),
            "--model", str(fit_dir / "model.bin"), "--out", str(eval_dir),
        ])
        assert code == 0
        table = read_csv(eval_dir / "eval.csv")
        assert table[0] == ["pairs", "skipped", "mae", "rmse"]
        assert float(table[1][2]) >= 0.0

    def test_eval_skips_unknown_ids(self, tmp_path, capsys):
        model = FactorModel(np.array([[1.0, 0.5], [2.0, -1.0]]),
                            np.array([[1.5, 1.0], [0.2, 3.0]]), 2, seed=4)
        save_model(model, tmp_path / "model.bin")
        save_id_map(tmp_path / "user_ids.tsv", IdMap(["a", "b"]))
        save_id_map(tmp_path / "item_ids.tsv", IdMap(["x", "y"]))
        ratings = write(tmp_path / "r.tsv", "a\tx\t2\nb\ty\t1\nc\tx\t3\na\tz\t4\nb\tx\t5\n")
        code = run_cli(["eval", "--ratings", ratings, "--model", str(tmp_path / "model.bin"),
                        "--out", str(tmp_path / "ev")])
        assert code == 0
        assert "skipped 2 pairs" in capsys.readouterr().err
        # oracle: clamped dot products of the three known pairs (a,x), (b,y), (b,x)
        errors = [2 - 2.0, 1 - 1.0, 5 - 2.0]
        table = read_csv(tmp_path / "ev" / "eval.csv")
        assert table[1][:2] == ["3", "2"]
        assert float(table[1][2]) == pytest.approx(np.mean(np.abs(errors)), rel=1e-5)
        assert float(table[1][3]) == pytest.approx(np.sqrt(np.mean(np.square(errors))), rel=1e-5)

    def test_nb_method_warns_on_optimizer(self, tmp_path, capsys):
        out = _synth_dir(tmp_path)
        code = run_cli([
            "fit", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"),
            "--method", "nb", "--optimizer", "sgd",
            "--out", str(tmp_path / "nbfit"), "--seed", "1",
        ])
        assert code == 0
        assert "optimizer ignored for nb" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [["--p", "0"], ["--q", "0"], ["--p", "-1"]])
    def test_nb_rejects_depth_below_one(self, tmp_path, capsys, depth):
        out = _synth_dir(tmp_path)
        code = run_cli([
            "fit", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"), "--method", "nb-td-f", *depth,
            "--out", str(tmp_path / "nbfit"), "--seed", "1",
        ])
        assert code == 1
        assert "propagation depth must be at least 1" in capsys.readouterr().err

    def test_split_deterministic(self, tmp_path):
        out = _synth_dir(tmp_path)
        args = ["split", "--ratings", str(out / "ratings.tsv"),
                "--train-frac", "0.8", "--repeats", "2", "--seed", "7"]
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("splits.csv", "train_0.tsv", "test_1.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_grid_writes_surface(self, tmp_path):
        out = _synth_dir(tmp_path)
        grid_dir = tmp_path / "grid"
        code = run_cli([
            "grid", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"),
            "--epochs", "20", "--eta", "0.02",
            "--lambda-s-grid", "0,1", "--lambda-v-grid", "0.05,0.5",
            "--out", str(grid_dir), "--seed", "3",
        ])
        assert code == 0
        surface = read_csv(grid_dir / "grid.csv")
        assert surface[0] == ["lambda_s", "lambda_v", "val_rmse"]
        assert len(surface) == 5
        best = read_csv(grid_dir / "grid_best.csv")
        rmses = [float(row[2]) for row in surface[1:]]
        assert float(best[1][2]) == min(rmses)

    def test_consistency_and_vote_and_tradeoff(self, tmp_path):
        out = _synth_dir(tmp_path)
        base = ["--ratings", str(out / "ratings.tsv"),
                "--social", str(out / "social.tsv"), "--seed", "5"]
        assert run_cli(["consistency", *base, "--out", str(tmp_path / "c")]) == 0
        table = read_csv(tmp_path / "c" / "consistency.csv")
        assert table[0][0] == "bin"
        assert run_cli(["majority-vote", *base, "--out", str(tmp_path / "v")]) == 0
        rows = read_csv(tmp_path / "v" / "majority_vote.csv")
        shares = [float(r[2]) for r in rows[1:]]
        assert sum(shares) == pytest.approx(100.0)
        assert run_cli([
            "tradeoff", *base, "--out", str(tmp_path / "t"),
            "--epochs", "15", "--eta", "0.02", "--distrust-fracs", "0.5,1.0",
        ]) == 0
        rows = read_csv(tmp_path / "t" / "tradeoff.csv")
        assert [r[0] for r in rows[1:]] == ["mf-td", "mf-td", "mf-t"]

    def test_tradeoff_rerun_byte_identical(self, tmp_path):
        out = _synth_dir(tmp_path)
        args = ["tradeoff", "--ratings", str(out / "ratings.tsv"),
                "--social", str(out / "social.tsv"), "--seed", "5",
                "--epochs", "10", "--eta", "0.02", "--distrust-fracs", "0.5,1.0"]
        assert run_cli(args + ["--out", str(tmp_path / "t1")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "t2")]) == 0
        assert (tmp_path / "t1" / "tradeoff.csv").read_bytes() == \
            (tmp_path / "t2" / "tradeoff.csv").read_bytes()

    def test_coldstart_and_batch_study(self, tmp_path):
        out = _synth_dir(tmp_path)
        base = ["--ratings", str(out / "ratings.tsv"),
                "--social", str(out / "social.tsv"), "--seed", "2"]
        assert run_cli([
            "coldstart", *base, "--out", str(tmp_path / "cold"),
            "--cold-frac", "0.2", "--repeats", "2", "--epochs", "30",
            "--eta", "0.02", "--methods", "mf,mf-td",
        ]) == 0
        table = read_csv(tmp_path / "cold" / "coldstart.csv")
        assert table[0] == ["method", "repetition", "seed", "mae", "rmse"]
        assert run_cli([
            "batch-study", *base, "--out", str(tmp_path / "bs"),
            "--epochs", "10", "--eta", "0.02", "--batch-sizes", "1,8",
        ]) == 0
        table = read_csv(tmp_path / "bs" / "batch_study.csv")
        assert table[0] == ["optimizer", "batch_size", "iteration", "test_rmse", "test_mae"]
        optimizers = {row[0] for row in table[1:]}
        assert optimizers == {"gd", "sgd-1", "sgd-8"}

    def test_synth_rerun_byte_identical(self, tmp_path):
        a = _synth_dir(tmp_path / "x", seed=4)
        b = _synth_dir(tmp_path / "y", seed=4)
        assert (a / "ratings.tsv").read_bytes() == (b / "ratings.tsv").read_bytes()
        assert (a / "social.tsv").read_bytes() == (b / "social.tsv").read_bytes()

    def test_fit_variants_and_repeats(self, tmp_path):
        out = _synth_dir(tmp_path)
        base = ["fit", "--ratings", str(out / "ratings.tsv"),
                "--social", str(out / "social.tsv"), "--epochs", "10",
                "--eta", "0.02"]
        code = run_cli(base + [
            "--method", "mf-td", "--optimizer", "sgd", "--batch-size", "4",
            "--loss", "logistic", "--sign-convention", "paper-literal",
            "--repeats", "2", "--out", str(tmp_path / "v1"), "--seed", "3",
        ])
        assert code == 0
        table = read_csv(tmp_path / "v1" / "metrics.csv")
        assert len(table) == 5  # header + 2 repetitions + mean + std
        assert table[3][0] == "mf-td-mean" and table[4][0] == "mf-td-std"
        for method in ("mf-t", "mf-d", "nb-t", "nb-td-f", "nb-td-d"):
            extra = ["--p", "1", "--q", "2"] if method.startswith("nb") else []
            code = run_cli(base + [
                "--method", method, *extra,
                "--out", str(tmp_path / f"v_{method}"), "--seed", "3",
            ])
            assert code == 0, method
