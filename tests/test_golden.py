"""Golden bytes for every command: the exit code, stdout, stderr and the
sha256 of every output file of in-process `run_cli` calls on the default
`synth --seed 3` set and on a larger one.

The bytes rest on this build's numpy reductions and `einsum`, so the hashes
are compared only on the build they were taken on (BUILD); elsewhere the
comparison is skipped with the build named, and the checks that do not read
bytes (the tests after the golden one) still run. A change that moves bytes
on purpose updates GOLDEN in the same commit and says which entries moved
and why. `python tests/test_golden.py` prints the table of the build it runs
on.
"""

import contextlib
import csv
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from trustfactor.cli import run_cli

BUILD = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}

DATA = ["--ratings", "{root}/synth/ratings.tsv", "--social", "{root}/synth/social.tsv"]
LARGE = ["--ratings", "{root}/synth-large/ratings.tsv", "--social",
         "{root}/synth-large/social.tsv"]
FIT = ["--eta", "0.01", "--epochs", "40"]
# the flags at which every fit of tradeoff and batch-study diverges
DIVERGE = ["--eta", "0.05", "--epochs", "30"]

# name -> argv; each run writes into {root}/<name>, and eval reads fit-mf-td's model
RUNS = {
    "synth": ["synth", "--seed", "3"],
    "fit-mf-td": ["fit", *DATA, "--method", "mf-td", *FIT],
    "fit-mf-td-sgd": ["fit", *DATA, "--method", "mf-td", "--optimizer", "sgd",
                      "--batch-size", "8", *FIT],
    "fit-mf": ["fit", *DATA, "--method", "mf", *FIT],
    "fit-mf-t-patience": ["fit", *DATA, "--method", "mf-t", "--repeats", "3", "--patience", "2",
                          *FIT],
    "fit-mf-d-logistic": ["fit", *DATA, "--method", "mf-d", "--loss", "logistic", *FIT],
    "fit-nb-td-d": ["fit", *DATA, "--method", "nb-td-d", "--p", "2", "--q", "2"],
    "fit-paper-literal": ["fit", *DATA, "--method", "mf-td", "--sign-convention",
                          "paper-literal", *FIT],
    "fit-no-clamp": ["fit", *DATA, "--method", "mf-td", "--no-clamp", *FIT],
    "eval": ["eval", "--ratings", "{root}/synth/ratings.tsv", "--model",
             "{root}/fit-mf-td/model.bin"],
    "split": ["split", "--ratings", "{root}/synth/ratings.tsv", "--repeats", "2"],
    "grid": ["grid", *DATA, *FIT, "--lambda-s-grid", "0,1", "--lambda-v-grid", "0.05,0.5"],
    "coldstart": ["coldstart", *DATA, "--methods", "mf,mf-td,nb-t", "--repeats", "2", *FIT],
    "consistency": ["consistency", *DATA],
    "majority-vote": ["majority-vote", *DATA],
    "tradeoff": ["tradeoff", *DATA, *FIT, "--distrust-fracs", "0.5,1"],
    "batch-study": ["batch-study", *DATA, *FIT, "--batch-sizes", "1,8"],
    "fit-diverged": ["fit", *DATA, "--method", "mf", "--eta", "1e300", "--epochs", "5",
                     "--repeats", "2"],
    "grid-diverged": ["grid", *DATA, "--eta", "1e300", "--epochs", "5", "--lambda-s-grid", "0,1",
                      "--lambda-v-grid", "0.1"],
    "tradeoff-diverged": ["tradeoff", *DATA, *DIVERGE, "--distrust-fracs", "0.5,1"],
    "batch-study-diverged": ["batch-study", *DATA, *DIVERGE, "--batch-sizes", "1,8"],
    # a larger set, whose fits reach the folded ranks of the rating folds and
    # the restricted Pearson blocks of the neighborhood predictor
    "synth-large": ["synth", "--seed", "3", "--n", "400", "--m", "300", "--density", "0.05"],
    "fit-large-mf-td": ["fit", *LARGE, "--method", "mf-td", *FIT],
    "fit-large-nb": ["fit", *LARGE, "--method", "nb"],
    # routes the runs above miss: an early stop that fires after a flat start
    # (at iteration 14), SGD's paper-literal batch scaling, and the hit-only
    # search of keys.find
    "fit-mf-td-early-stop": ["fit", *DATA, "--method", "mf-td", "--patience", "1", *FIT],
    "fit-sgd-paper-literal": ["fit", *DATA, "--method", "mf-td", "--optimizer", "sgd",
                              "--batch-size", "8", "--sign-convention", "paper-literal", *FIT],
    "fit-nb-t": ["fit", *DATA, "--method", "nb-t"],
}


def this_build():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def run_all(root):
    """name -> (exit code, stdout, stderr, {file name: sha256}), with the
    root directory written as {root} in stdout and stderr."""
    outcomes = {}
    for name, argv in RUNS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([arg.replace("{root}", str(root)) for arg in argv]
                           + ["--out", str(root / name)])
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted((root / name).iterdir())}
        outcomes[name] = (code, *(s.getvalue().replace(str(root), "{root}") for s in (out, err)),
                          files)
    return outcomes


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_all(root)


def rows(root, name, file):
    with open(root / name / file, newline="") as handle:
        return list(csv.reader(handle))


GOLDEN = {
    'synth': (
        0,
        ('wrote 6055 ratings, 300 trust and 300 distrust edges to {root}/synth\n'),
        (''),
        {
            'item_ids.tsv': 'fd6bea8027d75df9f6ea56aee58f92e2501037f1b47d0223cad5ba1ec15b474b',
            'planted.bin': 'dbe32fcad31585a4e555b4f95a47730bb45311cb7fc3cb8b6902ce8d465195ca',
            'ratings.tsv': '38e5ec7804aa31fe7764131dc6c4705ce03aa55fbd30f55c4c4e406513868ec7',
            'social.tsv': '87d5580000dc02b89cbbcc3538ea3b32b2a9d0a46326af68728d27ba17d573a5',
            'synth.csv': '77814ef1cc2563fca2373328868f986e8a02fe7e23ecb81ee46178d7030eb74e',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-mf-td': (
        0,
        ('mf-td: MAE 0.2685  RMSE 0.3262 over 1 repetition(s); results in {root}/fit-mf-td\n'),
        (''),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': '1553a134b11f730da5d3f6128f1e1e27db1f67f60488483420028da4da0f7882',
            'model.bin': '03b06ded6b15af3c3b394c8e996c0b645e58ccb8996b051651a877368210a72a',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-mf-td-sgd': (
        0,
        ('mf-td: MAE 0.2686  RMSE 0.3262 over 1 repetition(s); results in {root}/fit-mf-td-sgd\n'),
        (''),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': '8782ab180119d9f747a536b3bd792a33eb2b3d7a2e5dc288893c6ffd3eacabaa',
            'model.bin': '8129429293dde340b0ff216321edfd60dfb8845c228a76a19abfad28a05dfd98',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-mf': (
        0,
        ('mf: MAE 0.2685  RMSE 0.3262 over 1 repetition(s); results in {root}/fit-mf\n'),
        (''),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': '2aca8520602184e948356b33e1a5bcd663edebda8e47b64e017634d675034dad',
            'model.bin': '4e03e1314f97e3021640ceb6cd0e6f0af5910776f264b46b759878d3c3613b97',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-mf-t-patience': (
        0,
        ('mf-t: MAE 0.0864  RMSE 0.1354 over 3 repetition(s); results in {root}/fit-mf-t-patience\n'),
        (''),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': '4f6193f3dc04e82f5ab0cf4efeb01e44d91b8a5b092f345d9335305eab98dd9e',
            'model.bin': 'd4df7bd231e947ee2e0ab9742de66f20bd4944985b24c9cadfe714ede763fbea',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-mf-d-logistic': (
        0,
        ('mf-d: MAE 0.3798  RMSE 0.5031 over 1 repetition(s); results in {root}/fit-mf-d-logistic\n'),
        (''),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': '736d575c58380720bffbeba152e90e17fc48b635506a0fdd933a82bad78c2f63',
            'model.bin': 'ac4f688559af7fbaeb3e53244839b7d357d97ea8d0e8729b2778fd7a41a6392d',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-nb-td-d': (
        0,
        ('nb-td-d: MAE 0.8627  RMSE 1.1747 over 1 repetition(s); results in {root}/fit-nb-td-d\n'),
        (''),
        {
            'metrics.csv': '7454f1188576a19c070631a0127227aa035230ab9d8eed5f0f6707c58c076b19',
        }),
    'fit-paper-literal': (
        0,
        ('mf-td: MAE 0.2686  RMSE 0.3265 over 1 repetition(s); results in {root}/fit-paper-literal\n'),
        (''),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': 'cea3a4cc8800bc1e06a572c852f5399f0fe73caabea488785ffb404bb8985c40',
            'model.bin': 'e9a62fddbe5a26485b7d327e7b4456945a29231ea79a3062a8a8e69d595d1ddc',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-no-clamp': (
        0,
        ('mf-td: MAE 0.3034  RMSE 0.3393 over 1 repetition(s); results in {root}/fit-no-clamp\n'),
        (''),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': '019011ffe87baa4f076ee6c278b587bef980d345c816f989ee1db3e73fa0a650',
            'model.bin': '03b06ded6b15af3c3b394c8e996c0b645e58ccb8996b051651a877368210a72a',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'eval': (
        0,
        ('MAE 0.2520  RMSE 0.3133 on 6055 pairs; results in {root}/eval\n'),
        (''),
        {
            'eval.csv': 'd272b9aed808d08acf484e669989a3b2727f9b432bc7c859e0c6e26c2c657347',
        }),
    'split': (
        0,
        ('wrote 2 split(s) of 6055 ratings to {root}/split\n'),
        (''),
        {
            'splits.csv': '39616c89597c21d249f2109152896a89884cee64731605c71e256ad02dbeb9be',
            'test_0.tsv': 'a56a014469dab18ff57a57952511c4f3d4c6c8565fe6ab8167e450b59a780505',
            'test_1.tsv': 'c4cee98274cce4329d9122ab4599e02033c34332411ad0b536983b2615897a93',
            'train_0.tsv': '1247d18036c23bbf9380dbdbfdc88b3cf6156c8165b1106bc9420905bed3e552',
            'train_1.tsv': '147bf678f97a825fb782e459276ddcc6e8631048f90a6742a106bf881307239b',
        }),
    'grid': (
        0,
        ('best (lambda_s, lambda_v) = (1, 0.05) with validation RMSE 0.2174; surface in {root}/grid\n'),
        (''),
        {
            'grid.csv': '76851ec6ae057686f8e8957dc6ccf7796ee5813da3866950796bab1e47e600fa',
            'grid_best.csv': '27e2aa3503d6081e807ccc1de7f42a088409b0879be70a55a570078c8e5dfefe',
        }),
    'coldstart': (
        0,
        ('mf: cold-user RMSE mean 2.3638 over 2 repetition(s)\n'
         'mf-td: cold-user RMSE mean 2.3638 over 2 repetition(s)\n'
         'nb-t: cold-user RMSE mean 1.4137 over 2 repetition(s)\n'
         'results in {root}/coldstart\n'),
        (''),
        {
            'coldstart.csv': 'ec537d6003b306e53c506b989903f2d5a4f770c4f11ba91f014d50a48b4a7d5e',
        }),
    'consistency': (
        0,
        ('trust alignment over 156 users in 3 bins; results in {root}/consistency\n'),
        (''),
        {
            'consistency.csv': '49a6073e60f203b2c52df05da50fec459e9b1181bcb20d2cc10ca17af1c92571',
        }),
    'majority-vote': (
        0,
        ('majority-vote accuracy 100.00% over 180 held-out edges; results in {root}/majority-vote\n'),
        (''),
        {
            'majority_vote.csv': 'ecb671fc9aca908ed07254ac2777b8beb673c967749464b61da9e996cc5931d1',
        }),
    'tradeoff': (
        0,
        ('swept 2 distrust fractions; results in {root}/tradeoff\n'),
        (''),
        {
            'tradeoff.csv': 'c04a903c7ce5a99d5767aedf2e8afa62afa0573c0100c1d500aa060b70102e45',
        }),
    'batch-study': (
        0,
        ('batch study with 2 batch sizes; results in {root}/batch-study\n'),
        (''),
        {
            'batch_study.csv': '9370ba92cb92f8a527db44e9fbefc43882d0fd56ae17a458ed8369fe70a7206f',
        }),
    # a diverged fit scores inf: its summary line and metrics.csv say so, and
    # no model is written
    'fit-diverged': (
        0,
        ('mf: MAE inf  RMSE inf over 2 repetition(s); results in {root}/fit-diverged\n'),
        ('warning: mf fit (seed 0) stopped by divergence after 0 of 5 iterations\n'
         'warning: mf fit (seed 1) stopped by divergence after 0 of 5 iterations\n'
         'warning: no model written: the mf fit (seed 1) diverged\n'),
        {
            'metrics.csv': 'c2ad56296de0ff231e53c398e8a8f753df9d3b20db76caaece54248052a764d0',
        }),
    # no grid point is fitted: each says so, and none is named best
    'grid-diverged': (
        0,
        ('no best (lambda_s, lambda_v): every fit diverged; surface in {root}/grid-diverged\n'),
        ('warning: mf-td (lambda_s 0, lambda_v 0.1) fit (seed 0) stopped by divergence after 0 of 5 iterations\n'
         'warning: mf-td (lambda_s 1, lambda_v 0.1) fit (seed 0) stopped by divergence after 0 of 5 iterations\n'),
        {
            'grid.csv': 'e73107232904744ab3162d495e443fbc5a1d51e7422ea6ed108d795ba8d2301e',
        }),
    # the diverged sweep points write inf rows, and each says so
    'tradeoff-diverged': (
        0,
        ('swept 2 distrust fractions; results in {root}/tradeoff-diverged\n'),
        ('warning: mf-td (trust 0.9, distrust 0.5) fit (seed 0) stopped by divergence after 7 of 30 iterations\n'
         'warning: mf-td (trust 0.9, distrust 1) fit (seed 0) stopped by divergence after 7 of 30 iterations\n'
         'warning: mf-t (trust 1, distrust 0) fit (seed 0) stopped by divergence after 7 of 30 iterations\n'),
        {
            'tradeoff.csv': 'cc8a7eda26edf12385430a0913841ae12c9ee25f96408ff94b3e3e1297314188',
        }),
    # every curve stops early, and each fit says so in one warning line
    'batch-study-diverged': (
        0,
        ('batch study with 2 batch sizes; results in {root}/batch-study-diverged\n'),
        ('warning: gd fit (seed 0) stopped by divergence after 7 of 30 iterations\n'
         'warning: sgd-1 fit (seed 0) stopped by divergence after 7 of 30 iterations\n'
         'warning: sgd-8 fit (seed 0) stopped by divergence after 7 of 30 iterations\n'),
        {
            'batch_study.csv': '9cd9bd5c5353c31392e555c9f5ab6311757f91936795007cbd9c93024c2e6c7e',
        }),
    'synth-large': (
        0,
        ('wrote 5971 ratings, 300 trust and 300 distrust edges to {root}/synth-large\n'),
        (''),
        {
            'item_ids.tsv': 'ea9f6415f51f47391af8217e758008e4efe6c9893aa7b2e8bd598c1b277e02f0',
            'planted.bin': '0991917d4658908727b96f7b859b04f352d1f78329fdafbf48cdf2dfe14972de',
            'ratings.tsv': '6063bbff3fe828c60c219d86134e65a3bfb8de1d1c381b23a868c250d667bd15',
            'social.tsv': '26635c9da8ea7225497b8535f1de6d2b3170ccf1ef02f44b3b0327abea9492d2',
            'synth.csv': 'e07c556255dad3765446af1770c897682453f75c15432917c7f7b4219cce6f54',
            'user_ids.tsv': '66964ab5d83ca29f820f5272196cb88260dec112ba92e7c6bf2960d2e8ee787e',
        }),
    'fit-large-mf-td': (
        0,
        ('mf-td: MAE 0.8998  RMSE 1.1394 over 1 repetition(s); results in {root}/fit-large-mf-td\n'),
        (''),
        {
            'item_ids.tsv': '93b05817c3cf38a76edb872d225424497566301d17fec0a6a597e4ef0b9a59ec',
            'metrics.csv': '5033ba509fc7907cf0a039096288cb57c78276c3622b4d207ea306a8aec9df18',
            'model.bin': '6f74cc890efe9cacc86397c8f651a67274749d5b6b07a85964498328eb2ba5e0',
            'user_ids.tsv': '66964ab5d83ca29f820f5272196cb88260dec112ba92e7c6bf2960d2e8ee787e',
        }),
    'fit-large-nb': (
        0,
        ('nb: MAE 1.1741  RMSE 1.4228 over 1 repetition(s); results in {root}/fit-large-nb\n'),
        (''),
        {
            'metrics.csv': 'fbba37f13567ca2bc3aa83835cc2849844070d050cddc6901d4e91f4de9d393c',
        }),
    'fit-mf-td-early-stop': (
        0,
        ('mf-td: MAE 0.9858  RMSE 1.2090 over 1 repetition(s); results in {root}/fit-mf-td-early-stop\n'),
        ('warning: mf-td fit (seed 0) stopped by early-stop after 14 of 40 iterations\n'),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': '1334cb744b143a260d312aa13eb53e244d22dde2bfd5e012cc9ceed353c0c7b4',
            'model.bin': '9f404ba884bf863a5a5bda637dbf6c50a4dc886de16546c06fa50da81acb2bca',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-sgd-paper-literal': (
        0,
        ('mf-td: MAE 0.2685  RMSE 0.3262 over 1 repetition(s); results in {root}/fit-sgd-paper-literal\n'),
        (''),
        {
            'item_ids.tsv': 'cd664ed5249240448ddbcaab7813673fc217985d09f10cf4c8f9e7d821a68f58',
            'metrics.csv': 'ba4b1580d3e0f852bbb452f3acaed767621cb040ec7861c461b1488b3869b576',
            'model.bin': '4e6461a5b6c6da83869ef1d3f9dbe24421f45bb90a99747c5df0f0f8f295aedd',
            'user_ids.tsv': '08788e1697fb76e4a8da7c593b95cae81e2e5dad3215918f0d7605ef6081099b',
        }),
    'fit-nb-t': (
        0,
        ('nb-t: MAE 1.0393  RMSE 1.3138 over 1 repetition(s); results in {root}/fit-nb-t\n'),
        (''),
        {
            'metrics.csv': '5f82c08ada9daef9ec3c7ac37e1b4267c435e47718ae56876d3e4449081b4eaa',
        }),
}


def test_every_command_matches_golden_bytes(runs):
    if this_build() != BUILD:
        pytest.skip(f"the golden bytes were taken on {BUILD}, this is {this_build()}")
    _, outcomes = runs
    assert list(outcomes) == list(GOLDEN)
    for name, outcome in outcomes.items():
        assert outcome == GOLDEN[name], name


def test_gd_sgd_and_mf_fits_write_different_rows(runs):
    # the fits leave the clamped start, so the social term and SGD's sampled
    # triplets show in the metrics and the golden rows are not vacuous
    root, _ = runs
    fitted = [rows(root, name, "metrics.csv")[1] for name in ("fit-mf-td", "fit-mf-td-sgd",
                                                              "fit-mf")]
    assert len({tuple(row[3:]) for row in fitted}) == 3, fitted


def long_id(short):
    """A 17 to 33 byte id for a golden id such as u005, all of them sharing
    their first 12 bytes, of lengths that vary with the number."""
    return f"trustfactor-{'x' * (int(short[1:]) % 17)}-{short}"


def test_long_ids_and_crlf_fit_as_the_golden_set(runs):
    # ids longer than 7 bytes take fileio._intern's multi-word steps, and CRLF
    # line ends its universal newlines; the fit reads the same indices
    root, _ = runs
    (root / "synth-long").mkdir()
    for name in ("ratings.tsv", "social.tsv"):
        lines = (root / "synth" / name).read_text().splitlines()
        (root / "synth-long" / name).write_bytes(b"".join(
            f"{long_id(u)}\t{long_id(v)}\t{value}\r\n".encode()
            for u, v, value in (line.split("\t") for line in lines)))
    out = root / "fit-long"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(["fit", *(arg.replace("{root}/synth", str(root / "synth-long"))
                                 for arg in DATA), "--method", "mf-td", *FIT, "--out", str(out)])
    assert code == 0
    for name in ("metrics.csv", "model.bin"):
        assert (out / name).read_bytes() == (root / "fit-mf-td" / name).read_bytes(), name
    short = (root / "fit-mf-td" / "user_ids.tsv").read_text().splitlines()
    assert (out / "user_ids.tsv").read_text().splitlines() == [
        f"{index}\t{long_id(user)}" for index, user in (line.split("\t") for line in short)]


def test_diverged_fits_score_inf_and_say_so(runs):
    root, outcomes = runs
    # fit: one warning per repetition, inf rows, nan as the std of inf, and
    # no model, said in one more warning
    assert outcomes["fit-diverged"][0] == 0
    assert outcomes["fit-diverged"][2] == "".join(
        f"warning: mf fit (seed {seed}) stopped by divergence after 0 of 5 iterations\n"
        for seed in (0, 1)) + "warning: no model written: the mf fit (seed 1) diverged\n"
    assert list(outcomes["fit-diverged"][3]) == ["metrics.csv"]
    assert [row[3:] for row in rows(root, "fit-diverged", "metrics.csv")[1:]] == \
        [["inf", "inf"]] * 3 + [["nan", "nan"]]
    # grid: both points diverged, so each warns and no best point is named
    assert [row[2] for row in rows(root, "grid-diverged", "grid.csv")[1:]] == ["inf"] * 2
    assert list(outcomes["grid-diverged"][3]) == ["grid.csv"]
    assert outcomes["grid-diverged"][1].startswith("no best (lambda_s, lambda_v)")
    assert outcomes["grid-diverged"][2] == "".join(
        f"warning: mf-td (lambda_s {ls}, lambda_v 0.1) fit (seed 0) stopped by divergence "
        "after 0 of 5 iterations\n" for ls in (0, 1))
    # tradeoff: every point of the sweep and the reference row diverged, and each warns
    table = rows(root, "tradeoff-diverged", "tradeoff.csv")[1:]
    assert [row[3:] for row in table] == [["inf", "inf"]] * 3
    assert outcomes["tradeoff-diverged"][2].splitlines() == [
        f"warning: {row[0]} (trust {float(row[1]):g}, distrust {float(row[2]):g}) fit (seed 0) "
        "stopped by divergence after 7 of 30 iterations" for row in table]
    # batch-study: each curve ends at its last finite iteration, and its fit warns
    table = rows(root, "batch-study-diverged", "batch_study.csv")[1:]
    assert all(float(value) < 10 for row in table for value in row[3:])
    assert outcomes["batch-study-diverged"][2] == "".join(
        f"warning: {label} fit (seed 0) stopped by divergence after "
        f"{max(int(row[2]) for row in table if row[0] == label)} of 30 iterations\n"
        for label in ("gd", "sgd-1", "sgd-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(f"BUILD = {this_build()!r}", file=sys.stderr)
        for name, (code, out, err, files) in run_all(Path(tmp)).items():
            texts = ("\n         ".join(map(repr, text.splitlines(True))) or "''"
                     for text in (out, err))
            print(f"    {name!r}: (\n        {code},", *(f"        ({text})," for text in texts),
                  "        {", sep="\n")
            print("".join(f"            {file!r}: {digest!r},\n" for file, digest in files.items())
                  + "        }),")
