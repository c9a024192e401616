"""The benchmark's workloads: what each pass runs, the checks on its outputs,
and the per-layer probes of the traced run.

Untraced passes use only `trustfactor.cli.run_cli` and names in
`trustfactor.__all__`. Probes look their target up by name and report it as
missing, not as a failure, when the package no longer exports it. A metric
whose function the workload does not call is probed on the small planted
probe instance, so every workload reports every metric.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import trustfactor
from trustfactor.cli import run_cli

from checks import (
    Tally, check_consistency, check_eval, check_fit_metrics, check_model, check_synth,
)
from calibrate import REFERENCE_S, reference_loops, time_reference
from gen import InputSpec, file_digest, write_inputs
from tracing import NullTracer

R_RANGE = 4.0  # ratings lie in [1, 5]
SPLIT_FRACTION = 0.9  # the CLI's default --train-frac

# Per-layer metrics of the traced run: name -> (unit, end-to-end metric it moves).
PER_LAYER = {
    "fileio.load_dataset_s": ("s", "setup_s"),
    "experiments.split_ratings_ms": ("ms", "setup_s"),
    "data.extract_triplets_ms": ("ms", "setup_s"),
    "data.lazy_triplets_ms": ("ms", "setup_s"),
    "experiments.synth_generate_s": ("s", "synth_s, peak_rss_mb"),
    "objective.rating_grad_ms": ("ms", "fit_s"),
    "objective.social_grad_ms": ("ms", "fit_s"),
    "objective.batch_grad_ms": ("ms", "fit_s"),
    "objective.objective_ms": ("ms", "fit_s"),
    "data.sample_triplets_ms": ("ms", "fit_s"),
    "optimize.iter_ms": ("ms", "fit_s"),
    "optimize.eval_ms": ("ms", "fit_s"),
    "data.predict_many_ms": ("ms", "fit_s, eval_s"),
    "experiments.evaluate_model_ms": ("ms", "fit_s, eval_s"),
    "metrics.error_ms": ("ms", "fit_s, eval_s"),
    "fileio.save_model_ms": ("ms", "fit_s"),
    "neighborhood.similarity_cache_s": ("s", "fit_s"),
    "neighborhood.propagate_ms": ("ms", "fit_s"),
    "neighborhood.predict_us": ("us", "fit_s"),
    "experiments.consistency_eval_s": ("s", "consistency_s"),
    "data.ratings": ("count", "all"),
    "data.edges": ("count", "all"),
    "data.triplets": ("count", "setup_s, fit_s"),
    "optimize.iterations": ("count", "fit_s"),
    "metrics.pairs": ("count", "fit_s, eval_s"),
    "neighborhood.co_rated_pairs": ("count", "fit_s"),
    "neighborhood.weight_yield": ("ratio", "fit_s"),
    "objective.computed_mb_per_iter": ("MB", "fit_s"),
}
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
NB_DEPTH = 2  # trust and distrust propagation depth (--p, --q) of the nb methods
# The probe instance: small planted inputs on which the traced run measures
# the per-layer metrics of functions a workload does not call itself, so
# that every workload reports every metric with a measured value.
PROBE_SPEC = InputSpec(n=500, m=400, density=0.04, noise=0.3,
                       trust_edges=1500, distrust_edges=1500)
PROBE_K = 10
PROBE_EPOCHS = 3
PROBE_BATCH = 4096
MISSING = -1.0  # the result value of a metric whose probe target is gone


class Missing(Exception):
    """A probe target the package no longer exports."""


def public(name):
    if name not in trustfactor.__all__:
        raise Missing(f"trustfactor.{name} is not exported")
    return getattr(trustfactor, name)


@dataclass
class Data:
    bundle: object
    train: object
    test: object
    store: object


class Workload:
    """One workload: inputs from a seed, a pass of timed phases, checks, probes."""

    name = ""
    spec: InputSpec
    store_function = None  # the trustfactor function set-up builds the triplet store with
    once = ()  # timed phases run once per run, before the passes
    phases = ()  # timed phases after set-up, in pass order
    setup_repeats = 3  # set-ups per pass

    def __init__(self, work: Path, seed: int, tally: Tally):
        self.work = work
        self.seed = seed
        self.tally = tally
        self.tracer = NullTracer()
        self.ratings_path = work / "ratings.tsv"
        self.social_path = work / "social.tsv"
        self.inputs = None
        self.test_rmse = []
        self.calibrated = None  # a dict: calibrate every timed sample into it (calibrate.py)

    # -- inputs ---------------------------------------------------------

    def prepare(self):
        self.inputs = write_inputs(self.spec, self.seed, self.work)

    def verify_inputs(self):
        for name, digest in self.inputs["sha256"].items():
            self.tally.check(file_digest(self.work / name) == digest, f"input {name} changed")

    # -- timed work -----------------------------------------------------

    def timed(self, samples, phase, fn):
        calibrate = self.calibrated is not None
        if calibrate:
            # the longer the phase, the more it costs to misjudge its speed
            loops = reference_loops(samples.get(phase, [0.0])[-1])
            before = time_reference(loops)
        with self.tracer.span(phase):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        samples.setdefault(phase, []).append(elapsed)
        if calibrate:
            speed = (before + time_reference(loops)) / 2
            self.calibrated.setdefault(phase, []).append(elapsed * REFERENCE_S / speed)
        return result

    def call(self, name, fn):
        with self.tracer.span(name):
            return fn()

    def cli(self, argv):
        """run_cli with its console output captured; anything but exit code 0
        is one failure."""
        err = io.StringIO()
        with self.tracer.span(f"cli.{argv[0]}"), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = run_cli([str(a) for a in argv])
            except Exception as exc:  # a crashing command is recorded, not fatal
                code = f"{type(exc).__name__}: {exc}"
        self.tally.check(code == 0, f"cli {argv[0]}: exit {code}: {err.getvalue().strip()}")

    def data_flags(self):
        return ["--ratings", self.ratings_path, "--social", self.social_path, "--seed", self.seed]

    def setup(self):
        """What every command pays before its main work: load, split, store."""
        bundle = self.call("fileio.load_dataset", lambda: trustfactor.load_dataset(
            self.ratings_path, social_path=self.social_path))
        train, test = self.call("experiments.split_ratings", lambda: trustfactor.split_ratings(
            bundle.ratings, trustfactor.SplitSpec(SPLIT_FRACTION, self.seed, 1)))
        store = None
        if self.store_function:
            build = getattr(trustfactor, self.store_function)
            store = self.call(f"data.{self.store_function}", lambda: build(bundle.graph))
        return Data(bundle, train, test, store)

    def run_phase(self, phase, *args):
        """Run the method a phase is named after (`fit_s` runs `fit`)."""
        return getattr(self, phase[:-2])(*args)

    def run_once(self, samples):
        for phase in self.once:
            self.timed(samples, phase, lambda: self.run_phase(phase))
        self.check_once()

    def check_once(self):
        pass

    def run_pass(self, samples):
        data = None
        for _ in range(self.setup_repeats):
            data = self.timed(samples, "setup_s", lambda: self.tally.operation(self.setup, "setup"))
        if data is None:
            return
        self.data = data
        for phase in self.phases:
            self.timed(samples, phase, lambda: self.run_phase(phase, data))
        self.check_pass(data)

    # -- traced run -----------------------------------------------------

    def probe(self, out, name, fn, repeats=1):
        """Store in out[name] the median time of `repeats` calls of fn, in the
        metric's unit, and return the last call's result."""
        times = []
        for _ in range(repeats):
            with self.tracer.span(name) as span:
                result = fn()
            times.append(span["end"] - span["start"])
        out[name] = statistics.median(times) * UNIT_SCALE[PER_LAYER[name][0]]
        return result

    @contextlib.contextmanager
    def guard(self, out, *names):
        """Record those of `names` not yet measured as missing, with the
        reason, if a probe target in the block is no longer exported."""
        try:
            yield
        except Missing as exc:
            for name in names:
                out.setdefault(name, {"missing": str(exc)})

    def setup_metrics(self, out):
        spans = ["fileio.load_dataset", "experiments.split_ratings"]
        if self.store_function:
            spans.append(f"data.{self.store_function}")
        for span in spans:
            name = next(n for n in PER_LAYER if n.startswith(span + "_"))
            out[name] = (statistics.median(self.tracer.durations(span))
                         * UNIT_SCALE[PER_LAYER[name][0]])
        out["data.ratings"] = self.data.bundle.ratings.nnz
        out["data.edges"] = self.inputs["trust_edges"] + self.inputs["distrust_edges"]
        out["metrics.pairs"] = self.data.test.nnz
        with self.guard(out, "data.triplets"):
            out["data.triplets"] = public("lazy_triplets")(self.data.bundle.graph).total

    def model_probes(self, out, model, test, save_path):
        """Prediction, error and model-file metrics on the test pairs for a
        factor model."""
        with self.guard(out, "data.predict_many_ms", "metrics.error_ms"):
            pred = self.probe(out, "data.predict_many_ms", lambda: public("predict_many")(
                model, test.users, test.items), repeats=5)
            pairs = list(zip(test.values.tolist(), pred.tolist()))
            self.probe(out, "metrics.error_ms",
                       lambda: (public("mae")(pairs), public("rmse")(pairs)), repeats=5)
        with self.guard(out, "experiments.evaluate_model_ms"):
            self.probe(out, "experiments.evaluate_model_ms",
                       lambda: public("evaluate_model")(model, test), repeats=5)
        with self.guard(out, "fileio.save_model_ms"):
            self.probe(out, "fileio.save_model_ms",
                       lambda: public("save_model")(model, save_path), repeats=5)

    def rating_grad_probe(self, out, model, train, hp):
        with self.guard(out, "objective.rating_grad_ms"):
            self.probe(out, "objective.rating_grad_ms", lambda: public("grad")(
                model, train, None, hp.replace(social="none")), repeats=5)

    def objective_probes(self, out, model, data, hp):
        """Rating gradient, full materialized social gradient and objective."""
        self.rating_grad_probe(out, model, data.train, hp)
        with self.guard(out, "objective.social_grad_ms"):
            if isinstance(out["objective.rating_grad_ms"], dict):
                raise Missing("needs objective.rating_grad_ms")
            self.probe(out, "objective.social_grad_ms", lambda: public("grad")(
                model, data.train, data.store, hp), repeats=3)
            # full gradient minus its rating part: the materialized social gradient
            out["objective.social_grad_ms"] -= out["objective.rating_grad_ms"]
        with self.guard(out, "objective.objective_ms"):
            self.probe(out, "objective.objective_ms", lambda: public("objective_value")(
                model, data.train, data.store, hp), repeats=3)

    def fit_probes(self, out, data, hp, iters=3):
        """Per-iteration and per-evaluation cost of `iters` GD iterations;
        returns the fitted model."""
        with self.guard(out, "optimize.iter_ms", "optimize.eval_ms"):
            short = hp.replace(epochs=iters)
            # fit spans with an evaluation after every iteration (as the CLI
            # runs it) and with one at the end
            self.probe(out, "optimize.iter_ms", lambda: public("fit_gd")(
                data.train, data.store, short, seed=self.seed, eval_every=1))
            model, _ = self.probe(out, "optimize.eval_ms", lambda: public("fit_gd")(
                data.train, data.store, short, seed=self.seed, eval_every=iters))
            every, once = out["optimize.iter_ms"], out["optimize.eval_ms"]
            out["optimize.iter_ms"] = every / iters
            out["optimize.eval_ms"] = (every - once) / (iters - 1)
            return model

    def sampling_probes(self, out, model, store, hp, batch):
        """One sampled batch of triplets from a lazy store, and its social
        gradient."""
        rng = np.random.default_rng(self.seed)
        with self.guard(out, "data.sample_triplets_ms", "objective.batch_grad_ms"):
            triplets = self.probe(out, "data.sample_triplets_ms", lambda: public(
                "sample_triplets")(store, rng, batch), repeats=5)
            graph = store.graph
            batch_store = public("TripletStore")(
                "materialized", graph, np.bincount(triplets[:, 0], minlength=graph.n),
                len(triplets), triplets)
            no_ratings = public("SparseRatings")(graph.n, model.m, [], [], [])
            # with no ratings, grad is the batch's social gradient
            self.probe(out, "objective.batch_grad_ms", lambda: public("grad")(
                model, no_ratings, batch_store, hp), repeats=5)

    def synth_probe(self, out, spec):
        with self.guard(out, "experiments.synth_generate_s"):
            self.probe(out, "experiments.synth_generate_s", lambda: public("synth_generate")(
                public("SyntheticSpec")(
                    n=spec.n, m=spec.m, rank=spec.clusters, clusters=spec.clusters,
                    density=spec.density, noise_sigma=spec.noise, n_trust=spec.trust_edges,
                    n_distrust=spec.distrust_edges, seed=self.seed)))

    def neighborhood_probes(self, out, data):
        graph = data.bundle.graph
        names = ("neighborhood.similarity_cache_s", "neighborhood.propagate_ms",
                 "neighborhood.predict_us", "neighborhood.co_rated_pairs",
                 "neighborhood.weight_yield")
        with self.guard(out, *names):
            sims = self.probe(out, "neighborhood.similarity_cache_s",
                              lambda: public("build_similarity_cache")(data.train))
            sets = self.probe(out, "neighborhood.propagate_ms", lambda: public(
                "build_propagated_sets")(graph, NB_DEPTH, NB_DEPTH), repeats=3)
            out["neighborhood.co_rated_pairs"] = len(sims.co_counts)
            out["neighborhood.weight_yield"] = len(sims.weights) / max(len(sims.co_counts), 1)
            # The CLI passes nb_predict a rating table it built once; given the
            # bare ratings, nb_predict rebuilds its dict tables on every call
            # (see NOTES.md). The table type is not exported, so it is looked up.
            table_type = getattr(getattr(trustfactor, "neighborhood", None), "RatingTable", None)
            if table_type is None:
                raise Missing("trustfactor.neighborhood.RatingTable, the table the CLI "
                              "passes to nb_predict, is gone")
            table = table_type(data.train)
            pairs = list(zip(data.test.users.tolist(), data.test.items.tolist()))
            nb_predict = public("nb_predict")
            nb_predict(table, sims, sets, *pairs[0], "nb-td-f")  # fills the table once
            self.probe(out, "neighborhood.predict_us", lambda: [
                nb_predict(table, sims, sets, u, i, "nb-td-f") for u, i in pairs])
            out["neighborhood.predict_us"] /= len(pairs)

    def consistency_probe(self, out, data):
        with self.guard(out, "experiments.consistency_eval_s"):
            self.probe(out, "experiments.consistency_eval_s", lambda: public("consistency_eval")(
                data.bundle.ratings, data.bundle.graph, "trust"))

    @staticmethod
    def computed_mb(out, k, nnz, triplets_per_iter):
        """Bytes the rating and social gradients gather and scatter per
        iteration, computed from array sizes (not measured): per rating two
        k-row gathers and two k-row scatter sources plus the residual, per
        triplet three gathers and three scatter sources plus three indices."""
        floats = nnz * (4 * k + 1) + triplets_per_iter * (6 * k + 3)
        out["objective.computed_mb_per_iter"] = floats * 8 / 1e6

    def instance_probes(self, out):
        """Measure every per-layer metric the workload's own probes left out
        on the probe instance: small planted inputs from the same seed, the
        same for every workload. Returns the names measured there."""
        todo = [name for name in PER_LAYER if name not in out]
        if not todo:
            return []
        work = self.work / "probe"
        work.mkdir(exist_ok=True)
        write_inputs(PROBE_SPEC, self.seed, work)
        aux = {}
        with self.guard(aux, *todo):
            bundle = self.probe(aux, "fileio.load_dataset_s", lambda: public("load_dataset")(
                work / "ratings.tsv", social_path=work / "social.tsv"))
            train, test = self.probe(aux, "experiments.split_ratings_ms", lambda: public(
                "split_ratings")(bundle.ratings, public("SplitSpec")(SPLIT_FRACTION, self.seed, 1)))
            lazy = self.probe(aux, "data.lazy_triplets_ms",
                              lambda: public("lazy_triplets")(bundle.graph), repeats=5)
            store = self.probe(aux, "data.extract_triplets_ms",
                               lambda: public("extract_triplets")(bundle.graph), repeats=5)
            data = Data(bundle, train, test, store)
            self.synth_probe(aux, PROBE_SPEC)
            hp = trustfactor.Hyperparams(
                k=PROBE_K, lambda_u=0.1, lambda_v=0.1, lambda_s=1.0, alpha=1.0, beta=1.0,
                eta0=0.012, schedule="inverse-sqrt", epochs=PROBE_EPOCHS, batch_size=32,
                social="triplet-margin")
            model = self.fit_probes(aux, data, hp, PROBE_EPOCHS)
            if model is None:
                model = public("init_model")(train.n, train.m, PROBE_K, self.seed)
            self.objective_probes(aux, model, data, hp)
            self.sampling_probes(aux, model, lazy, hp, PROBE_BATCH)
            self.model_probes(aux, model, test, work / "model.bin")
            if any(name.startswith("neighborhood.") for name in todo):
                self.neighborhood_probes(aux, data)
            if "experiments.consistency_eval_s" in todo:
                self.consistency_probe(aux, data)
            aux["data.ratings"] = bundle.ratings.nnz
            aux["data.edges"] = bundle.graph.trust_count + bundle.graph.distrust_count
            aux["data.triplets"] = store.total
            aux["metrics.pairs"] = test.nnz
            aux["optimize.iterations"] = PROBE_EPOCHS
            self.computed_mb(aux, PROBE_K, train.nnz, store.total)
        for name in todo:
            out[name] = aux.get(name, {"missing": "not measured on the probe instance"})
        return todo


class GdMargin(Workload):
    """README walkthrough at ROADMAP "M" size: synth, fit (GD, margin), eval."""

    name = "gd-margin"
    spec = InputSpec(n=3000, m=2000, density=0.03, noise=0.3,
                     trust_edges=30_000, distrust_edges=30_000)
    store_function = "extract_triplets"
    once = ("synth_s",)
    phases = ("fit_s", "eval_s")
    setup_repeats = 2  # two passes of three would overrun --seconds by far
    # From the 0.01-scale initial factors, test RMSE leaves its plateau after
    # about 10 iterations; the decaying step then settles it without the
    # period-2 oscillation a constant step of this size shows.
    epochs = 16
    k = 10
    eta = 0.012

    @property
    def hp(self):
        # the CLI's defaults for everything not on the command line
        return trustfactor.Hyperparams(
            k=self.k, lambda_u=0.1, lambda_v=0.1, lambda_s=1.0, alpha=1.0, beta=1.0,
            eta0=self.eta, schedule="inverse-sqrt", epochs=self.epochs, batch_size=32,
            social="triplet-margin")

    def synth(self):
        s = self.spec
        self.cli(["synth", "--out", self.work / "synth", "--seed", self.seed,
                  "--n", s.n, "--m", s.m, "--rank", s.clusters, "--clusters", s.clusters,
                  "--density", s.density, "--noise", s.noise,
                  "--trust-edges", s.trust_edges, "--distrust-edges", s.distrust_edges])

    def fit(self, data):
        self.cli(["fit", *self.data_flags(), "--method", "mf-td", "--optimizer", "gd",
                  "--k", self.k, "--eta", self.eta, "--schedule", "inverse-sqrt",
                  "--epochs", self.epochs, "--out", self.work / "fit"])

    def eval(self, data):
        self.cli(["eval", "--ratings", self.ratings_path,
                  "--model", self.work / "fit" / "model.bin", "--out", self.work / "eval"])

    def check_once(self):
        check_synth(self.tally, self.work / "synth", self.spec.trust_edges,
                    self.spec.distrust_edges)

    def check_pass(self, data):
        t = self.tally
        rmse = check_fit_metrics(t, self.work / "fit" / "metrics.csv", "mf-td", R_RANGE)
        self.test_rmse.append(rmse)
        model = t.operation(lambda: trustfactor.load_model(self.work / "fit" / "model.bin"),
                            "load fitted model")
        if model is not None:
            check_model(t, model, "gd-margin model")
            init = trustfactor.init_model(model.n, model.m, self.k, self.seed)
            objective = trustfactor.objective_value
            before = objective(init, data.train, data.store, self.hp)
            after = objective(model, data.train, data.store, self.hp)
            t.check(after < before, f"objective {after} not below initial {before}")
            init_rmse = trustfactor.evaluate_model(init, data.test)[1]
            t.check(rmse < init_rmse, f"test rmse {rmse} not below initial model's {init_rmse}")
        check_eval(t, self.work / "eval" / "eval.csv", data.bundle.ratings.nnz)

    def probes(self, out):
        data, hp = self.data, self.hp
        self.setup_metrics(out)
        self.synth_probe(out, self.spec)
        model = trustfactor.load_model(self.work / "fit" / "model.bin")
        self.objective_probes(out, model, data, hp)
        self.fit_probes(out, data, hp)
        self.model_probes(out, model, data.test, self.work / "probe_model.bin")
        out["optimize.iterations"] = self.epochs
        self.computed_mb(out, self.k, data.train.nnz, data.store.total)


class SgdLazyHubs(Workload):
    """Library-only SGD over a lazy store on a hub-heavy signed graph."""

    name = "sgd-lazy-hubs"
    spec = InputSpec(n=20_000, m=4_000, density=60_000 / (20_000 * 4_000), noise=0.3,
                     zipf_a=1.8, degree_cap=800)
    store_function = "lazy_triplets"
    phases = ("fit_s",)
    epochs = 30
    k = 10
    batch = 4096

    @property
    def hp(self):
        return trustfactor.Hyperparams(
            k=self.k, lambda_u=0.1, lambda_v=0.1, lambda_s=1.0, eta0=0.04,
            batch_size=self.batch, epochs=self.epochs, social="triplet-margin")

    def fit(self, data):
        def run():
            model, report = self.call("optimize.fit_sgd", lambda: trustfactor.fit_sgd(
                data.train, data.store, self.hp, seed=self.seed, eval_every=self.epochs))
            rmse = self.call("experiments.evaluate_model",
                             lambda: trustfactor.evaluate_model(model, data.test))[1]
            return model, report, rmse
        self.result = self.tally.operation(run, "fit_sgd")

    def check_pass(self, data):
        t = self.tally
        if self.result is None:
            return
        model, report, rmse = self.result
        check_model(t, model, "sgd model")
        t.check(report.stop_reason == "max-iters" and len(report.records) == 1,
                f"sgd stopped by {report.stop_reason} with {len(report.records)} records")
        if report.records:
            final = report.records[-1].objective
            t.check(final < report.initial_objective,
                    f"objective {final} not below initial {report.initial_objective}")
        t.check(0.0 <= rmse <= R_RANGE, f"sgd test rmse {rmse}")
        self.test_rmse.append(rmse)

    def probes(self, out):
        data, hp = self.data, self.hp
        self.setup_metrics(out)
        model, report, _ = self.result
        self.rating_grad_probe(out, model, data.train, hp)
        self.sampling_probes(out, model, data.store, hp, self.batch)
        with self.guard(out, "objective.objective_ms"):
            self.probe(out, "objective.objective_ms", lambda: public("objective_value")(
                model, data.train, data.store, hp))
        fits = self.tracer.durations("optimize.fit_sgd")
        iterations = report.records[-1].iteration if report.records else 0
        if fits and iterations:
            out["optimize.iter_ms"] = fits[-1] / iterations * 1e3
        self.model_probes(out, model, data.test, self.work / "probe_model.bin")
        out["optimize.iterations"] = iterations
        self.computed_mb(out, self.k, data.train.nnz, self.batch)


class NbProtocols(Workload):
    """The four neighborhood predictors and the consistency protocol."""

    name = "nb-protocols"
    spec = InputSpec(n=1500, m=1000, density=0.03, noise=0.3,
                     trust_edges=8_000, distrust_edges=8_000)
    once = ("consistency_s",)
    methods = ("nb", "nb-t", "nb-td-f", "nb-td-d")
    phases = tuple(map("fit_{}_s".format, methods))  # one fit command each

    def run_phase(self, phase, *args):
        if phase in self.phases:
            return self.fit(phase[len("fit_"):-len("_s")])
        return super().run_phase(phase, *args)

    def fit(self, method):
        self.cli(["fit", *self.data_flags(), "--method", method,
                  "--p", NB_DEPTH, "--q", NB_DEPTH, "--out", self.work / method])

    def consistency(self):
        self.cli(["consistency", *self.data_flags(), "--relation", "trust",
                  "--out", self.work / "consistency"])

    def check_once(self):
        check_consistency(self.tally, self.work / "consistency" / "consistency.csv")

    def check_pass(self, data):
        for method in self.methods:
            rmse = check_fit_metrics(self.tally, self.work / method / "metrics.csv",
                                     method, R_RANGE)
            if method == "nb-td-f":
                self.test_rmse.append(rmse)

    def probes(self, out):
        self.setup_metrics(out)
        self.neighborhood_probes(out, self.data)
        self.consistency_probe(out, self.data)


WORKLOADS = {w.name: w for w in (GdMargin, SgdLazyHubs, NbProtocols)}


def per_layer_report(measured, on_probe_instance=()):
    """Every per-layer metric, in PER_LAYER order, as the result line wants it
    (value and unit only), and a note per metric for the printed table."""
    report, notes = {}, {}
    for name, (unit, moves) in PER_LAYER.items():
        value = measured.get(name)
        if isinstance(value, dict) or value is None:
            reason = value["missing"] if value else "not measured"
            report[name] = {"value": MISSING, "unit": unit}
            notes[name] = f"missing: {reason}"
        else:
            report[name] = {"value": float(value), "unit": unit}
            notes[name] = "on the probe instance" if name in on_probe_instance else f"moves {moves}"
    return report, notes
