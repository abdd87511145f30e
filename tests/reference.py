"""A plain end-to-end reference run of every strategy.

`reference_files(cfg)` runs an `ExperimentConfig` with one short round loop
and returns the bytes of the three deterministic files `run_experiment`
writes.  Set-up calls the library's data functions, as a run does; every
round is stated with the plain pieces of `helpers`: per-client SGD, one
model at a time, per-blend scoring through the counting metrics, a plain
rank-mass loop and a sequential weighted average (fedval, fedavg), the
plain q-FFL round (qfedsgd, qfedavg) and AFL step (afl), and the report
references.  It is the spec a faster round is checked against, byte for
byte, and a config that fails here fails with the run's error and message.
"""

import json
from types import SimpleNamespace

import numpy as np

from fedval.data import generate_synthetic, load_csv, partition, split_validation
from fedval.errors import DegenerateWeightsError, MissingGroupError, MissingPositivesError
from fedval.harness import SyntheticSpec
from fedval.model import ModelParams, TrainConfig
from fedval.seeding import derive_seed
from helpers import (
    library_bytes,
    reference_accuracy,
    reference_afl_step,
    reference_eod,
    reference_gradient,
    reference_loss,
    reference_q_round,
    reference_round,
    reference_spd,
    reference_train_clients,
)


def reference_set_up(cfg):
    """`(clients, validation)` of `cfg` from the library's data functions and the run's derived seeds."""
    if isinstance(cfg.data, SyntheticSpec):
        seed = cfg.data.seed if cfg.data.seed is not None else derive_seed(cfg.seed, "data")
        dataset = generate_synthetic(cfg.data.n, cfg.data.dim, cfg.data.positive_rates, seed)
    else:
        dataset = load_csv(cfg.data.path, cfg.data.schema)
    train, validation = split_validation(dataset, cfg.validation_fraction, derive_seed(cfg.seed, "split"))
    return partition(train, cfg.clients, derive_seed(cfg.seed, "partition")), validation


# each objective's higher-is-better score of a model on the validation split
_SCORES = {
    "accuracy": reference_accuracy,
    "spd": lambda params, validation: 1.0 - reference_spd(params, validation),
    "eod": lambda params, validation: 1.0 - reference_eod(params, validation),
}


def _scores(global_params, model, validation, objectives, alpha, client_id):
    """The per-objective scores and the composite of `model` blended into `global_params`.

    An objective the validation split cannot score fails for every client
    alike, so the round reports it at its first client, as `client_id`.
    """
    blend = ModelParams(
        alpha * model.weights + (1.0 - alpha) * global_params.weights,
        alpha * model.bias + (1.0 - alpha) * global_params.bias,
    )
    scores, composite = {}, 0.0
    for kind, weight in objectives.entries:
        try:
            scores[kind] = _SCORES[kind](blend, validation)
        except (MissingGroupError, MissingPositivesError) as exc:
            raise type(exc)(f"objective {kind!r} failed for client {client_id}: {exc}") from None
        composite += weight * scores[kind]
    return scores, composite


def _flat(params):
    return np.concatenate([params.weights, [params.bias]])


def reference_round_info(cfg, global_params, clients, validation, state, round_cfg):
    """One round of `cfg.strategy`: the new global model and what the round did, as a `RoundInfo` holds it.

    `state` maps each client id to its rank mass (fedval) or its AFL mixture
    weight (afl); the round updates it in place.
    """
    ids = [c.client_id for c in clients]
    info = SimpleNamespace(scores=None, rank=None)
    if cfg.strategy == "afl":
        grads = {c.client_id: reference_gradient(global_params, c.data) for c in clients}
        info.losses = {c.client_id: reference_loss(global_params, c.data) for c in clients}
        mixture = SimpleNamespace(client_ids=ids, p=[state[cid] for cid in ids])
        new_global, next_mixture, used = reference_afl_step(
            global_params, mixture, cfg.afl_lambda_lr, round_cfg.lr, grads, info.losses
        )
        state.update(zip(ids, next_mixture.tolist()))
        info.weights = SimpleNamespace(client_ids=ids, p=used.tolist())
        return new_global, info
    if cfg.strategy in ("qfedsgd", "qfedavg"):
        if cfg.strategy == "qfedsgd":  # the gradient at the incoming model
            grads = {c.client_id: reference_gradient(global_params, c.data) for c in clients}
            directions = {cid: np.concatenate([gw, [gb]]) for cid, (gw, gb) in grads.items()}
        else:  # L times the step local SGD took
            models = reference_train_clients(global_params, clients, round_cfg)
            flat = _flat(global_params)
            directions = {
                c.client_id: cfg.qfed.lipschitz * (flat - _flat(m)) for c, m in zip(clients, models)
            }
        new_global, p, info.losses = reference_q_round(global_params, clients, directions, cfg.qfed)
        info.weights = SimpleNamespace(client_ids=ids, p=[p[cid] for cid in ids])
        return new_global, info

    models = reference_train_clients(global_params, clients, round_cfg)
    info.losses = {c.client_id: reference_loss(m, c.data) for c, m in zip(clients, models)}
    if cfg.strategy == "fedavg":
        mass = [c.n for c in clients]
    else:
        scored = [
            _scores(global_params, m, validation, cfg.objectives, cfg.temp_alpha, ids[0]) for m in models
        ]
        info.scores = SimpleNamespace(
            client_ids=ids, per_objective=[s for s, _ in scored], composite=[c for _, c in scored]
        )
        mass = [c for _, c in scored]
        if cfg.ranking.enabled:
            # worst composite first, ties toward the lower id; position i earns initial_step * step_size**i
            for position, i in enumerate(sorted(range(len(ids)), key=lambda i: (mass[i], ids[i]))):
                state[ids[i]] += cfg.ranking.initial_step * cfg.ranking.step_size**position
            info.rank = SimpleNamespace(rs=dict(state))
            mass = [state[cid] for cid in ids]
    total = sum(mass)
    if total <= 0:
        raise DegenerateWeightsError("total score mass is zero; no client can be weighted")
    info.weights = SimpleNamespace(client_ids=ids, p=[v / total for v in mass])
    weights, bias = np.zeros(validation.dim), 0.0
    for p, model in zip(info.weights.p, models):  # in ascending client id
        weights = weights + p * model.weights
        bias += p * model.bias
    return ModelParams(weights, bias), info


def reference_files(cfg) -> dict:
    """The rounds.jsonl, rounds.csv and final_model.json bytes of a run of `cfg`."""
    clients, validation = reference_set_up(cfg)
    clients = sorted(clients, key=lambda c: c.client_id)
    global_params = ModelParams.zeros(validation.dim)
    # rank mass starts at zero, AFL's mixture uniform
    state = {c.client_id: 1.0 / len(clients) if cfg.strategy == "afl" else 0.0 for c in clients}
    reports = []
    for t in range(1, cfg.rounds + 1):
        train = cfg.train
        round_cfg = TrainConfig(train.epochs, train.batch_size, train.lr, derive_seed(cfg.seed, "round", t))
        global_params, info = reference_round_info(cfg, global_params, clients, validation, state, round_cfg)
        global_metrics = tuple(
            metric(global_params, validation) for metric in (reference_accuracy, reference_spd, reference_eod)
        )
        reports.append(reference_round(t, global_metrics, clients, info))
    jsonl, csv_bytes = library_bytes(reports)
    final = {"weights": global_params.weights.tolist(), "bias": global_params.bias}
    return {
        "rounds.jsonl": jsonl,
        "rounds.csv": csv_bytes,
        "final_model.json": (json.dumps(final, indent=2) + "\n").encode("utf-8"),
    }
