"""Dataset, corpus and fitted-model persistence.

Datasets round-trip through ``.npz`` (matrices) plus embedded JSON
metadata; corpora round-trip through JSON-lines, one question per
line.  Both formats are self-describing and diff-friendly enough for
experiment artefacts.

Fitted models round-trip through the immutable
:class:`~repro.api.ClusterModel` artifact: an ``.npz`` holds the
arrays (centroids, labels, index band keys + cluster references) and
a ``.json`` sidecar holds the spec triple
(:class:`~repro.api.LSHSpec` / :class:`~repro.api.EngineSpec` /
:class:`~repro.api.TrainSpec`, via their ``to_dict`` round-trip),
estimator-own parameters and fitted scalars — human-readable
provenance.  The clustered LSH index is *not* serialised bucket by
bucket: band keys fully determine the buckets *and* the flat CSR
neighbour storage, so a loaded model predicts exactly like the
original — same shortlists, same CSR fast paths — whichever backend
fitted it, and can be saved on one machine and reloaded on another.
Streamed inserts are persisted too: the band-key/assignment views
cover every inserted item, and the archive stores compact copies,
never the index's over-allocated growth buffers.

:func:`save_model` accepts a fitted estimator *or* a
:class:`~repro.api.ClusterModel`; :func:`load_cluster_model` returns
the artifact (all serving needs), while :func:`load_model` goes one
step further and reconstructs a fitted estimator from it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.yahoo import QuestionCorpus
from repro.exceptions import DataValidationError

__all__ = [
    "save_dataset",
    "load_dataset",
    "save_corpus",
    "load_corpus",
    "save_model",
    "load_model",
    "load_cluster_model",
    "load_serve_spec",
]


def save_dataset(dataset: CategoricalDataset, path: str | Path) -> Path:
    """Write a dataset to ``<path>`` as compressed npz.

    Metadata is JSON-encoded into the archive, so one file carries the
    full provenance.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        X=dataset.X,
        labels=dataset.labels,
        name=np.str_(dataset.name),
        metadata=np.str_(json.dumps(dataset.metadata, default=str)),
    )
    return path


def load_dataset(path: str | Path) -> CategoricalDataset:
    """Read a dataset written by :func:`save_dataset`."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"no such dataset file: {path}")
    with np.load(path, allow_pickle=False) as archive:
        required = {"X", "labels", "name", "metadata"}
        missing = required - set(archive.files)
        if missing:
            raise DataValidationError(
                f"{path} is not a repro dataset (missing {sorted(missing)})"
            )
        return CategoricalDataset(
            X=archive["X"],
            labels=archive["labels"],
            name=str(archive["name"]),
            metadata=json.loads(str(archive["metadata"])),
        )


def save_corpus(corpus: QuestionCorpus, path: str | Path) -> Path:
    """Write a question corpus as JSON-lines.

    The first line is a header object (topic names + metadata); each
    following line is one question record.
    """
    path = Path(path)
    if path.suffix != ".jsonl":
        path = path.with_suffix(".jsonl")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "kind": "repro.QuestionCorpus",
            "topic_names": corpus.topic_names,
            "metadata": corpus.metadata,
        }
        handle.write(json.dumps(header) + "\n")
        for tokens, topic, true_topic in zip(
            corpus.questions, corpus.topics, corpus.true_topics
        ):
            record = {
                "tokens": list(tokens),
                "topic": int(topic),
                "true_topic": int(true_topic),
            }
            handle.write(json.dumps(record) + "\n")
    return path


def load_corpus(path: str | Path) -> QuestionCorpus:
    """Read a corpus written by :func:`save_corpus`."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"no such corpus file: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise DataValidationError(f"{path} is empty")
        header = json.loads(header_line)
        if header.get("kind") != "repro.QuestionCorpus":
            raise DataValidationError(f"{path} is not a repro corpus file")
        questions: list[list[str]] = []
        topics: list[int] = []
        true_topics: list[int] = []
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            questions.append(record["tokens"])
            topics.append(record["topic"])
            true_topics.append(record["true_topic"])
    return QuestionCorpus(
        questions=questions,
        topics=np.array(topics, dtype=np.int64),
        true_topics=np.array(true_topics, dtype=np.int64),
        topic_names=header["topic_names"],
        metadata=header.get("metadata", {}),
    )


# ----------------------------------------------------------------------
# fitted-model persistence
# ----------------------------------------------------------------------

#: Format tag written into every model sidecar.
_MODEL_KIND = "repro.Model"
#: Version 2: spec-driven sidecars carrying the ClusterModel artifact
#: (version 1 was the pre-spec flat-params layout).
_MODEL_FORMAT_VERSION = 2


def _json_safe(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


def save_model(model, path: str | Path, serve=None) -> Path:
    """Write a fitted model as ``<path>.npz`` + ``<path>.json``.

    ``model`` may be a fitted estimator (anything exposing
    ``fitted_model()`` — every registered estimator does) or an
    already exported :class:`~repro.api.ClusterModel`.  The npz holds
    the arrays (centroids, training labels, index band keys + cluster
    references); the json sidecar holds the specs, estimator-own
    parameters and fitted scalars, human-readable for provenance.

    ``serve`` optionally persists a :class:`~repro.api.ServeSpec` (or
    its ``to_dict`` form) into the sidecar's spec block; ``repro
    serve`` and :meth:`repro.serve.ModelServer.from_path` pick it up
    as the model's deployment default (see :func:`load_serve_spec`).

    Returns the npz path; the sidecar sits next to it.
    """
    from repro.api.model import ClusterModel
    from repro.api.specs import ServeSpec

    if isinstance(model, ClusterModel):
        artifact = model
    else:
        export = getattr(model, "fitted_model", None)
        if export is None:
            raise DataValidationError(
                f"cannot persist {type(model).__name__}; pass a ClusterModel "
                "or an estimator exposing fitted_model() (any registered "
                "repro estimator)"
            )
        artifact = export()  # raises NotFittedError on unfitted estimators

    if serve is not None and not isinstance(serve, ServeSpec):
        serve = ServeSpec.from_dict(serve)  # validates eagerly

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    arrays = {"centroids": artifact.centroids}
    if artifact.labels is not None:
        arrays["labels"] = artifact.labels
    if artifact.band_keys is not None:
        arrays["index_band_keys"] = artifact.band_keys
        arrays["index_assignments"] = artifact.assignments
    np.savez_compressed(path, **arrays)

    specs = artifact.specs_dict()
    if serve is not None:
        specs["serve"] = serve.to_dict()
    sidecar = {
        "kind": _MODEL_KIND,
        "format_version": _MODEL_FORMAT_VERSION,
        "algorithm": artifact.algorithm,
        "class": artifact.metadata.get("class", artifact.algorithm),
        "n_clusters": int(artifact.n_clusters),
        "specs": specs,
        "params": {k: _json_safe(v) for k, v in artifact.params.items()},
        "state": {k: _json_safe(v) for k, v in artifact.state.items()},
        "metadata": {k: _json_safe(v) for k, v in artifact.metadata.items()},
    }
    path.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_cluster_model(path: str | Path):
    """Read a :class:`~repro.api.ClusterModel` written by :func:`save_model`.

    The artifact is everything serving needs: ``predict`` works
    directly on it (bit-identically to the saved model) without ever
    constructing the training estimator.
    """
    from repro.api.model import ClusterModel
    from repro.api.specs import EngineSpec, LSHSpec, TrainSpec

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    sidecar_path = path.with_suffix(".json")
    if not path.exists() or not sidecar_path.exists():
        raise DataValidationError(
            f"no such model: expected both {path} and {sidecar_path}"
        )
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    if sidecar.get("kind") != _MODEL_KIND:
        raise DataValidationError(f"{sidecar_path} is not a repro model sidecar")
    version = sidecar.get("format_version", 0)
    if version != _MODEL_FORMAT_VERSION:
        raise DataValidationError(
            f"{sidecar_path} has format_version {version}; this build reads "
            f"exactly {_MODEL_FORMAT_VERSION} (version 1 predates the spec "
            "API — re-save the model with this build)"
        )
    specs = sidecar.get("specs", {})
    if "engine" not in specs or "train" not in specs:
        raise DataValidationError(
            f"{sidecar_path} is missing the engine/train specs"
        )

    # Sidecars written while EngineSpec had an index shard count carry
    # an "n_shards" entry (usually null).  The value never changed a
    # label, so it is dropped here rather than rejected; spec files and
    # engine dicts still fail loudly on it.
    engine = specs["engine"]
    if isinstance(engine, dict):
        engine = {k: v for k, v in engine.items() if k != "n_shards"}

    with np.load(path, allow_pickle=False) as archive:
        if "centroids" not in archive.files:
            raise DataValidationError(
                f"{path} is not a repro model archive (missing ['centroids'])"
            )
        centroids = archive["centroids"]
        labels = archive["labels"] if "labels" in archive.files else None
        band_keys = (
            archive["index_band_keys"]
            if "index_band_keys" in archive.files
            else None
        )
        index_assignments = (
            archive["index_assignments"]
            if "index_assignments" in archive.files
            else None
        )

    return ClusterModel(
        algorithm=sidecar.get("algorithm", ""),
        n_clusters=sidecar.get("n_clusters", 0),
        centroids=centroids,
        lsh=None if specs.get("lsh") is None else LSHSpec.from_dict(specs["lsh"]),
        engine=EngineSpec.from_dict(engine),
        train=TrainSpec.from_dict(specs["train"]),
        labels=labels,
        band_keys=band_keys,
        assignments=index_assignments,
        params=sidecar.get("params", {}),
        state=sidecar.get("state", {}),
        metadata=sidecar.get("metadata", {}),
    )


def load_serve_spec(path: str | Path):
    """The :class:`~repro.api.ServeSpec` saved next to a model, if any.

    Returns ``None`` for models saved without one (``save_model``'s
    ``serve=`` argument); the serving layer then falls back to the
    default spec.
    """
    from repro.api.specs import ServeSpec

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise DataValidationError(f"no such model sidecar: {sidecar_path}")
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    if sidecar.get("kind") != _MODEL_KIND:
        raise DataValidationError(f"{sidecar_path} is not a repro model sidecar")
    serve = sidecar.get("specs", {}).get("serve")
    return None if serve is None else ServeSpec.from_dict(serve)


def load_model(path: str | Path):
    """Reconstruct a fitted estimator written by :func:`save_model`.

    Reads the :class:`~repro.api.ClusterModel` artifact and builds the
    estimator from its specs; fitted arrays are restored and — for
    LSH-accelerated models — the clustered index is rebuilt from its
    band keys, so ``predict`` behaves exactly as on the instance that
    was saved.  ``stats_`` is not persisted (it describes the original
    fitting run, not the model).  Prefer :func:`load_cluster_model`
    when serving is all that is needed.
    """
    return load_cluster_model(path).to_estimator()
