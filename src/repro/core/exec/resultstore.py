"""Content-addressed result store: warm-start re-runs of the study.

The measurement pipeline is re-run constantly — per dataset, per
ablation, per platform — and every run used to recompute all ~5,000 apps
from scratch even when nothing about an app or its configuration had
changed.  The :class:`ResultStore` fixes that: an on-disk store of
per-app pipeline results, each filed under a deterministic
**fingerprint** of everything the result is a function of.  A repeated
run looks every work unit up before dispatching it and only recomputes
fingerprint misses, while the merged study stays bit-for-bit identical
to a cold run at any worker count.

Fingerprint composition
-----------------------

A result is valid for reuse exactly when all of its inputs are
unchanged, so the fingerprint is a SHA-256 over:

* the **store schema version** and the **code fingerprint**
  (:func:`code_fingerprint`) — a digest of the package sources a result
  can depend on, so an entry written by different code never hits;
* the **corpus fingerprint** — seed plus per-dataset sizes.  Per-app
  results are *not* reusable across corpus configurations: the CT log,
  endpoint registry and root stores are built from the whole corpus, so
  a ``--scale`` bump invalidates everything by design;
* the **capture window** (``sleep_s``) every dynamic result depends on;
* the **pipeline stage** (``static`` / ``dynamic`` / ``circumvent``),
  the app's platform, dataset, and **app id**;
* the **per-app stage config** — the pre-launch wait for dynamic runs
  (the Common-iOS re-run stores separately from the initial pass), the
  sorted pinned-destination set for circumvention sweeps.

Chunking, worker count, retries and telemetry are deliberately absent:
they cannot influence a result (the engine's determinism contract), so
a warm run hits regardless of how the cold run was scheduled.

Store layout
------------

::

    store/
      store.json             # informational manifest (magic, version)
      objects/<ff>/<fingerprint>.pkl

Each entry is a self-describing pickled envelope
``(magic, version, fingerprint, meta, payload_sha256, payload)`` where
``payload`` is the pickled result and ``meta`` carries plain-data
context (stage, platform, dataset, app id, config, and a small summary
— pinned verdict and destinations — that lets ``tools/diff_runs.py``
diff two stores without importing this package).

Corruption contract
-------------------

A truncated or tampered entry must fall back to recompute with a
``RuntimeWarning`` — never a wrong result.  Every read re-hashes the
payload against the stored digest and cross-checks the envelope
fingerprint against the file name; any mismatch (or any error damaged
bytes can produce, :data:`_CORRUPTION_ERRORS`) invalidates the entry: it
is counted, warned about, deleted, and treated as a miss so the engine
recomputes and republishes it.  A programming error during unpickling —
e.g. an ``AttributeError`` from a renamed result class — propagates
instead: it is not corruption, and silently recomputing would hide the
bug behind a warm-looking run.  Writes go through a temp file (named per
process and thread) and ``os.replace``, so a killed run never leaves a
half-written entry under a valid name.

Resume
------

Every completed unit is published as it finishes, so the store is also
the crash-recovery mechanism: re-running a killed or partially failed
study against the same store recomputes only the apps it never
published.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.core import obs

_MAGIC = "repro-result-store"
_ENTRY_MAGIC = "repro-result-entry"
_VERSION = 1

#: Package sources outside :func:`code_fingerprint`: the CLI front end,
#: stdout rendering and the service daemon cannot change a stored result.
_UNFINGERPRINTED = ("cli.py", "reporting/", "service/")

_CODE_FINGERPRINT: Optional[str] = None


def source_fingerprint(root: Path) -> str:
    """SHA-256 over the sorted relative path and bytes of every ``*.py``
    under the package directory ``root``, minus :data:`_UNFINGERPRINTED`."""
    sources = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for relative, path in sources:
        if relative.startswith(_UNFINGERPRINTED):
            continue
        blob = path.read_bytes()
        digest.update(f"{relative}\0{len(blob)}\0".encode("utf-8"))
        digest.update(blob)
    return digest.hexdigest()


def code_fingerprint() -> str:
    """The fingerprint of this ``repro`` package's sources.

    Enters every store key: an edit to any module a result can depend on
    re-keys every entry, so a store never serves what the current code
    would not compute.  Computed once per process, on first use —
    store-less runs never pay for it.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        _CODE_FINGERPRINT = source_fingerprint(
            Path(__file__).resolve().parents[2]
        )
    return _CODE_FINGERPRINT


#: What unpickling/validating a *damaged* entry can raise.  Truncated or
#: bit-rotted pickle streams surface as :class:`pickle.UnpicklingError`,
#: ``EOFError`` or one of the container errors below; the explicit
#: envelope checks raise ``ValueError``.  Deliberately absent:
#: ``AttributeError`` / ``ImportError`` — a payload referencing a renamed
#: class or moved module is a code bug, not corruption, and must
#: propagate instead of being silently invalidated and recomputed.
_CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    ValueError,
    EOFError,
    TypeError,
    KeyError,
    IndexError,
)


def corpus_fingerprint(corpus) -> str:
    """Fingerprint of the corpus configuration a result depends on.

    Seed plus per-dataset sizes: the two inputs that decide everything
    the generator builds (PKI, stores, endpoints, apps).  Two corpora
    with the same fingerprint are identical object graphs.
    """
    shape = tuple(
        (key, len(apps)) for key, apps in sorted(corpus.datasets.items())
    )
    identity = repr((int(corpus.seed), shape))
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def normalize_extra(stage: str, extra) -> object:
    """Canonical per-app stage config, as it enters the fingerprint.

    Dynamic runs carry a scalar pre-launch wait; circumvention sweeps a
    pinned-destination set (order must not matter); static scans nothing.
    """
    if stage == "dynamic":
        return float(extra or 0.0)
    if stage == "circumvent":
        return tuple(sorted(extra))
    return None


def app_fingerprint(
    corpus_fp: str,
    sleep_s: float,
    stage: str,
    platform: str,
    dataset: str,
    app_id: str,
    extra,
) -> str:
    """The content address of one app's result for one stage config."""
    identity = repr(
        (
            _VERSION,
            code_fingerprint(),
            corpus_fp,
            float(sleep_s),
            stage,
            platform,
            dataset,
            app_id,
            normalize_extra(stage, extra),
        )
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def summarize_result(result) -> dict:
    """Plain-data summary embedded in each entry's metadata.

    Duck-typed over the three result classes so ``tools/diff_runs.py``
    can report *which apps flipped pinned/unpinned and why* without
    unpickling payloads (or importing this package at all).
    """
    summary: dict = {}
    pins = getattr(result, "pins", None)
    if callable(pins):
        summary["pinned"] = bool(result.pins())
    pinned = getattr(result, "pinned_destinations", None)
    if pinned is not None:
        summary["pinned_destinations"] = sorted(pinned)
    bypassed = getattr(result, "bypassed_destinations", None)
    if bypassed is not None:
        summary["bypassed_destinations"] = sorted(bypassed)
        summary["resistant_destinations"] = sorted(
            getattr(result, "resistant_destinations", ())
        )
    if hasattr(result, "embedded_material"):
        summary["embedded_material"] = bool(result.embedded_material)
        summary["nsc_pins"] = bool(result.nsc_pins)
    return summary


@dataclass
class StoreStats:
    """Hit/miss/invalidation tallies for one store handle's lifetime."""

    unit_hits: int = 0
    unit_misses: int = 0
    app_hits: int = 0
    app_misses: int = 0
    stage_hits: int = 0
    stage_misses: int = 0
    stage_published: int = 0
    published: int = 0
    invalidated: int = 0

    @property
    def unit_hit_rate(self) -> float:
        total = self.unit_hits + self.unit_misses
        return self.unit_hits / total if total else 0.0

    @property
    def stage_hit_rate(self) -> float:
        total = self.stage_hits + self.stage_misses
        return self.stage_hits / total if total else 0.0

    def describe(self) -> str:
        out = (
            f"{self.unit_hits} unit hit(s) / {self.unit_misses} miss(es) "
            f"(hit rate {self.unit_hit_rate:.1%}), "
            f"{self.published} entr(ies) published, "
            f"{self.invalidated} invalidated"
        )
        if self.stage_hits or self.stage_misses or self.stage_published:
            out += (
                f"; {self.stage_hits} stage hit(s) / "
                f"{self.stage_misses} miss(es) "
                f"(hit rate {self.stage_hit_rate:.1%}), "
                f"{self.stage_published} stage entr(ies) published"
            )
        return out


class ResultStore:
    """On-disk, content-addressed store of per-app pipeline results.

    Args:
        root: store directory (created on first publish).
        corpus: the corpus this handle serves; its fingerprint enters
            every key, so a store directory may safely hold entries from
            many configurations side by side.
        sleep_s: the dynamic capture window (results depend on it).
        read: consult the store before computing (``--no-store-read``
            turns this off to force a repopulating run).
        write: publish computed results (``--no-store-write`` turns this
            off for a read-only consumer).
    """

    def __init__(
        self,
        root: Union[str, Path],
        corpus,
        sleep_s: float = 30.0,
        read: bool = True,
        write: bool = True,
    ):
        self.root = Path(root)
        self.corpus = corpus
        self.corpus_fp = corpus_fingerprint(corpus)
        self.sleep_s = float(sleep_s)
        self.read = bool(read)
        self.write = bool(write)
        self.stats = StoreStats()
        # Pipeline objects per kind, bound by the engine so stage keys
        # resolve config knobs from the live configuration.  Unbound,
        # knobs resolve to the graphs' declared defaults (with the
        # handle's sleep window overriding the dynamic default), which
        # matches a default-configured study.
        self._knobs: dict = {}

    # -- layout ------------------------------------------------------------

    def entry_path(self, fingerprint: str) -> Path:
        return self.root / "objects" / fingerprint[:2] / f"{fingerprint}.pkl"

    def _ensure_layout(self) -> None:
        if not (self.root / "store.json").exists():
            self.root.mkdir(parents=True, exist_ok=True)
            manifest = {"magic": _MAGIC, "version": _VERSION}
            with open(self.root / "store.json", "w") as fh:
                json.dump(manifest, fh, indent=1, sort_keys=True)
                fh.write("\n")

    # -- stage graphs ------------------------------------------------------

    def bind_pipelines(
        self, static=None, dynamic=None, circumvent=None
    ) -> None:
        """Attach the live pipeline objects config knobs resolve from.

        The engine binds its pipelines at run entry; thereafter every
        fingerprint reflects the actual configuration (``include_native``,
        detector variant, hook set, …) instead of the graph defaults.
        """
        for kind, pipeline in (
            ("static", static),
            ("dynamic", dynamic),
            ("circumvent", circumvent),
        ):
            if pipeline is not None:
                self._knobs[kind] = pipeline

    @staticmethod
    def _graph(kind: str):
        from repro.core.pipeline import graph_for

        return graph_for(kind)

    def _stage_keys(
        self, graph, platform: str, dataset: str, app_id: str, extra
    ) -> dict:
        knobs = self._knobs.get(graph.kind)
        overrides = None if knobs is not None else {"sleep_s": self.sleep_s}
        return graph.stage_keys(
            self.corpus_fp,
            platform,
            dataset,
            app_id,
            params=graph.params_from_extra(extra),
            knobs=knobs,
            overrides=overrides,
        )

    def fingerprint_for(
        self, stage: str, platform: str, dataset: str, app_id: str, extra
    ) -> str:
        """The content address of one app's result for one stage config.

        For kinds with a registered stage graph this is the final
        stage's chain key — every upstream config knob and artifact
        fingerprint enters it; otherwise the flat legacy fingerprint.
        """
        graph = self._graph(stage)
        if graph is None:
            return app_fingerprint(
                self.corpus_fp,
                self.sleep_s,
                stage,
                platform,
                dataset,
                app_id,
                extra,
            )
        return self._stage_keys(graph, platform, dataset, app_id, extra)[
            graph.final
        ]

    # -- per-app access ----------------------------------------------------

    def lookup_app(
        self, stage: str, platform: str, dataset: str, app_id: str, extra
    ):
        """The stored result for one app under one stage config, or None.

        Any corruption — unreadable pickle, digest mismatch, envelope
        fingerprint not matching the file name — invalidates the entry
        (warned, counted, deleted) and reads as a miss, so the caller
        recomputes instead of trusting a damaged payload.
        """
        if not self.read:
            return None
        fingerprint = self.fingerprint_for(
            stage, platform, dataset, app_id, extra
        )
        path = self.entry_path(fingerprint)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.app_misses += 1
            obs.count("store.apps.miss")
            return None
        payload = self._decode_entry(blob, fingerprint, path)
        if payload is None:
            self.stats.app_misses += 1
            obs.count("store.apps.miss")
            return None
        self.stats.app_hits += 1
        obs.count("store.apps.hit")
        return payload

    def _decode_entry(self, blob: bytes, fingerprint: str, path: Path):
        """Validate and unwrap one entry; invalidate on a *corrupt* entry.

        Only errors that damaged bytes can produce count as corruption
        (:data:`_CORRUPTION_ERRORS`).  Anything else — an
        ``AttributeError`` because a result class was renamed, an
        ``ImportError`` because its module moved — is a programming error
        that every entry would trip over; misreporting it as corruption
        would silently recompute the whole store while discarding it
        entry by entry.  Those propagate so the bug gets fixed instead of
        papered over.
        """
        try:
            envelope = pickle.loads(blob)
            magic, version, stored_fp, _meta, digest, payload_blob = envelope
            if magic != _ENTRY_MAGIC or version != _VERSION:
                raise ValueError("not a result-store entry")
            if stored_fp != fingerprint:
                raise ValueError("entry fingerprint does not match its path")
            if hashlib.sha256(payload_blob).hexdigest() != digest:
                raise ValueError("payload digest mismatch")
            return pickle.loads(payload_blob)
        except _CORRUPTION_ERRORS as exc:
            self._invalidate(path, exc)
            return None

    def _invalidate(self, path: Path, reason: Exception) -> None:
        self.stats.invalidated += 1
        obs.count("store.entries.invalidated")
        warnings.warn(
            f"result store entry {path} is corrupt ({reason}); the entry "
            "was discarded and its unit will be recomputed",
            RuntimeWarning,
            stacklevel=4,
        )
        try:
            path.unlink()
        except OSError:
            pass

    def publish_app(
        self,
        stage: str,
        platform: str,
        dataset: str,
        app_id: str,
        extra,
        result,
    ) -> None:
        """File one app's result under its fingerprint (atomic, idempotent)."""
        if not self.write:
            return
        fingerprint = self.fingerprint_for(
            stage, platform, dataset, app_id, extra
        )
        path = self.entry_path(fingerprint)
        if path.exists():
            return
        self._ensure_layout()
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "entry_kind": "app",
            "stage": stage,
            "platform": platform,
            "dataset": dataset,
            "app_id": app_id,
            "sleep_s": self.sleep_s,
            "extra": repr(normalize_extra(stage, extra)),
            "corpus": self.corpus_fp,
            "code": code_fingerprint(),
            "summary": summarize_result(result),
        }
        self._write_entry(path, fingerprint, meta, result)
        self.stats.published += 1
        obs.count("store.apps.published")

    def _write_entry(
        self, path: Path, fingerprint: str, meta: dict, payload
    ) -> None:
        payload_blob = pickle.dumps(payload)
        envelope = (
            _ENTRY_MAGIC,
            _VERSION,
            fingerprint,
            meta,
            hashlib.sha256(payload_blob).hexdigest(),
            payload_blob,
        )
        # Unique per writer: concurrent runners in one process (threads)
        # or across processes must never share a temp file.
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with open(tmp, "wb") as fh:
            pickle.dump(envelope, fh)
        os.replace(tmp, path)

    # -- per-stage access (the stage graphs' interface) --------------------

    def lookup_stage(self, fingerprint: str, kind: str, stage: str, miss=None):
        """The stored artifact for one stage fingerprint, or ``miss``.

        The ``miss`` sentinel distinguishes absence from stored values;
        corruption invalidates the entry and reads as a miss, same as
        the app-level contract.
        """
        if not self.read:
            return miss
        path = self.entry_path(fingerprint)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count_stage(kind, stage, hit=False)
            return miss
        payload = self._decode_entry(blob, fingerprint, path)
        if payload is None:
            self._count_stage(kind, stage, hit=False)
            return miss
        self._count_stage(kind, stage, hit=True)
        return payload

    def _count_stage(self, kind: str, stage: str, hit: bool) -> None:
        if hit:
            self.stats.stage_hits += 1
            obs.count("store.stages.hit")
            obs.count(f"store.stage.{kind}.{stage}.hit")
        else:
            self.stats.stage_misses += 1
            obs.count("store.stages.miss")
            obs.count(f"store.stage.{kind}.{stage}.miss")

    def publish_stage(
        self,
        fingerprint: str,
        kind: str,
        stage: str,
        platform: str,
        dataset: str,
        app_id: str,
        value,
    ) -> None:
        """File one stage artifact under its chain key (atomic, idempotent)."""
        if not self.write:
            return
        path = self.entry_path(fingerprint)
        if path.exists():
            return
        self._ensure_layout()
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "entry_kind": "stage",
            "stage": f"{kind}.{stage}",
            "platform": platform,
            "dataset": dataset,
            "app_id": app_id,
            "corpus": self.corpus_fp,
            "code": code_fingerprint(),
        }
        self._write_entry(path, fingerprint, meta, value)
        self.stats.stage_published += 1
        obs.count("store.stages.published")

    # -- unit-level access (the engine's interface) ------------------------

    def _unit_apps(self, unit) -> List[tuple]:
        """``(app_id, per_app_extra)`` for each index of one work unit."""
        kind, platform, dataset, indices, extra = unit
        apps = self.corpus.dataset(platform, dataset)
        if kind == "circumvent":
            extras = list(extra)
        else:
            extras = [extra] * len(indices)
        return [
            (apps[index].app.app_id, extras[position])
            for position, index in enumerate(indices)
        ]

    def lookup_unit(self, unit) -> Optional[list]:
        """The composed stored result for one work unit, or None.

        All of the unit's apps must hit — a partial unit is a unit miss
        and is recomputed whole (and republished per app, so the next
        warm run hits).
        """
        if not self.read:
            return None
        kind, platform, dataset, _indices, _extra = unit
        results = []
        for app_id, app_extra in self._unit_apps(unit):
            result = self.lookup_app(
                kind, platform, dataset, app_id, app_extra
            )
            if result is None:
                self.stats.unit_misses += 1
                obs.count("store.units.miss")
                return None
            results.append(result)
        self.stats.unit_hits += 1
        obs.count("store.units.hit")
        return results

    def probe_unit_stages(self, unit) -> bool:
        """Whether any app of this unit has warm *stage* artifacts.

        The engine's partial-recomputation probe: a unit that missed at
        the app level but has persisted upstream stages on disk is worth
        running locally through the stage cache instead of shipping to a
        cache-less pool worker.
        """
        if not self.read:
            return False
        kind, platform, dataset, _indices, _extra = unit
        graph = self._graph(kind)
        if graph is None:
            return False
        for app_id, app_extra in self._unit_apps(unit):
            keys = self._stage_keys(graph, platform, dataset, app_id, app_extra)
            for stage in graph.stages:
                if stage.persist and self.entry_path(
                    keys[stage.name]
                ).exists():
                    return True
        return False

    def publish_unit(self, unit, results: list) -> None:
        """File one completed unit's results, one entry per app.

        Only a complete unit is publishable: a quarantined unit whose
        survivors were merged around abandoned apps no longer aligns
        with its index list (its solo re-runs published themselves).

        Stage artifacts recoverable from a result (the graph's
        ``derive`` extractors) are published alongside, so future runs
        with a flipped downstream knob can warm-start mid-graph even
        when the cold run computed units in cache-less pool workers.
        """
        if not self.write:
            return
        kind, platform, dataset, indices, _extra = unit
        if len(results) != len(indices):
            return
        graph = self._graph(kind)
        for (app_id, app_extra), result in zip(
            self._unit_apps(unit), results
        ):
            self.publish_app(
                kind, platform, dataset, app_id, app_extra, result
            )
            if graph is None or result is None:
                continue
            keys = self._stage_keys(graph, platform, dataset, app_id, app_extra)
            for stage in graph.stages:
                if stage.persist and stage.derive is not None:
                    try:
                        artifact = stage.derive(result)
                    except (AttributeError, TypeError):
                        # A result that cannot supply this stage's
                        # artifact (a foreign or test result type) is
                        # still a valid app-level entry; backfilling
                        # stage entries is best-effort — a future run
                        # simply recomputes that stage cold.
                        continue
                    self.publish_stage(
                        keys[stage.name],
                        kind,
                        stage.name,
                        platform,
                        dataset,
                        app_id,
                        artifact,
                    )
