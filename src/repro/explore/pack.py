"""Attested repro packs: a checksummed manifest over a sweep directory.

A finished sweep is a claim — "these records came from this spec on
this code" — and a claim is only as good as its audit trail.  The
**repro pack** (``pack.json``) makes the claim checkable offline:

* identity of the producing run (run id, git SHA, source digest);
* the spec digest (same fingerprint the journal header carries);
* a SHA-256 per artifact file — ``points.jsonl``, the CSVs,
  ``summary.md``, ``report.json``, ``spec.json`` — plus the journal;
* a per-point digest of every record's *comparison form*
  (:func:`~repro.explore.journal.strip_volatile`), so a single edited
  metric is localized to its point label, not just "the file changed";
* a self-digest over the whole manifest, so the manifest itself cannot
  be quietly rewritten to match tampered artifacts without the
  mismatch showing against a trusted copy *and* any re-verification
  flagging internally-inconsistent edits.

``repro pack verify DIR`` re-derives all of it and exits non-zero on
any byte of drift.  The sweep engine writes the pack as its final act,
after the journal is closed and the artifact set is complete — the
pack attests the directory exactly as a reader will find it.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Dict, List

from repro import runctx
from repro.explore.analyze import (
    FRONTIER_FILE, POINTS_FILE, REPORT_FILE, SENSITIVITY_FILE, SPEC_FILE,
    SUMMARY_FILE,
)
from repro.explore.journal import JOURNAL_FILE, strip_volatile
from repro.pipeline.keys import stable_digest

__all__ = ["PACK_FILE", "PACK_VERSION", "PackError", "build_manifest",
           "load_pack", "verify_pack", "write_pack"]

PACK_FILE = "pack.json"
PACK_VERSION = 1

#: Artifact files attested when present (a partial directory — e.g. a
#: killed sweep that only has its journal yet — packs what exists;
#: *verify* then holds the directory to exactly that inventory).
ATTESTED_FILES = (POINTS_FILE, FRONTIER_FILE, SENSITIVITY_FILE,
                  REPORT_FILE, SUMMARY_FILE, SPEC_FILE)

#: Width of the truncated digests (spec/point/manifest); file digests
#: stay full SHA-256 — they are the tamper-evidence workhorse.
_DIGEST_WIDTH = 16


class PackError(ValueError):
    """The directory has no usable pack manifest."""


def _file_sha(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _point_digests(sweep_dir: Path) -> Dict[str, str]:
    """label -> digest of the record's comparison form (run_id and
    friends excluded, so a pack survives journal replay across runs)."""
    path = sweep_dir / POINTS_FILE
    if not path.exists():
        return {}
    digests: Dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        digests[record["label"]] = stable_digest(
            strip_volatile(record))[:_DIGEST_WIDTH]
    return digests


def _manifest_digest(manifest: Dict[str, Any]) -> str:
    body = {k: v for k, v in manifest.items() if k != "manifest_digest"}
    return stable_digest(body)[:_DIGEST_WIDTH]


def build_manifest(sweep_dir) -> Dict[str, Any]:
    """Derive the pack manifest from a sweep directory's current bytes."""
    sweep_dir = Path(sweep_dir)
    spec_digest = ""
    spec_path = sweep_dir / SPEC_FILE
    if spec_path.exists():
        spec_digest = stable_digest(
            json.loads(spec_path.read_text(encoding="utf-8")))[
                :_DIGEST_WIDTH]
    files = {name: _file_sha(sweep_dir / name) for name in ATTESTED_FILES
             if (sweep_dir / name).exists()}
    if (sweep_dir / JOURNAL_FILE).exists():
        files[JOURNAL_FILE] = _file_sha(sweep_dir / JOURNAL_FILE)
    manifest: Dict[str, Any] = {
        "pack_version": PACK_VERSION,
        "created": round(time.time(), 3),
        "run": runctx.current().stamp(),
        "spec_digest": spec_digest,
        "files": files,
        "points": _point_digests(sweep_dir),
    }
    manifest["manifest_digest"] = _manifest_digest(manifest)
    return manifest


def write_pack(sweep_dir) -> Path:
    """Write ``pack.json`` attesting ``sweep_dir`` as it stands."""
    sweep_dir = Path(sweep_dir)
    manifest = build_manifest(sweep_dir)
    path = sweep_dir / PACK_FILE
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_pack(sweep_dir) -> Dict[str, Any]:
    path = Path(sweep_dir) / PACK_FILE
    if not path.exists():
        raise PackError(f"{path} not found — not an attested sweep "
                        f"directory (re-run the sweep, or `repro pack "
                        f"create DIR`)")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PackError(f"{path}: unparsable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise PackError(f"{path}: manifest is not an object")
    return manifest


def verify_pack(sweep_dir) -> List[str]:
    """Every way ``sweep_dir`` differs from what its pack attests.

    Empty list == the directory verifies end-to-end: manifest
    self-consistent, every attested file byte-identical, every point
    record matching its digest, spec digest matching ``spec.json``.
    """
    sweep_dir = Path(sweep_dir)
    manifest = load_pack(sweep_dir)          # PackError propagates
    problems: List[str] = []

    if manifest.get("pack_version") != PACK_VERSION:
        problems.append(
            f"pack version {manifest.get('pack_version')!r} != "
            f"{PACK_VERSION}")
    if _manifest_digest(manifest) != manifest.get("manifest_digest"):
        problems.append("manifest self-digest mismatch (pack.json "
                        "edited after writing)")

    for name, want in sorted(manifest.get("files", {}).items()):
        path = sweep_dir / name
        if not path.exists():
            problems.append(f"{name}: attested file missing")
        elif _file_sha(path) != want:
            problems.append(f"{name}: content differs from attestation")

    want_points: Dict[str, str] = manifest.get("points", {})
    have_points = _point_digests(sweep_dir)
    for label in sorted(set(want_points) | set(have_points)):
        want = want_points.get(label)
        have = have_points.get(label)
        if want is None:
            problems.append(f"point {label}: present but not attested")
        elif have is None:
            problems.append(f"point {label}: attested but missing from "
                            f"{POINTS_FILE}")
        elif want != have:
            problems.append(f"point {label}: record differs from "
                            f"attestation")

    spec_path = sweep_dir / SPEC_FILE
    if spec_path.exists():
        have_spec = stable_digest(
            json.loads(spec_path.read_text(encoding="utf-8")))[
                :_DIGEST_WIDTH]
        if have_spec != manifest.get("spec_digest"):
            problems.append(f"{SPEC_FILE}: spec digest differs from "
                            f"attestation")
    return problems
