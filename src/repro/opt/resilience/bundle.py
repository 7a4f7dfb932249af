"""Crash bundles: replayable records of guarded-pass failures.

When a guarded pass application fails (raise or verifier rejection),
the guard packages everything needed to reproduce it off-line:

* ``before.ll``   — the pre-pass IR (the rollback snapshot);
* ``bundle.json`` — pass name, global application index, the
  :class:`~repro.opt.pass_manager.OptConfig`, the error and traceback,
  the chaos seed (when injected), and a content-derived bundle id.

Bundle directory names are **content-hashed and deterministic** —
``<pass>-<application %04d>-<sha256 prefix>`` — with no wall-clock
component, so re-running a campaign produces byte-identical bundle
paths and two distinct failures can never collide.

``python -m repro crash replay <bundle>`` re-runs the recorded pass on
the recorded IR.  For chaos-injected failures the recorded injection is
re-applied (same fault kind at application 1), so even synthetic
crashes replay faithfully.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import List, Optional

from ...ir import parse_function, verify_function
from ...ir.parser import ParseError
from ..pass_manager import OptConfig
from ..pipelines import FIXED, PASSES
from .chaos import CHAOS_RAISE, ChaosEngine, ChaosFault, ChaosPass

MANIFEST_NAME = "bundle.json"
BEFORE_IR_NAME = "before.ll"


def bundle_id(payload: dict) -> str:
    """Deterministic, collision-free directory name for a failure.

    Hashes the identifying content (pre-pass IR, pass, application
    index, error) — never timestamps — so reruns reproduce the same
    name and distinct failures get distinct names.
    """
    key = json.dumps(
        {
            "pass": payload.get("pass", ""),
            "application": payload.get("application", 0),
            "kind": payload.get("kind", ""),
            "error": payload.get("error", ""),
            "before_ir": payload.get("before_ir", ""),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    safe_pass = "".join(
        c if c.isalnum() or c in "-_" else "-"
        for c in payload.get("pass", "unknown")
    )
    return f"{safe_pass}-{payload.get('application', 0):04d}-{digest[:12]}"


def make_bundle_payload(*, pre_ir: str, pass_name: str, application: int,
                        kind: str, error: str, traceback_text: str,
                        config: Optional[OptConfig] = None,
                        function: str = "", seed: Optional[int] = None,
                        injected_action: Optional[str] = None,
                        policy: str = "",
                        flight_recorder: Optional[dict] = None) -> dict:
    """The self-contained (JSON-serializable) form of one failure.

    ``flight_recorder`` is the black-box dump of the worker's last
    events before the failure (:func:`repro.diag.recorder_dump`).  It
    rides in the manifest but is excluded from :func:`bundle_id`, which
    hashes only the identifying content — two runs of the same failure
    still land in the same bundle directory.
    """
    payload = {
        "schema": 1,
        "pass": pass_name,
        "function": function,
        "application": application,
        "kind": kind,
        "error": error,
        "traceback": traceback_text,
        "opt_config": config.as_dict() if config is not None else None,
        "seed": seed,
        "injected": injected_action is not None,
        "injected_action": injected_action,
        "policy": policy,
        "flight_recorder": flight_recorder,
        "before_ir": pre_ir,
    }
    payload["bundle_id"] = bundle_id(payload)
    return payload


def write_bundle(root: str, payload: dict) -> str:
    """Materialize a payload under ``root``; returns the bundle path.

    Idempotent: the same failure always writes the same directory with
    the same contents.
    """
    path = os.path.join(root, payload.get("bundle_id") or bundle_id(payload))
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, BEFORE_IR_NAME), "w",
              encoding="utf-8") as f:
        f.write(payload.get("before_ir", ""))
        if not payload.get("before_ir", "").endswith("\n"):
            f.write("\n")
    manifest = {k: v for k, v in payload.items() if k != "before_ir"}
    with open(os.path.join(path, MANIFEST_NAME), "w",
              encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_bundle(path: str) -> dict:
    """Read a bundle directory back into payload form."""
    with open(os.path.join(path, MANIFEST_NAME), encoding="utf-8") as f:
        payload = json.load(f)
    with open(os.path.join(path, BEFORE_IR_NAME), encoding="utf-8") as f:
        payload["before_ir"] = f.read()
    return payload


def list_bundles(root: str) -> List[str]:
    """Every bundle directory under ``root``, sorted by name."""
    if not os.path.isdir(root):
        return []
    out = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(os.path.join(path, MANIFEST_NAME)):
            out.append(path)
    return out


@dataclass
class ReplayResult:
    """Outcome of replaying one crash bundle."""

    bundle: str
    pass_name: str
    reproduced: bool
    outcome: str
    error: str = ""

    def as_dict(self) -> dict:
        return {"bundle": self.bundle, "pass": self.pass_name,
                "reproduced": self.reproduced, "outcome": self.outcome,
                "error": self.error}


def replay_bundle(path: str) -> ReplayResult:
    """Re-run the recorded pass on the recorded pre-pass IR.

    * a recorded real failure *reproduces* when the pass raises again or
      the verifier rejects its output;
    * a chaos-injected failure is replayed by re-injecting the recorded
      fault kind at application 1 of a fresh engine.
    """
    payload = load_bundle(path)
    pass_name = payload.get("pass", "")
    try:
        fn = parse_function(payload["before_ir"])
    except (ParseError, ValueError) as e:
        return ReplayResult(path, pass_name, False,
                            f"bundle IR does not parse: {e}")
    config_dict = payload.get("opt_config")
    config = (OptConfig.from_dict(config_dict)
              if config_dict else FIXED)
    if pass_name not in PASSES:
        return ReplayResult(path, pass_name, False,
                            f"unknown pass {pass_name!r}")
    the_pass = PASSES[pass_name](config)

    injected_action = payload.get("injected_action")
    if injected_action:
        engine = ChaosEngine(seed=payload.get("seed") or 0, rate=1.0,
                             mode=injected_action, fail_at=(1,))
        the_pass = ChaosPass(the_pass, engine)

    try:
        the_pass.run_on_function(fn)
        verify_function(fn)
    except ChaosFault as e:
        return ReplayResult(path, pass_name, True,
                            "re-injected fault reproduced", repr(e))
    except Exception as e:  # real pass crash or verifier rejection
        kind = payload.get("kind", "")
        same_kind = (
            (kind == "verify") == (type(e).__name__ == "VerificationError")
        )
        outcome = ("failure reproduced" if same_kind
                   else "failed, but with a different failure kind")
        return ReplayResult(path, pass_name, True, outcome, repr(e))

    if injected_action == CHAOS_RAISE:
        # The injected exception should have fired before the pass ran.
        return ReplayResult(path, pass_name, False,
                            "recorded raise fault did not re-fire")
    return ReplayResult(path, pass_name, False,
                        "pass ran clean; failure did not reproduce")
