"""Compute-environment resolution: wrapper prefixes and env fingerprints.

v1 never installs software. A provider maps an EnvSpec to (a) a stable
fingerprint that participates in task fingerprints and (b) a wrapper
argv prefix supplied by site configuration, empty by default. Real
conda/container integration is a provider implementation detail behind
this contract.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from .canon import canon_bytes
from .model import ENV_NONE, EnvSpec, WorkflowError

VARIANTS = ("none", "manifest", "image", "recipe")


class EnvResolutionError(WorkflowError):
    pass


@dataclass(frozen=True)
class ResolvedEnv:
    wrapper: tuple[str, ...]
    fingerprint: str


class ProviderRegistry:
    """Maps EnvSpec variants to wrapper argv templates.

    A template is an argv list whose elements may interpolate {ref}
    (image reference), {recipe} (recipe path), and {fingerprint}.
    Variants without a configured template resolve to an empty wrapper,
    so a bare registry is always usable.
    """

    def __init__(self, templates: dict | None = None):
        self._templates: dict[str, list[str]] = {}
        for variant, template in (templates or {}).items():
            if variant not in VARIANTS:
                raise EnvResolutionError("unknown provider variant %r" % variant)
            if (not isinstance(template, list)
                    or not all(isinstance(el, str) for el in template)):
                raise EnvResolutionError(
                    "provider template for %r must be a list of strings" % variant)
            self._templates[variant] = list(template)

    @classmethod
    def from_file(cls, path) -> "ProviderRegistry":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise EnvResolutionError("provider config must be a mapping")
        return cls(data)

    def wrapper_for(self, variant: str, substitutions: dict) -> tuple[str, ...]:
        template = self._templates.get(variant)
        if not template:
            return ()
        try:
            return tuple(el.format(**substitutions) for el in template)
        except (KeyError, IndexError) as exc:
            raise EnvResolutionError(
                "bad placeholder in %r provider template: %s" % (variant, exc)) from exc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def resolve_env(spec: EnvSpec | None, providers: ProviderRegistry | None = None,
                base_dir: str | None = None) -> ResolvedEnv:
    """Resolve an EnvSpec to its wrapper and fingerprint.

    Fingerprints hash content, never paths: the recipe variant hashes
    the recipe file's bytes, the manifest variant the sorted package
    list, so equal content fingerprints equally everywhere.
    """
    spec = spec or ENV_NONE
    providers = providers or ProviderRegistry()

    if spec.variant == "none":
        fingerprint = _sha256(b"env:none")
        subs = {"fingerprint": fingerprint, "ref": "", "recipe": ""}
    elif spec.variant == "manifest":
        ordered = [{"name": n, "version": v} for n, v in sorted(spec.packages)]
        fingerprint = _sha256(b"env:manifest:" + canon_bytes(ordered))
        subs = {"fingerprint": fingerprint, "ref": "", "recipe": ""}
    elif spec.variant == "image":
        fingerprint = _sha256(b"env:image:" + spec.ref.encode("utf-8"))
        subs = {"fingerprint": fingerprint, "ref": spec.ref, "recipe": ""}
    elif spec.variant == "recipe":
        path = spec.recipe
        if not os.path.isabs(path):
            path = os.path.join(base_dir or ".", path)
        try:
            with open(path, "rb") as fh:
                content = fh.read()
        except OSError as exc:
            raise EnvResolutionError("recipe file missing: %s" % path) from exc
        fingerprint = _sha256(b"env:recipe:" + content)
        subs = {"fingerprint": fingerprint, "ref": "", "recipe": spec.recipe}
    else:
        raise EnvResolutionError("unknown environment variant %r" % spec.variant)

    wrapper = providers.wrapper_for(spec.variant, subs)
    return ResolvedEnv(wrapper, fingerprint)
