"""Scenario and study configuration files (JSON), schema-checked by hand.

Unknown keys are rejected everywhere; every diagnostic names the offending
``section.field``.  The scenario document has sections

    mesh            {"kind": "rectangle", "L", "n_x", "n_y", ["scale"]}
                    or {"path": "<mesh.json>"}
    materials       {"rho", "mu", "eta"} or the six per-body values
                    ("rho_plus", "rho_minus", ...)
    law             {"kind": "prototype", "g_c", "xi_c"} or
                    {"kind": "tabulated", "w": [...], "psi": [...], "dpsi": [...]}
    loads           {"bulk": expr|number, "surface": expr|number}
    time            {"T", "n"}
    initial         {"u0", "v0", "xi0", ["w0"]}   (expressions in x, y)
    regularization  {"eps_bar", "regularity_mode"}
    output          {["snapshot_stride"], ["vtk"]}

and a study document is {"kind": ..., "base": <scenario>, ...} with kinds
``single``, ``tau_refinement``/``h_refinement`` (+ ``levels``) and
``eps_continuation`` (+ ``eps_list``), and no key of another kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .assembly import LoadError, LoadModel, Materials
from .evolution import Scenario, step_dtype
from .expressions import ExpressionError, compile_expression
from .law import CohesiveLaw, HypothesisError, PrototypeEnvelope, TabulatedEnvelope
from .mesh import InterfaceMesh, MeshError, build_rectangle_mesh, load_mesh, scaled

__all__ = ["ConfigError", "ScenarioConfig", "StudySpec", "check_time_steps", "load_scenario_file",
           "load_study_file", "parse_scenario", "parse_study"]


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


_FLOAT_MAX = np.finfo(float).max


def _object(doc: dict, name: str) -> dict:
    """The section ``doc[name]``, which must be there and be an object."""
    if name not in doc:
        raise ConfigError(f"missing section '{name}'")
    if not isinstance(doc[name], dict):
        raise ConfigError(f"section '{name}' must be an object")
    return doc[name]


def _section(doc: dict, name: str, required=(), optional=()) -> dict:
    """The section ``name`` with every key in ``required`` and none outside
    ``required`` and ``optional``."""
    sec = _object(doc, name)
    allowed = set(required) | set(optional)
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"unknown key '{name}.{key}'")
    for key in required:
        if key not in sec:
            raise ConfigError(f"missing key '{name}.{key}'")
    return sec


def _is_finite(val) -> bool:
    """A JSON number in the float range: not a bool, NaN or infinity (the
    ``NaN`` and ``Infinity`` tokens that ``json.load`` accepts)."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and -_FLOAT_MAX <= val <= _FLOAT_MAX)


def _is_positive(val) -> bool:
    return _is_finite(val) and val > 0


def _positive(sec: dict, section: str, key: str) -> float:
    val = sec[key]
    if not _is_positive(val):
        raise ConfigError(f"'{section}.{key}' must be a finite positive number")
    return float(val)


def _integer(val, name: str, minimum: int) -> int:
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        raise ConfigError(f"'{name}' must be an integer >= {minimum}")
    return val


def _expr(sec: dict, section: str, key: str, variables):
    """The expression ``sec[key]`` compiled, 0 when absent."""
    try:
        return compile_expression(sec.get(key, 0.0), variables)
    except ExpressionError as exc:
        raise ConfigError(f"'{section}.{key}': {exc}") from exc


@dataclass
class ScenarioConfig:
    """Parsed scenario: a built :class:`Scenario` plus its output options,
    the document's VTK frame stride and switch; :mod:`cohesim.cli` derives
    the strides a run keeps its fields at from them."""

    scenario: Scenario
    snapshot_stride: int
    vtk: bool
    raw: dict


def _build_mesh(doc: dict) -> InterfaceMesh:
    if "path" in _object(doc, "mesh"):
        path = _section(doc, "mesh", required=("path",))["path"]
        if not isinstance(path, str):
            raise ConfigError("'mesh.path' must be a string")
        try:
            return load_mesh(path)
        except FileNotFoundError as exc:
            raise ConfigError(f"'mesh.path': cannot read {path}") from exc
        except MeshError as exc:
            raise ConfigError(f"'mesh.path': {exc}") from exc
    sec = _section(doc, "mesh", required=("kind", "L", "n_x", "n_y"), optional=("scale",))
    if sec["kind"] != "rectangle":
        raise ConfigError("'mesh.kind' must be 'rectangle' (or use mesh.path)")
    L = _positive(sec, "mesh", "L")
    n_x = _integer(sec["n_x"], "mesh.n_x", 1)
    n_y = _integer(sec["n_y"], "mesh.n_y", 1)
    scale = _positive(sec, "mesh", "scale") if "scale" in sec else None
    try:
        mesh = build_rectangle_mesh(L, n_x, n_y)
        return mesh if scale is None else scaled(mesh, scale)
    except MeshError as exc:
        raise ConfigError(f"mesh: {exc}") from exc


def _build_materials(doc: dict) -> Materials:
    keys = ("rho", "mu", "eta")
    if not _object(doc, "materials").keys() & set(keys):
        keys = ("rho_plus", "rho_minus", "mu_plus", "mu_minus", "eta_plus", "eta_minus")
    sec = _section(doc, "materials", required=keys)
    values = [_positive(sec, "materials", k) for k in keys]
    return Materials.constant(*values) if len(keys) == 3 else Materials(*values)


def _table(sec: dict, key: str) -> np.ndarray:
    val = sec[key]
    if not (isinstance(val, list) and all(map(_is_finite, val))):
        raise ConfigError(f"'law.{key}' must be a list of finite numbers")
    return np.asarray(val, dtype=float)


def _initial(sec: dict, key: str, x, y) -> np.ndarray:
    """The ``initial`` field ``key`` at the points ``(x, y)`` (0 when absent)."""
    with np.errstate(all="ignore"):     # the finiteness test below names the field
        val = np.asarray(_expr(sec, "initial", key, ("x", "y"))(x=x, y=y), dtype=float)
    if not np.all(np.isfinite(val)):
        raise ConfigError(f"'initial.{key}' must be finite at every node")
    return val


def build_law(doc: dict) -> CohesiveLaw:
    """Build and validate the cohesive law from the 'law' section."""
    kind = _object(doc, "law").get("kind")
    if kind == "prototype":
        sec = _section(doc, "law", required=("kind", "g_c", "xi_c"))
        env = PrototypeEnvelope(_positive(sec, "law", "g_c"), _positive(sec, "law", "xi_c"))
    elif kind == "tabulated":
        sec = _section(doc, "law", required=("kind", "w", "psi", "dpsi"))
        env = TabulatedEnvelope(*[_table(sec, key) for key in ("w", "psi", "dpsi")])
    else:
        raise ConfigError("'law.kind' must be 'prototype' or 'tabulated'")
    return CohesiveLaw(env)


def check_time_steps(T: float, n: int, materials: Materials, n_pairs: int) -> None:
    """Raise :class:`ConfigError` unless ``n`` steps over ``(0, T]`` can run:
    the step's coefficients ``tau^2``, ``rho / tau^2`` and ``eta / tau`` must
    be floats, and ``run()``'s step table must fit in memory."""
    tau = T / n
    rho = max(materials.rho_plus, materials.rho_minus)
    eta = max(materials.eta_plus, materials.eta_minus)
    if not (0.0 < tau * tau <= _FLOAT_MAX and rho / (tau * tau) <= _FLOAT_MAX
            and eta / tau <= _FLOAT_MAX):
        raise ConfigError(f"'time.T' over 'time.n' gives the time step tau = {tau:.3g}, for "
                          "which tau^2, rho / tau^2 or eta / tau is out of the float range")
    try:
        np.empty(n + 1, dtype=step_dtype(n_pairs))
    except MemoryError as exc:
        raise ConfigError(f"'time.n' asks for a step table of {n + 1} rows, which does not "
                          "fit in memory") from exc


def parse_scenario(doc: dict) -> ScenarioConfig:
    """Validate a scenario document and construct the runnable Scenario."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    if {"kind", "base"} <= doc.keys():
        raise ConfigError("this is a study document ('kind' and 'base'), not a "
                          "scenario: run it with 'cohesim study'")
    known = {"mesh", "materials", "law", "loads", "time", "initial",
             "regularization", "output"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown section '{key}'")

    mesh = _build_mesh(doc)
    materials = _build_materials(doc)
    try:
        law = build_law(doc)
    except HypothesisError as exc:
        raise ConfigError(f"law: {exc}") from exc

    tsec = _section(doc, "time", required=("T", "n"))
    T = _positive(tsec, "time", "T")
    n = _integer(tsec["n"], "time.n", 1)
    check_time_steps(T, n, materials, mesh.n_pairs)

    lsec = _section(doc, "loads", optional=("bulk", "surface"))
    # compile every given load, so a malformed one fails; a zero one then builds no rule
    fns = {key: _expr(lsec, "loads", key, ("x", "y", "t")) for key in lsec}
    fns = {key: fn for key, fn in fns.items() if lsec[key] != 0}
    try:
        loads = LoadModel.from_functions(mesh, T, **fns)
    except LoadError as exc:
        raise ConfigError("'loads.{}' is not finite at t = {!r}".format(*exc.args)) from exc

    isec = _section(doc, "initial", optional=("u0", "v0", "xi0", "w0"))
    xs, ys = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u0 = _initial(isec, "u0", xs, ys)
    v0 = _initial(isec, "v0", xs, ys)
    px = mesh.nodes[mesh.interface_pairs[:, 0]]
    xi0 = _initial(isec, "xi0", px[:, 0], px[:, 1])
    w0 = _initial(isec, "w0", xs, ys) if "w0" in isec else None

    rsec = _section(doc, "regularization", required=("eps_bar",),
                    optional=("regularity_mode",))
    eps_bar = _positive(rsec, "regularization", "eps_bar")
    reg_mode = rsec.get("regularity_mode", False)
    if not isinstance(reg_mode, bool):
        raise ConfigError("'regularization.regularity_mode' must be a boolean")

    osec = _section(doc, "output", optional=("snapshot_stride", "vtk")) if "output" in doc else {}
    stride = _integer(osec.get("snapshot_stride", 1), "output.snapshot_stride", 1)
    vtk = osec.get("vtk", False)
    if not isinstance(vtk, bool):
        raise ConfigError("'output.vtk' must be a boolean")

    try:
        scenario = Scenario(mesh, materials, law, loads, T, n, u0, v0, xi0,
                            eps_bar, regularity_mode=reg_mode, w0=w0)
    except ValueError as exc:
        raise ConfigError(f"initial data: {exc}") from exc
    return ScenarioConfig(scenario, snapshot_stride=stride, vtk=vtk, raw=doc)


@dataclass
class StudySpec:
    kind: str
    base: ScenarioConfig
    levels: int = 0
    eps_list: tuple = ()


_STUDY_KEYS = {
    "single": {"kind", "base"},
    "tau_refinement": {"kind", "base", "levels"},
    "h_refinement": {"kind", "base", "levels"},
    "eps_continuation": {"kind", "base", "eps_list"},
}


def parse_study(doc: dict) -> StudySpec:
    if not isinstance(doc, dict):
        raise ConfigError("study document must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _STUDY_KEYS:
        raise ConfigError("'kind' must be one of single, tau_refinement, "
                          "eps_continuation, h_refinement")
    for key in doc:
        if key not in _STUDY_KEYS[kind]:
            raise ConfigError(f"unknown key '{key}' for kind '{kind}'")
    if "base" not in doc:
        raise ConfigError("missing key 'base'")
    spec = StudySpec(kind=kind, base=parse_scenario(doc["base"]))
    if "levels" in _STUDY_KEYS[kind]:
        spec.levels = _integer(doc.get("levels"), "levels", 2)
    if kind == "eps_continuation":
        eps_list = doc.get("eps_list")
        if (not isinstance(eps_list, list) or len(eps_list) < 2
                or not all(map(_is_positive, eps_list))):
            raise ConfigError("'eps_list' must hold >= 2 finite positive numbers")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigError("'eps_list' must be strictly decreasing")
        spec.eps_list = tuple(eps_list)
    return spec


def _read_json(path):
    with open(path, encoding="utf-8", errors="replace") as f:   # a non-UTF-8 byte is U+FFFD
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def load_scenario_file(path) -> ScenarioConfig:
    return parse_scenario(_read_json(path))


def load_study_file(path) -> StudySpec:
    return parse_study(_read_json(path))
