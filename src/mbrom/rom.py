"""Builds and drives the reduced-order model.

A RomModel packages the truncated basis, one GP per mode coefficient and,
for moving-boundary data, one GP per boundary parameter.  On moving-boundary
data the mean and the basis are built on B, the nodes fluid in every
snapshot, and are 0 elsewhere.  Forecasts combine the three horizon
criteria, reconstruct the field at the query time, and set every fluid node
outside B by the moving least squares correction from the trusted nodes
(fluid now and in B).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import pod as _pod
from .data import (
    BoundaryTrack,
    SnapshotSet,
    SpatialGrid,
    _read_grid,
    _read_json,
    _read_matrix,
    _write_grid,
    fill_occluded,
    inner_product,
    write_json,
    write_matrix,
)
from .gpr import (
    BoundaryHorizon,
    GprHorizon,
    GprModel,
    GprStack,
    Kernel,
    energy_weighted,
    gpr_horizon_boundary,
    gpr_horizon_modes,
    train,  # noqa: F401  perfbench/spans.py wraps mbrom.rom.train by name
    train_many,
)
from .mls import CorrectionReport, MlsConfig, StencilCache, correct_field
from .pod import PodBasis, PodHorizon

__all__ = [
    "Thresholds",
    "RomModel",
    "RomForecast",
    "HandoffRecord",
    "HorizonExceededError",
    "build",
    "forecast",
    "relative_error",
    "adaptive_loop",
    "save_rom_model",
    "load_rom_model",
]


# layout of the directory save_rom_model writes; version 1 also held
# pod/coeffs.csv, pod/pod.json, boundary_track.json and the model.json keys
# t_star and pod_unbounded, copies of values the loader now derives
SCHEMA_VERSION = 2


class HorizonExceededError(RuntimeError):
    """Query time lies beyond the certified forecast horizon."""


@dataclass(frozen=True)
class Thresholds:
    """The method's four settings: the POD truncation threshold, and the
    tolerances of the three horizon criteria (eigenvalue decay, mode
    coefficient and boundary parameter uncertainty)."""

    alpha_pod: float = 0.01
    beta_pod: float = 0.3
    beta_gpr_a: float = 0.1
    beta_gpr_gamma: float = 0.1

    def __post_init__(self):
        # the POD settings lie in (0, 1), the GP tolerances in (0, inf)
        for f in fields(self):
            value = getattr(self, f.name)
            upper = 1.0 if f.name.endswith("_pod") else np.inf
            if not 0.0 < value < upper:
                raise ValueError(f"{f.name} must lie in (0, {upper:g}), got {value}")


def _node_radii(grid: SpatialGrid) -> np.ndarray:
    return np.sqrt(np.sum(grid.coords**2, axis=1))


@dataclass
class RomModel:
    grid: SpatialGrid
    mean: np.ndarray
    basis: PodBasis
    mode_models: list[GprModel]
    thresholds: Thresholds
    t1: float
    tM: float
    scan_step: float
    window_all_fluid: np.ndarray
    horizon_pod: PodHorizon
    horizon_gpr_a: GprHorizon
    mls_cfg: MlsConfig | None = None
    boundary: BoundaryTrack | None = None
    boundary_models: list[GprModel] | None = None
    boundary_geometry: str | Callable | None = None
    horizon_gpr_gamma: BoundaryHorizon | None = None
    field_name: str = "u"
    mls_cache: StencilCache = field(
        default_factory=StencilCache, init=False, repr=False, compare=False
    )
    # every mode GP, then every boundary GP, predicted in one call
    gp_stack: GprStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.mode_models) != self.basis.retained:
            raise ValueError(
                f"{len(self.mode_models)} mode models for R={self.basis.retained}"
            )
        self.gp_stack = GprStack(self.mode_models + (self.boundary_models or []))

    @cached_property
    def node_radii(self) -> np.ndarray:
        """Distance of every grid node from the origin (the radius rule)."""
        return _node_radii(self.grid)

    def t_stars(self) -> dict[str, float]:
        """Each criterion's t*, keyed by the name ``binding_component`` reports."""
        stars = {"pod": self.horizon_pod.t_star, "gpr_a": self.horizon_gpr_a.t_star}
        if self.horizon_gpr_gamma is not None:
            stars["gpr_gamma"] = self.horizon_gpr_gamma.t_star
        return stars

    @property
    def t_star(self) -> float:
        return min(self.t_stars().values())

    def binding_component(self) -> str:
        stars = self.t_stars()
        return min(stars, key=stars.get)

    def posterior(self, t_query: float) -> tuple[np.ndarray, ...]:
        """Mode-coefficient means and deviations and the boundary-parameter
        means (``None`` without boundary GPs) at the query time."""
        mu, sd = self.gp_stack.predict(t_query)
        R = len(self.mode_models)
        gamma = mu[R:, 0] if self.boundary_models is not None else None
        return mu[:R, 0], sd[:R, 0], gamma

    def fluid_mask_at(self, t_query: float) -> np.ndarray | None:
        """Predicted fluid mask at the query time, from the boundary GPs."""
        return self._fluid_mask(self.posterior(t_query)[2])

    def _fluid_mask(self, gamma: np.ndarray | None) -> np.ndarray | None:
        if gamma is None:
            return None
        if callable(self.boundary_geometry):
            return np.asarray(self.boundary_geometry(self.grid, gamma), dtype=bool)
        if self.boundary_geometry == "radius":
            return self.node_radii >= float(gamma[0])
        raise ValueError(f"unknown boundary geometry {self.boundary_geometry!r}")


@dataclass
class RomForecast:
    t_query: float
    field: np.ndarray
    sigma_weighted: float
    eps_pod_tail: float
    eps_mls: float
    corrected_nodes: np.ndarray | None = None
    boundary_values: dict[str, float] | None = None
    forced: bool = False
    correction_report: CorrectionReport | None = None
    fluid_mask: np.ndarray | None = None


def build(
    s: SnapshotSet,
    thresholds: Thresholds = Thresholds(),
    mls_cfg: MlsConfig | None = None,
    boundary_geometry: str | Callable | None = None,
    seed: int = 0,
) -> RomModel:
    """Construct the ROM: POD, then the GPs and their horizons.

    Moving-boundary datasets must carry a boundary track and a geometry rule
    that maps the boundary parameters to a fluid mask: a callable, or the
    ``"radius"`` rule, the default for one parameter (fluid where the node
    radius is at least it; every snapshot's mask must then be the rule's).
    Their POD runs on B, the nodes fluid in every snapshot, which must not
    be empty (``fill_occluded``); a forecast sets every other fluid node by
    the MLS correction.  The boundary-parameter GPs and the mode GPs are
    trained in one call, and the boundary GPs bound the forecast through
    their own horizon.  ``seed`` is accepted and ignored: training is
    deterministic.  It stays because the benchmark
    (``perfbench/workloads.py``) passes ``seed=0``.
    """
    if not (boundary_geometry in (None, "radius") or callable(boundary_geometry)):
        raise ValueError(
            f"unknown boundary geometry {boundary_geometry!r}: give 'radius' "
            "or a callable"
        )
    moving = not s.all_fluid()
    t1, tM = float(s.times[0]), float(s.times[-1])
    scan_step = (tM - t1) / s.n_snapshots

    geometry = boundary_geometry
    radii = None
    always = s.fluid_throughout()
    if moving:
        if s.boundary is None:
            raise ValueError("moving-boundary snapshots need a boundary track")
        if geometry is None and s.boundary.n_params == 1:
            geometry = "radius"
        if geometry is None:
            raise ValueError(
                f"{s.boundary.n_params} boundary parameters and no boundary "
                "geometry rule: a forecast could not find the exposed nodes"
            )
        if geometry == "radius":
            radii = _node_radii(s.grid)
            _check_radius_masks(s, radii)
        if not always.any():
            raise ValueError(
                "no node is fluid in every snapshot: B, the node set the "
                "basis is built on, is empty"
            )
        filled = fill_occluded(s)
    else:
        if s.boundary is not None:
            warnings.warn(
                "boundary track ignored: all masks are fluid", stacklevel=2
            )
        filled = s

    basis = _pod.truncate(_pod.decompose(filled), thresholds.alpha_pod)
    horizon_pod = _pod.pod_horizon(basis, t1, tM, thresholds.beta_pod)
    outputs = basis.coeffs[:, :basis.retained]
    if moving:
        # the modes are 0 off B, where the SVD leaves rounding-level values
        basis = replace(basis, modes=np.where(always, basis.modes, 0.0))
        outputs = np.column_stack([s.boundary.values, outputs])
    models = train_many(filled.times, outputs)
    split = len(models) - basis.retained  # the boundary GPs come first
    mode_models = models[split:]
    boundary_models = models[:split] if moving else None
    horizon_gamma = None
    if moving:
        horizon_gamma = gpr_horizon_boundary(
            boundary_models, tM, thresholds.beta_gpr_gamma, scan_step
        )
    horizon_a = gpr_horizon_modes(
        mode_models, basis.eigenvalues, tM, thresholds.beta_gpr_a, scan_step
    )
    model = RomModel(
        grid=s.grid,
        mean=filled.mean,
        basis=basis,
        mode_models=mode_models,
        thresholds=thresholds,
        t1=t1,
        tM=tM,
        scan_step=scan_step,
        window_all_fluid=always,
        horizon_pod=horizon_pod,
        horizon_gpr_a=horizon_a,
        mls_cfg=mls_cfg if mls_cfg is not None else (MlsConfig() if moving else None),
        boundary=s.boundary if moving else None,
        boundary_models=boundary_models,
        boundary_geometry=geometry if moving else None,
        horizon_gpr_gamma=horizon_gamma,
        field_name=s.field_name,
    )
    if radii is not None:
        model.node_radii = radii  # seeds the cached property
    return model


def _check_radius_masks(s: SnapshotSet, radii: np.ndarray) -> None:
    """Raise ValueError unless every snapshot's mask is ``radii >= R``, with
    R the snapshot's first boundary parameter."""
    wrong = (s.fluid != (radii >= s.boundary.values[:, :1])).any(axis=1)
    if wrong.any():
        i = int(np.argmax(wrong))
        raise ValueError(
            f"mask of snapshot {i + 1} (t = {s.times[i]:.6g}) is not the radius "
            f"rule: fluid where the node radius >= {s.boundary.names[0]} = "
            f"{s.boundary.values[i, 0]:.6g}"
        )


def forecast(m: RomModel, t_query: float, force: bool = False) -> RomForecast:
    """Reconstruct the field at ``t_query`` and correct newly exposed nodes.

    Queries beyond the combined horizon are refused unless ``force`` is set,
    in which case the result is flagged.
    """
    t_query = float(t_query)
    if not np.isfinite(t_query):
        raise ValueError(f"query time {t_query} is not finite")
    if t_query <= m.t1:
        raise ValueError(f"query time {t_query} not beyond data start {m.t1}")
    forced = False
    if t_query > m.t_star:
        if not force:
            raise HorizonExceededError(
                f"query time {t_query} exceeds forecast horizon t*={m.t_star:.6g}"
            )
        forced = True

    coeffs, sigmas, gamma = m.posterior(t_query)
    field_values = _pod.reconstruct(m.basis, m.mean, coeffs)
    sigma_w = energy_weighted(sigmas, m.basis.eigenvalues)
    eps_pod = float(np.sqrt(m.basis.tail_energy()))

    corrected_nodes = None
    boundary_values = None
    report = None
    fluid_now = None
    eps_mls = 0.0
    if gamma is not None:
        boundary_values = dict(zip(m.boundary.names, map(float, gamma)))
        fluid_now = m._fluid_mask(gamma)
        before = field_values
        field_values, report = correct_field(
            before,
            fluid_now & ~m.window_all_fluid,
            fluid_now & m.window_all_fluid,
            m.grid,
            m.mls_cfg if m.mls_cfg is not None else MlsConfig(),
            m.mls_cache,
        )
        corrected_nodes = report.corrected_nodes()
        # correct_field returns a new array, changed only at corrected nodes
        delta = field_values - before
        eps_mls = float(np.sqrt(inner_product(delta, delta, m.grid)))

    return RomForecast(
        t_query=t_query,
        field=field_values,
        sigma_weighted=sigma_w,
        eps_pod_tail=eps_pod,
        eps_mls=eps_mls,
        corrected_nodes=corrected_nodes,
        boundary_values=boundary_values,
        forced=forced,
        correction_report=report,
        fluid_mask=fluid_now,
    )


def relative_error(pred: np.ndarray, truth: np.ndarray, grid: SpatialGrid) -> float:
    """Grid-quadrature relative L2 error ||truth - pred|| / ||truth||."""
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    denom = inner_product(truth, truth, grid)
    if denom <= 0.0:
        raise ValueError("truth field has zero norm")
    diff = truth - pred
    return float(np.sqrt(inner_product(diff, diff, grid) / denom))


@dataclass(frozen=True)
class HandoffRecord:
    round_index: int
    t1: float
    tM: float
    t_star: float
    t_handoff: float
    binding: str


def adaptive_loop(
    solver: Callable[[np.ndarray | None, float, int], SnapshotSet],
    window: int,
    thresholds: Thresholds,
    t_target: float,
    t_start: float,
    state0: np.ndarray | None = None,
) -> tuple[list[RomForecast], list[HandoffRecord]]:
    """Alternate solver windows with ROM forecasts until the target time.

    Each round asks the solver for ``window`` snapshots from the current
    state, builds a ROM, and forecasts up to its horizon (or the target,
    whichever is earlier); the forecast becomes the next round's initial
    state.  A round whose horizon offers no extrapolation falls back to
    plain solver continuation from its last snapshot; two such rounds in a
    row abort the loop.  A target or start time that is not finite is
    refused before the solver runs.
    """
    for name, value in (("t_target", t_target), ("t_start", t_start)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    forecasts: list[RomForecast] = []
    log: list[HandoffRecord] = []
    t0 = float(t_start)
    state = state0
    stalls = 0
    round_index = 0
    while True:
        round_index += 1
        snaps = solver(state, t0, window)
        model = build(snaps, thresholds)
        if t_target <= model.tM:
            break
        t_star = model.t_star
        if t_star <= model.tM:
            stalls += 1
            if stalls >= 2:
                raise RuntimeError(
                    f"no forecast progress in two consecutive rounds "
                    f"(t* = tM = {model.tM:.6g}); aborting at round {round_index}"
                )
            state = snaps.fields[-1]
            t0 = model.tM
            continue
        stalls = 0
        t_hand = min(t_star, t_target)
        fc = forecast(model, t_hand)
        forecasts.append(fc)
        log.append(
            HandoffRecord(
                round_index=round_index,
                t1=model.t1,
                tM=model.tM,
                t_star=t_star,
                t_handoff=t_hand,
                binding=model.binding_component(),
            )
        )
        state = fc.field
        t0 = t_hand
        if t_hand >= t_target:
            break
    return forecasts, log


# ---------------------------------------------------------------------------
# serialization


# the keys of a GP file, and those that are scales and must be positive
_GP_KEYS = ("theta_f", "theta_l", "noise_var", "t_mean", "t_scale", "y_scale",
            "train_t", "train_y")
_GP_SCALES = ("theta_f", "theta_l", "t_scale", "y_scale")


def _finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _save_gp(m: GprModel, path: Path) -> None:
    """One GP as a JSON file that holds all ``GprModel`` needs to rebuild it."""
    write_json(path, {
        "theta_f": m.kernel.theta_f,
        "theta_l": m.kernel.theta_l,
        "noise_var": m.noise_var,
        "t_mean": m.t_mean,
        "t_scale": m.t_scale,
        "y_scale": m.y_scale,
        "train_t": m.train_t.tolist(),
        "train_y": m.train_y.tolist(),
    })


def _load_gp(path: Path) -> GprModel:
    """Read a GP file.  A missing key, a value that is not a finite number
    (a list of them for the training data) or a scale that is not positive
    is refused with the file and the key named, and a negative noise
    variance or training lists of unequal length with the file named."""
    p = _read_json(path)
    if not isinstance(p, dict):
        raise ValueError(f"{path}: a GP file must hold a JSON object")
    for key in _GP_KEYS:
        if key not in p:
            raise ValueError(f"{path}: missing key {key!r}")
        value = p[key]
        if key.startswith("train_"):
            if not (isinstance(value, list) and all(map(_finite_number, value))):
                raise ValueError(f"{path}: key {key!r} must be a list of finite numbers")
        elif not _finite_number(value):
            raise ValueError(f"{path}: key {key!r} must be a finite number, not {value!r}")
        elif key in _GP_SCALES and value <= 0:
            raise ValueError(f"{path}: key {key!r} must be > 0, not {value!r}")
    try:
        return GprModel(
            Kernel(p["theta_f"], p["theta_l"]),
            p["noise_var"],
            np.asarray(p["train_t"]),
            np.asarray(p["train_y"]),
            t_mean=p["t_mean"],
            t_scale=p["t_scale"],
            y_scale=p["y_scale"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_rom_model(m: RomModel, out_dir: str | Path) -> None:
    """Write the model as a directory; a callable geometry rule is refused,
    since a reloaded model could not find the exposed nodes."""
    if callable(m.boundary_geometry):
        raise ValueError(
            "a callable boundary geometry cannot be saved: the reloaded model "
            "could not find the exposed nodes"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pod").mkdir(exist_ok=True)
    write_matrix(out / "pod" / "eigenvalues.csv", m.basis.eigenvalues)
    write_matrix(out / "pod" / "modes.csv", m.basis.modes[: m.basis.retained])
    gdir = out / "gpr"  # perfbench/selftest.py edits train_y in gpr/mode_0.json
    gdir.mkdir(exist_ok=True)
    for k, mm in enumerate(m.mode_models):
        _save_gp(mm, gdir / f"mode_{k}.json")
    write_matrix(out / "mean.csv", m.mean)
    _write_grid(out / "grid.csv", m.grid)
    write_matrix(out / "window_all_fluid.csv", m.window_all_fluid.astype(int), fmt="%d")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "field_name": m.field_name,
        "t1": m.t1,
        "tM": m.tM,
        "scan_step": m.scan_step,
        **asdict(m.thresholds),
        "t_star_pod": m.horizon_pod.t_star,
        "t_star_gpr_a": m.horizon_gpr_a.t_star,
        "gpr_a_at_data_end": m.horizon_gpr_a.at_data_end,
        "gpr_a_capped": m.horizon_gpr_a.capped,
        "sigma_at_t_star": m.horizon_gpr_a.sigma_weighted,
        "boundary_geometry": (
            m.boundary_geometry if isinstance(m.boundary_geometry, str) else None
        ),
    }
    if m.mls_cfg is not None:
        meta["mls"] = {**asdict(m.mls_cfg), "weight": "wendland_c2"}
    if m.boundary_models is not None:
        bdir = out / "boundary"
        bdir.mkdir(exist_ok=True)
        for j, bm in enumerate(m.boundary_models):
            _save_gp(bm, bdir / f"param_{j}.json")
        meta["boundary_names"] = m.boundary.names
        meta["t_star_gpr_gamma"] = m.horizon_gpr_gamma.t_star
        meta["t_star_gpr_gamma_per_param"] = list(m.horizon_gpr_gamma.per_param)
        meta["gpr_gamma_at_data_end"] = m.horizon_gpr_gamma.at_data_end
        meta["gpr_gamma_capped"] = m.horizon_gpr_gamma.capped
    write_json(out / "model.json", meta)


def _from_fields(cls, meta: dict):
    """``cls`` built from the keys of ``meta`` that name its fields."""
    return cls(**{f.name: meta[f.name] for f in fields(cls)})


def load_rom_model(in_dir: str | Path) -> RomModel:
    """Read a directory that ``save_rom_model`` wrote.  A version-1 directory
    also holds copies of stored values, which are not read: the mode
    coefficients and the boundary track are the GPs' training outputs."""
    src = Path(in_dir)
    meta = _read_json(src / "model.json")
    version = meta.get("schema_version", 1)  # files from before versioning
    if version not in (1, SCHEMA_VERSION):
        raise ValueError(
            f"{src / 'model.json'}: unknown schema_version {version!r}; "
            f"this mbrom reads versions 1 and {SCHEMA_VERSION}"
        )
    geometry = meta.get("boundary_geometry")
    if "boundary_names" in meta and geometry != "radius":
        raise ValueError(
            f"{src / 'model.json'}: a moving-boundary model needs the 'radius' "
            f"boundary geometry rule, and it has {geometry!r}: a forecast "
            "could not find the exposed nodes"
        )
    names = meta.get("boundary_names")
    modes = _read_matrix(src / "pod" / "modes.csv")
    eigenvalues = _read_matrix(src / "pod" / "eigenvalues.csv").ravel()
    grid = _read_grid(src / "grid.csv")
    mean = _read_matrix(src / "mean.csv").ravel()
    window_all_fluid = _read_matrix(src / "window_all_fluid.csv").ravel() > 0.5
    R = modes.shape[0]
    gp_files = [f"gpr/mode_{k}.json" for k in range(R)]
    gp_files += [f"boundary/param_{j}.json" for j in range(len(names or ()))]
    gps = [_load_gp(src / f) for f in gp_files]
    # pairs of (file, size, unit) whose sizes must agree
    nodes = ("grid.csv", grid.n_nodes, "nodes")
    spectrum = ("pod/eigenvalues.csv", eigenvalues.size, "entries")
    pairs = [
        (("mean.csv", mean.size, "entries"), nodes),
        (("window_all_fluid.csv", window_all_fluid.size, "entries"), nodes),
        (("pod/modes.csv", modes.shape[1], "columns"), nodes),
    ]
    for f, gp in zip(gp_files, gps):
        pairs.append((spectrum, (f, gp.train_t.size, "training times")))
    for (fa, na, ua), (fb, nb, ub) in pairs:
        if na != nb:
            raise ValueError(f"{src}: {fa} holds {na} {ua} and {fb} {nb} {ub}")
    # the mode coefficients, then the boundary track
    outputs = np.column_stack([gp.train_y for gp in gps])
    boundary = None
    horizon_gamma = None
    if names is not None:
        boundary = BoundaryTrack(names, outputs[:, R:])
        horizon_gamma = BoundaryHorizon(
            t_star=meta["t_star_gpr_gamma"],
            per_param=tuple(meta["t_star_gpr_gamma_per_param"]),
            at_data_end=meta.get("gpr_gamma_at_data_end", False),
            capped=meta.get("gpr_gamma_capped", False),
        )
    mls_cfg = None
    if "mls" in meta:
        weight = meta["mls"].get("weight", "wendland_c2")
        if weight != "wendland_c2":
            raise ValueError(
                f"{src / 'model.json'}: unknown MLS weight {weight!r}; "
                "the one known weight is 'wendland_c2'"
            )
        mls_cfg = _from_fields(MlsConfig, meta["mls"])
    return RomModel(
        grid=grid,
        mean=mean,
        basis=PodBasis(eigenvalues, modes, R, outputs[:, :R]),
        mode_models=gps[:R],
        thresholds=_from_fields(Thresholds, meta),
        t1=meta["t1"],
        tM=meta["tM"],
        scan_step=meta["scan_step"],
        window_all_fluid=window_all_fluid,
        horizon_pod=PodHorizon(t_star=meta["t_star_pod"]),
        horizon_gpr_a=GprHorizon(
            t_star=meta["t_star_gpr_a"],
            sigma_weighted=meta["sigma_at_t_star"],
            at_data_end=meta.get("gpr_a_at_data_end", False),
            capped=meta.get("gpr_a_capped", False),
        ),
        mls_cfg=mls_cfg,
        boundary=boundary,
        boundary_models=gps[R:] if names is not None else None,
        boundary_geometry=geometry,
        horizon_gpr_gamma=horizon_gamma,
        field_name=meta.get("field_name", "u"),
    )
