"""Builds and drives the reduced-order model.

A RomModel packages the truncated basis, one GP per mode coefficient and,
for moving-boundary data, one GP per boundary parameter.  Forecasts combine
the three horizon criteria, reconstruct the field at the query time, and
apply the moving least squares correction to nodes whose snapshot data was
fabricated by the occluded fill.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import pod as _pod
from .data import (
    BoundaryTrack,
    SnapshotSet,
    SpatialGrid,
    _read_matrix,
    fill_occluded,
    inner_product,
    write_matrix,
)
from .gpr import (
    BoundaryHorizon,
    GprHorizon,
    GprModel,
    GprStack,
    GprTolerances,
    energy_weighted,
    gpr_horizon_boundary,
    gpr_horizon_modes,
    load_gpr_model,
    save_gpr_model,
    train,  # noqa: F401  perfbench/spans.py wraps mbrom.rom.train by name
    train_many,
)
from .mls import CorrectionReport, MlsConfig, StencilCache, correct_field
from .pod import PodBasis, PodHorizon, PodThresholds

__all__ = [
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


SCHEMA_VERSION = 1  # layout of the directory save_rom_model writes


class HorizonExceededError(RuntimeError):
    """Query time lies beyond the certified forecast horizon."""


def _node_radii(grid: SpatialGrid) -> np.ndarray:
    return np.sqrt(np.sum(grid.coords**2, axis=1))


@dataclass
class RomModel:
    grid: SpatialGrid
    mean: np.ndarray
    basis: PodBasis
    mode_models: list[GprModel]
    thresholds: PodThresholds
    tolerances: GprTolerances
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

    @property
    def t_star(self) -> float:
        parts = [self.horizon_pod.t_star, self.horizon_gpr_a.t_star]
        if self.horizon_gpr_gamma is not None:
            parts.append(self.horizon_gpr_gamma.t_star)
        return min(parts)

    def binding_component(self) -> str:
        stars = {
            "pod": self.horizon_pod.t_star,
            "gpr_a": self.horizon_gpr_a.t_star,
        }
        if self.horizon_gpr_gamma is not None:
            stars["gpr_gamma"] = self.horizon_gpr_gamma.t_star
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
        if gamma is None or self.boundary_geometry is None:
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
    t_star_pod: float
    t_star_gpr_a: float
    t_star: float
    sigma_weighted: float
    eps_pod_tail: float
    eps_mls: float
    t_star_gpr_gamma: float | None = None
    corrected_nodes: np.ndarray | None = None
    boundary_values: dict[str, float] | None = None
    forced: bool = False
    correction_report: CorrectionReport | None = None
    fluid_mask: np.ndarray | None = None


def build(
    s: SnapshotSet,
    thresholds: PodThresholds = PodThresholds(),
    tolerances: GprTolerances = GprTolerances(),
    mls_cfg: MlsConfig | None = None,
    fill_order: int = 0,
    boundary_geometry: str | Callable | None = None,
    seed: int = 0,
) -> RomModel:
    """Construct the ROM: occluded fill, POD, then the GPs and their horizons.

    Moving-boundary datasets must carry a boundary track.  The occluded fill
    completes their snapshot data so POD runs over the whole grid; the
    boundary-parameter GPs and the mode GPs are then trained in one call,
    and the boundary GPs bound the forecast through their own horizon.
    Under the ``"radius"`` geometry every snapshot's mask must be the rule's
    (fluid where the node radius is at least the first boundary parameter).
    ``seed`` is accepted and ignored: training is deterministic.  It stays
    because the benchmark (``perfbench/workloads.py``) passes ``seed=0``.
    """
    moving = not s.all_fluid()
    t1, tM = float(s.times[0]), float(s.times[-1])
    scan_step = (tM - t1) / s.n_snapshots

    geometry = boundary_geometry
    radii = None
    if moving:
        if s.boundary is None:
            raise ValueError("moving-boundary snapshots need a boundary track")
        if geometry is None and s.boundary.n_params == 1:
            geometry = "radius"
        if geometry is None:
            warnings.warn(
                "no boundary geometry rule; forecasts skip the exposed-node "
                "correction",
                stacklevel=2,
            )
        if geometry == "radius":
            radii = _node_radii(s.grid)
            _check_radius_masks(s, radii)
        filled = fill_occluded(s, order=fill_order)
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
        outputs = np.column_stack([s.boundary.values, outputs])
    models = train_many(filled.times, outputs)
    split = len(models) - basis.retained  # the boundary GPs come first
    mode_models = models[split:]
    boundary_models = models[:split] if moving else None
    horizon_gamma = None
    if moving:
        horizon_gamma = gpr_horizon_boundary(
            boundary_models, tM, tolerances.beta_gpr_gamma, scan_step
        )
    horizon_a = gpr_horizon_modes(
        mode_models, basis.eigenvalues, tM, tolerances.beta_gpr_a, scan_step
    )
    model = RomModel(
        grid=s.grid,
        mean=filled.mean,
        basis=basis,
        mode_models=mode_models,
        thresholds=thresholds,
        tolerances=tolerances,
        t1=t1,
        tM=tM,
        scan_step=scan_step,
        window_all_fluid=s.fluid_throughout(),
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
    fluid = np.array([m.fluid for m in s.masks])
    wrong = (fluid != (radii >= s.boundary.values[:, :1])).any(axis=1)
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
        if fluid_now is not None:
            exposed = fluid_now & ~m.window_all_fluid
            history = fluid_now & m.window_all_fluid
            before = field_values.copy()
            field_values, report = correct_field(
                field_values,
                exposed,
                history,
                m.grid,
                m.mls_cfg if m.mls_cfg is not None else MlsConfig(),
                m.mls_cache,
            )
            corrected_nodes = report.corrected_nodes()
            if corrected_nodes.size:
                delta = np.zeros_like(field_values)
                delta[corrected_nodes] = (field_values - before)[corrected_nodes]
                eps_mls = float(np.sqrt(inner_product(delta, delta, m.grid)))

    return RomForecast(
        t_query=t_query,
        field=field_values,
        t_star_pod=m.horizon_pod.t_star,
        t_star_gpr_a=m.horizon_gpr_a.t_star,
        t_star_gpr_gamma=(
            m.horizon_gpr_gamma.t_star if m.horizon_gpr_gamma is not None else None
        ),
        t_star=m.t_star,
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
    thresholds: PodThresholds,
    tolerances: GprTolerances,
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
    row abort the loop.
    """
    forecasts: list[RomForecast] = []
    log: list[HandoffRecord] = []
    t0 = float(t_start)
    state = state0
    stalls = 0
    round_index = 0
    while True:
        round_index += 1
        snaps = solver(state, t0, window)
        model = build(snaps, thresholds, tolerances)
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


def save_rom_model(m: RomModel, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _pod.save_pod_basis(m.basis, out / "pod")
    gdir = out / "gpr"  # perfbench/selftest.py edits train_y in gpr/mode_0.json
    gdir.mkdir(exist_ok=True)
    for k, mm in enumerate(m.mode_models):
        save_gpr_model(mm, gdir / f"mode_{k}.json")
    write_matrix(out / "mean.csv", m.mean)
    write_matrix(out / "grid.csv", np.column_stack([m.grid.coords, m.grid.quad_weights]))
    write_matrix(out / "window_all_fluid.csv", m.window_all_fluid.astype(int), fmt="%d")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "field_name": m.field_name,
        "t1": m.t1,
        "tM": m.tM,
        "scan_step": m.scan_step,
        "alpha_pod": m.thresholds.alpha_pod,
        "beta_pod": m.thresholds.beta_pod,
        "beta_gpr_a": m.tolerances.beta_gpr_a,
        "beta_gpr_gamma": m.tolerances.beta_gpr_gamma,
        "t_star_pod": m.horizon_pod.t_star,
        "pod_unbounded": m.horizon_pod.unbounded,
        "t_star_gpr_a": m.horizon_gpr_a.t_star,
        "gpr_a_at_data_end": m.horizon_gpr_a.at_data_end,
        "gpr_a_capped": m.horizon_gpr_a.capped,
        "sigma_at_t_star": m.horizon_gpr_a.sigma_weighted,
        "t_star": m.t_star,
        "boundary_geometry": (
            m.boundary_geometry if isinstance(m.boundary_geometry, str) else None
        ),
    }
    if m.mls_cfg is not None:
        meta["mls"] = {
            "order": m.mls_cfg.order,
            "kernel_len": m.mls_cfg.kernel_len,
            "min_neighbor_factor": m.mls_cfg.min_neighbor_factor,
            "max_growths": m.mls_cfg.max_growths,
            "weight": "wendland_c2",
        }
    if m.boundary_models is not None:
        bdir = out / "boundary"
        bdir.mkdir(exist_ok=True)
        for j, bm in enumerate(m.boundary_models):
            save_gpr_model(bm, bdir / f"param_{j}.json")
        meta["boundary_names"] = m.boundary.names
        meta["t_star_gpr_gamma"] = m.horizon_gpr_gamma.t_star
        meta["t_star_gpr_gamma_per_param"] = list(m.horizon_gpr_gamma.per_param)
        meta["gpr_gamma_at_data_end"] = m.horizon_gpr_gamma.at_data_end
        meta["gpr_gamma_capped"] = m.horizon_gpr_gamma.capped
        with open(out / "boundary_track.json", "w") as fh:
            json.dump(
                {"names": m.boundary.names, "values": m.boundary.values.tolist()},
                fh,
                sort_keys=True,
            )
            fh.write("\n")
        if callable(m.boundary_geometry):
            warnings.warn(
                "callable boundary geometry is not serializable; reloaded "
                "model will skip the correction step",
                stacklevel=2,
            )
    with open(out / "model.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_rom_model(in_dir: str | Path) -> RomModel:
    src = Path(in_dir)
    with open(src / "model.json") as fh:
        meta = json.load(fh)
    version = meta.get("schema_version", 1)  # files from before versioning
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{src / 'model.json'}: unknown schema_version {version!r}; "
            f"this mbrom reads version {SCHEMA_VERSION}"
        )
    basis = _pod.load_pod_basis(src / "pod")
    mode_models = [
        load_gpr_model(src / "gpr" / f"mode_{k}.json") for k in range(basis.retained)
    ]
    gmat = _read_matrix(src / "grid.csv")
    dim = gmat.shape[1] - 1
    grid = SpatialGrid(dim=dim, coords=gmat[:, :dim], quad_weights=gmat[:, dim])
    mean = _read_matrix(src / "mean.csv").ravel()
    window_all_fluid = _read_matrix(src / "window_all_fluid.csv").ravel() > 0.5
    boundary = None
    boundary_models = None
    horizon_gamma = None
    if "boundary_names" in meta:
        with open(src / "boundary_track.json") as fh:
            bt = json.load(fh)
        boundary = BoundaryTrack(names=bt["names"], values=np.asarray(bt["values"]))
        boundary_models = [
            load_gpr_model(src / "boundary" / f"param_{j}.json")
            for j in range(len(bt["names"]))
        ]
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
        mls_cfg = MlsConfig(
            order=meta["mls"]["order"],
            kernel_len=meta["mls"]["kernel_len"],
            min_neighbor_factor=meta["mls"]["min_neighbor_factor"],
            max_growths=meta["mls"]["max_growths"],
        )
    return RomModel(
        grid=grid,
        mean=mean,
        basis=basis,
        mode_models=mode_models,
        thresholds=PodThresholds(meta["alpha_pod"], meta["beta_pod"]),
        tolerances=GprTolerances(meta["beta_gpr_a"], meta["beta_gpr_gamma"]),
        t1=meta["t1"],
        tM=meta["tM"],
        scan_step=meta["scan_step"],
        window_all_fluid=window_all_fluid,
        horizon_pod=PodHorizon(
            t_star=meta["t_star_pod"], unbounded=meta["pod_unbounded"]
        ),
        horizon_gpr_a=GprHorizon(
            t_star=meta["t_star_gpr_a"],
            sigma_weighted=meta["sigma_at_t_star"],
            at_data_end=meta.get("gpr_a_at_data_end", False),
            capped=meta.get("gpr_a_capped", False),
        ),
        mls_cfg=mls_cfg,
        boundary=boundary,
        boundary_models=boundary_models,
        boundary_geometry=meta.get("boundary_geometry"),
        horizon_gpr_gamma=horizon_gamma,
        field_name=meta.get("field_name", "u"),
    )
