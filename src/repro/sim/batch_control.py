"""Vectorized DTM backend: B controllers advanced as ``(B,)`` array ops.

PR 2 vectorized the plant and sensing layers but left control scalar, so
at ``dt = 0.1 s`` the per-server :class:`~repro.core.global_controller.
GlobalController.step` loop dominated vectorized wall time.  This module
advances the *common* controller composition for all B servers at once:

* :class:`~repro.core.fan_controller.AdaptivePIDFanController` (gain
  schedule + Eqn 10 quantization guard + slew limit),
* :class:`~repro.core.cpu_capper.DeadzoneCpuCapper` (or no capper),
* :class:`~repro.core.rules.RuleBasedCoordinator` (Table II), the
  :class:`~repro.core.ecoord.EnergyAwareCoordinator` baseline [6], or
  the uncoordinated baseline,
* the optional :class:`~repro.core.setpoint.AdaptiveSetpoint` (A-Tref),
  and
* the optional :class:`~repro.core.single_step.SingleStepFanScaling`
  override (Section V-C), carried as int8 phase codes with masked
  transitions.

Equivalence with the scalar objects is *structural*: every branch of the
scalar decision sequence is replayed element-wise with the same
floating-point operations in the same order, so results agree
bit-for-bit.  Table II decisions are carried as int8 action codes
(:data:`ACTION_CODES`), deadzone/guard hold behaviour as boolean masks,
and the per-server PID/filter state as ``(B,)`` arrays lifted out of the
scalar objects at construction and written back by :meth:`
BatchGlobalController.sync_back`, so a scalar run can resume from a
vectorized one with identical trajectories.

:meth:`BatchGlobalController.step_due` advances any due set - the whole
batch on a shared CPU period, a strict subset when periods are mixed or
some servers are in failsafe - through one body, skipping the op group
of every optional layer no due server carries.

With SSfan and E-coord on the array lane, every Table III scheme runs
vectorized.  Compositions the backend cannot represent - custom
controller/fan/coordinator subclasses, non-stock models - are reported
by :func:`batch_controller_unsupported_reason`; the
:class:`~repro.sim.batch.BatchStepper` then drives those servers'
scalar objects individually while the rest of the rack stays vectorized.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.base import ControlState
from repro.core.cpu_capper import DeadzoneCpuCapper
from repro.core.ecoord import EnergyAwareCoordinator
from repro.core.fan_controller import AdaptivePIDFanController
from repro.core.gain_schedule import GainSchedule
from repro.core.global_controller import GlobalController
from repro.core.pid import PIDController, PIDGains
from repro.core.quantization import QuantizationGuard
from repro.core.rules import CoordinationAction, RuleBasedCoordinator
from repro.core.setpoint import AdaptiveSetpoint
from repro.core.single_step import SingleStepFanScaling, SingleStepPhase
from repro.core.uncoordinated import UncoordinatedCoordinator
from repro.errors import SimulationError
from repro.thermal.steady_state import SteadyStateServerModel
from repro.workload.filters import MovingAverageFilter
from repro.workload.performance import DeadlineTracker

#: Table II actions as int codes (the order of
#: :class:`~repro.core.rules.CoordinationAction` members).
ACTION_CODES: dict[CoordinationAction, int] = {
    action: code for code, action in enumerate(CoordinationAction)
}

#: Inverse of :data:`ACTION_CODES`.
CODE_TO_ACTION: tuple[CoordinationAction, ...] = tuple(CoordinationAction)

_NONE = ACTION_CODES[CoordinationAction.NONE]
_FAN_UP = ACTION_CODES[CoordinationAction.FAN_UP]
_FAN_DOWN = ACTION_CODES[CoordinationAction.FAN_DOWN]
_CAP_UP = ACTION_CODES[CoordinationAction.CAP_UP]
_CAP_DOWN = ACTION_CODES[CoordinationAction.CAP_DOWN]

#: classify() tolerance (must match repro.core.rules.classify).
_SIGN_TOL = 1e-9

#: SSfan phases as int8 codes (order of SingleStepPhase members).
SS_PHASE_CODES: dict[SingleStepPhase, int] = {
    phase: code for code, phase in enumerate(SingleStepPhase)
}

#: Inverse of :data:`SS_PHASE_CODES`.
CODE_TO_SS_PHASE: tuple[SingleStepPhase, ...] = tuple(SingleStepPhase)

_SS_INACTIVE = SS_PHASE_CODES[SingleStepPhase.INACTIVE]
_SS_BOOSTED = SS_PHASE_CODES[SingleStepPhase.BOOSTED]
_SS_REFRACTORY = SS_PHASE_CODES[SingleStepPhase.REFRACTORY]

#: Table II as a lookup on the (fan, cap) proposal signs.  Sign -1
#: indexes the last row/column, so the signs index it directly.
_TABLE_II = np.array(
    [
        # cap sign: 0      +1        -1
        [_NONE, _CAP_UP, _CAP_DOWN],  # fan sign 0
        [_FAN_UP, _FAN_UP, _FAN_UP],  # fan sign +1
        [_FAN_DOWN, _CAP_UP, _FAN_DOWN],  # fan sign -1
    ],
    dtype=np.int8,
)

#: Whether an action code moves the CPU cap / the fan.
_TAKES_CAP = np.isin(np.arange(len(CODE_TO_ACTION)), (_CAP_UP, _CAP_DOWN))
_TAKES_FAN = np.isin(np.arange(len(CODE_TO_ACTION)), (_FAN_UP, _FAN_DOWN))

#: :meth:`_Rows.within` result for "every due row": a basic index, so
#: selecting with it takes views instead of gathers.
_EVERY = slice(None)


def _classify(delta: np.ndarray) -> np.ndarray:
    """Element-wise :func:`repro.core.rules.classify`: int8 -1, 0 or +1."""
    return np.subtract(delta > _SIGN_TOL, delta < -_SIGN_TOL, dtype=np.int8)


def _follow(
    coord: np.ndarray | slice | None,
    takes: np.ndarray,
    action: np.ndarray | None,
    default: np.ndarray | bool,
) -> np.ndarray | bool:
    """Which due rows move a knob.

    Action-followers (the ``coord`` rows) move it when their action does
    (``takes[action]``); the other rows follow ``default``.
    """
    if coord is None:
        return default
    if coord is _EVERY:
        return takes[action]
    return np.where(coord, takes[action], default)


def batch_controller_unsupported_reason(controller: Any) -> str | None:
    """Why this controller cannot run vectorized (None = it can).

    The batch controller replays the exact scalar decision sequence, so
    it only accepts the stock library classes whose branches it mirrors
    (every Table III scheme, SSfan and E-coord included).  Anything else
    - subclasses, non-stock models - falls back to stepping the scalar
    object (per server, inside an otherwise batched run).
    """
    if type(controller) is not GlobalController:
        return f"controller {type(controller).__name__} is not the stock GlobalController"
    fan = controller.fan_controller
    if type(fan) is not AdaptivePIDFanController:
        return f"fan controller {type(fan).__name__} is not the stock AdaptivePIDFanController"
    if type(fan.schedule) is not GainSchedule:
        return f"gain schedule {type(fan.schedule).__name__} is not the stock GainSchedule"
    if type(fan.pid) is not PIDController:
        return f"PID {type(fan.pid).__name__} is not the stock PIDController"
    guard = fan.quantization_guard
    if guard is not None and type(guard) is not QuantizationGuard:
        return f"guard {type(guard).__name__} is not the stock QuantizationGuard"
    capper = controller.cpu_capper
    if capper is not None and type(capper) is not DeadzoneCpuCapper:
        return f"capper {type(capper).__name__} is not the stock DeadzoneCpuCapper"
    coordinator = controller.coordinator
    if type(coordinator) is EnergyAwareCoordinator:
        if type(coordinator.model) is not SteadyStateServerModel:
            return (
                f"E-coord model {type(coordinator.model).__name__} is not "
                "the stock SteadyStateServerModel"
            )
    elif type(coordinator) not in (RuleBasedCoordinator, UncoordinatedCoordinator):
        return (
            f"coordinator {type(coordinator).__name__} is not rule-based, "
            "energy-aware, or uncoordinated"
        )
    setpoint = controller.setpoint
    if setpoint is not None:
        if type(setpoint) is not AdaptiveSetpoint:
            return f"setpoint {type(setpoint).__name__} is not the stock AdaptiveSetpoint"
        if type(setpoint.prediction_filter) is not MovingAverageFilter:
            return (
                f"setpoint filter {type(setpoint.prediction_filter).__name__} "
                "is not the stock MovingAverageFilter"
            )
    single_step = controller.single_step
    if single_step is not None:
        if type(single_step) is not SingleStepFanScaling:
            return (
                f"single-step override {type(single_step).__name__} is not "
                "the stock SingleStepFanScaling"
            )
        if type(single_step.model) is not SteadyStateServerModel:
            return (
                f"SSfan model {type(single_step.model).__name__} is not "
                "the stock SteadyStateServerModel"
            )
    return None


class _Rows:
    """The batch rows that carry one optional DTM layer.

    :meth:`within` maps a due set onto the member rows, so each layer's
    op group is skipped when no due row needs it and does no mask work
    when every row of the batch is a member.
    """

    __slots__ = ("_member", "_every", "_none")

    def __init__(self, member: np.ndarray) -> None:
        self._member = member
        self._every = bool(member.all())
        self._none = not member.any()

    def within(self, idx: np.ndarray) -> np.ndarray | slice | None:
        """Member positions of the due set ``idx``.

        ``None`` when no due row is a member, :data:`_EVERY` when every
        row of the batch is one, else a boolean mask aligned with ``idx``.
        """
        if self._every:
            return _EVERY
        if self._none:
            return None
        mask = self._member[idx]
        return mask if mask.any() else None


class BatchTrackerBank:
    """Deadline accounting for B servers as array accumulators.

    Mirrors :class:`~repro.workload.performance.DeadlineTracker.record`
    element-wise (same max/compare/add sequence) and restores the scalar
    tracker objects afterwards, sliding window included.  Each server's
    window is a ring indexed by period number: the gap of period ``p``
    lands in slot ``p % window``, so the period count doubles as the
    ring's head.

    With ``track_recent=True`` (needed when any vectorized controller
    carries SSfan) the bank additionally maintains an *append-ordered*
    gap buffer so :meth:`recent_degradation` can replay the scalar
    tracker's left-to-right ``sum(recent) / len(recent)`` exactly:
    NumPy's axis reductions use pairwise accumulation, which rounds
    differently, so the mean is instead built from sequential per-column
    adds over a right-aligned shift buffer.
    """

    def __init__(
        self, trackers: Sequence[DeadlineTracker], track_recent: bool = False
    ) -> None:
        n = len(trackers)
        self._trackers = list(trackers)
        self._tol = np.array([t.tolerance for t in trackers])
        self._window = np.array([t.window for t in trackers], dtype=np.int64)
        w_max = int(self._window.max()) if n else 1
        self._ring = np.zeros((n, w_max))
        self._periods = np.zeros(n, dtype=np.int64)
        # Period number of the oldest gap restored from the tracker: the
        # window holds min(periods - first, window) gaps.
        self._first = np.zeros(n, dtype=np.int64)
        self._violations = np.zeros(n, dtype=np.int64)
        self._lost = np.zeros(n)
        self._demanded = np.zeros(n)
        self._track_recent = track_recent
        if track_recent:
            # Right-aligned, newest in the last column.  Columns left of
            # a server's valid suffix are kept at exactly 0.0 so the
            # sequential sum below adds identity zeros before reaching
            # the window (x + 0.0 == x for the nonnegative gaps).
            self._gaps = np.zeros((n, w_max))
            # Servers with a window narrower than the buffer evict into
            # this column on every shift once their window is full.
            evict_col = w_max - self._window - 1
            self._evictable = _Rows(evict_col >= 0)
            self._evict_col = np.maximum(evict_col, 0)
        for i, tracker in enumerate(trackers):
            summary = tracker.summary
            self._periods[i] = summary.periods
            self._violations[i] = summary.violations
            self._lost[i] = summary.lost_utilization
            self._demanded[i] = summary.demanded_utilization
            gaps = tracker.recent_gaps
            self._first[i] = summary.periods - len(gaps)
            if gaps:
                slots = (self._first[i] + np.arange(len(gaps))) % self._window[i]
                self._ring[i, slots] = gaps
                if track_recent:
                    self._gaps[i, w_max - len(gaps) :] = gaps

    def record(
        self, idx: np.ndarray, demanded: np.ndarray, applied: np.ndarray
    ) -> None:
        """One control period for the servers in ``idx``."""
        gap = np.maximum(0.0, demanded - applied)
        periods = self._periods[idx]
        self._ring[idx, periods % self._window[idx]] = gap
        self._periods[idx] = periods + 1
        self._violations[idx] += gap > self._tol[idx]
        self._lost[idx] += gap
        self._demanded[idx] += demanded
        if self._track_recent:
            gaps = self._gaps
            gaps[idx, :-1] = gaps[idx, 1:]
            gaps[idx, -1] = gap
            evict = self._evictable.within(idx)
            if evict is not None:
                rows = idx[evict]
                gaps[rows, self._evict_col[rows]] = 0.0

    def recent_degradation(self, idx: np.ndarray) -> np.ndarray:
        """Mean recent gap of the servers in ``idx``, bit-identical to the
        scalar mean.

        Requires ``track_recent=True``.  The sum is built left-to-right
        over the shift buffer's columns - the same association order as
        ``sum(self._recent)`` on the scalar tracker - with the leading
        zero columns acting as exact additive identities (an empty
        window sums to 0.0, and 0.0 / 1 is the scalar's empty mean).
        """
        gaps = self._gaps[idx]
        acc = np.zeros(idx.size)
        for j in range(gaps.shape[1]):
            acc = acc + gaps[:, j]
        count = np.minimum(
            self._periods[idx] - self._first[idx], self._window[idx]
        )
        return acc / np.maximum(count, 1)

    def sync_back(self) -> None:
        """Restore every tracker object to the accumulated state."""
        for i, tracker in enumerate(self._trackers):
            periods = int(self._periods[i])
            window = int(self._window[i])
            count = min(periods - int(self._first[i]), window)
            order = (periods - count + np.arange(count)) % window
            tracker.restore(
                periods=periods,
                violations=int(self._violations[i]),
                lost_utilization=float(self._lost[i]),
                demanded_utilization=float(self._demanded[i]),
                recent_gaps=tuple(float(g) for g in self._ring[i, order]),
            )


class BatchGlobalController:
    """B stock DTM stacks advanced together at CPU-period boundaries.

    Construction lifts coefficients and mutable state out of the scalar
    objects; :meth:`step_due` advances any due subset;
    :meth:`sync_back` writes the final state into the objects so mixed
    vectorized/scalar workflows keep working on the same controllers.

    Every controller must pass
    :func:`batch_controller_unsupported_reason` - the caller is expected
    to have partitioned unsupported ones onto the scalar path already.
    """

    def __init__(self, controllers: Sequence[GlobalController]) -> None:
        n = len(controllers)
        if n == 0:
            raise SimulationError("batch controller needs at least one server")
        for i, controller in enumerate(controllers):
            reason = batch_controller_unsupported_reason(controller)
            if reason is not None:
                raise SimulationError(
                    f"server {i}: controller cannot batch: {reason}"
                )
        self._n = n
        self._controllers = list(controllers)
        fans = [c.fan_controller for c in controllers]
        pids = [fan.pid for fan in fans]

        # --- applied knob state (GlobalController._state) ---
        self.fan_speed_rpm = np.array([c.state.fan_speed_rpm for c in controllers])
        self.cpu_cap = np.array([c.state.cpu_cap for c in controllers])
        self.t_ref_c = np.array([c.t_ref_c for c in controllers])

        # --- fan decision schedule ---
        self._next_fan = np.array([c.next_fan_decision_s for c in controllers])
        self._fan_interval = np.array(
            [c.control.fan_interval_s for c in controllers]
        )

        # --- fan controller state/coefficients ---
        self._applied = np.array([fan.applied_speed_rpm for fan in fans])
        self._region_index = np.array(
            [fan.region_index for fan in fans], dtype=np.int64
        )
        self._v_min = np.array([fan.fan_limits_rpm[0] for fan in fans])
        self._v_max = np.array([fan.fan_limits_rpm[1] for fan in fans])
        self._slew = np.array(
            [
                np.inf if fan.slew_limit_rpm is None else fan.slew_limit_rpm
                for fan in fans
            ]
        )

        # Gain schedules, padded to the widest region count (+inf speeds
        # never win a <= comparison; padded gains are never gathered).
        n_regions = [len(fan.schedule) for fan in fans]
        r_max = max(n_regions)
        self._n_regions = np.array(n_regions, dtype=np.int64)
        self._region_speeds = np.full((n, r_max), np.inf)
        self._region_kp = np.zeros((n, r_max))
        self._region_ki = np.zeros((n, r_max))
        self._region_kd = np.zeros((n, r_max))
        for i, fan in enumerate(fans):
            for r, region in enumerate(fan.schedule.regions):
                self._region_speeds[i, r] = region.ref_speed_rpm
                self._region_kp[i, r] = region.gains.kp
                self._region_ki[i, r] = region.gains.ki
                self._region_kd[i, r] = region.gains.kd

        # --- quantization guard (Eqn 10) ---
        guards = [fan.quantization_guard for fan in fans]
        self._has_guard = np.array([g is not None for g in guards])
        self._g_step = np.array([0.0 if g is None else g.step_c for g in guards])
        self._g_threshold = np.array(
            [0.0 if g is None else g.threshold_c for g in guards]
        )
        self._hold_count = np.array(
            [0 if g is None else g.hold_count for g in guards], dtype=np.int64
        )

        # --- PID state ---
        self._pid_dt = np.array([pid.sample_time_s for pid in pids])
        self._pid_setpoint = np.array([pid.setpoint for pid in pids])
        self._pid_offset = np.array([pid.output_offset for pid in pids])
        self._pid_integral = np.array([pid.integral for pid in pids])
        self._pid_kp = np.array([pid.gains.kp for pid in pids])
        self._pid_ki = np.array([pid.gains.ki for pid in pids])
        self._pid_kd = np.array([pid.gains.kd for pid in pids])
        self._pid_has_prev = np.array([pid.prev_error is not None for pid in pids])
        self._pid_prev = np.array(
            [0.0 if pid.prev_error is None else pid.prev_error for pid in pids]
        )
        self._pid_has_out = np.array([pid.last_output is not None for pid in pids])
        self._pid_last_out = np.array(
            [0.0 if pid.last_output is None else pid.last_output for pid in pids]
        )

        # --- deadzone capper ---
        cappers = [c.cpu_capper for c in controllers]
        self._has_capper = np.array([cap is not None for cap in cappers])
        self._cap_low = np.array(
            [-np.inf if cap is None else cap.deadzone_c[0] for cap in cappers]
        )
        self._cap_high = np.array(
            [np.inf if cap is None else cap.deadzone_c[1] for cap in cappers]
        )
        self._cap_step = np.array(
            [0.0 if cap is None else cap.step for cap in cappers]
        )
        self._cap_min = np.array(
            [0.0 if cap is None else cap.cap_range[0] for cap in cappers]
        )
        self._cap_max = np.array(
            [1.0 if cap is None else cap.cap_range[1] for cap in cappers]
        )

        # --- coordinator (Table II codes / E-coord / uncoordinated) ---
        self._is_rule = np.array(
            [type(c.coordinator) is RuleBasedCoordinator for c in controllers]
        )
        self._is_eco = np.array(
            [type(c.coordinator) is EnergyAwareCoordinator for c in controllers]
        )
        self._last_action = np.full(n, _NONE, dtype=np.int8)
        self._action_counts = np.zeros((n, len(CODE_TO_ACTION)), dtype=np.int64)
        for i, controller in enumerate(controllers):
            coordinator = controller.coordinator
            if type(coordinator) in (RuleBasedCoordinator, EnergyAwareCoordinator):
                self._last_action[i] = ACTION_CODES[coordinator.last_action]
                for action, count in coordinator.action_counts.items():
                    self._action_counts[i, ACTION_CODES[action]] = count

        # E-coord coefficients.  The fan-admission threshold replays the
        # scalar's per-call ``t_emergency_c - fan_admission_margin_c``
        # subtraction once (it is deterministic), and the marginal-power
        # terms come from the same FanPowerModel / CpuPowerModel
        # expressions the SteadyStateServerModel evaluates.
        self._eco_gate_c = np.zeros(n)
        self._eco_fan_pps = np.ones(n)
        self._eco_fan_vmax = np.ones(n)
        self._eco_neg_p_dyn = np.zeros(n)
        for i, controller in enumerate(controllers):
            coordinator = controller.coordinator
            if type(coordinator) is EnergyAwareCoordinator:
                cfg = coordinator.model.config
                self._eco_gate_c[i] = (
                    coordinator.t_emergency_c - coordinator.fan_admission_margin_c
                )
                self._eco_fan_pps[i] = cfg.fan.power_per_socket_w
                self._eco_fan_vmax[i] = cfg.fan.max_speed_rpm
                self._eco_neg_p_dyn[i] = -cfg.cpu.p_dynamic_w

        # --- adaptive set-point (A-Tref) ---
        setpoints = [c.setpoint for c in controllers]
        self._has_sp = np.array([sp is not None for sp in setpoints])
        self._sp_t_min = np.array(
            [0.0 if sp is None else sp.range_c[0] for sp in setpoints]
        )
        self._sp_t_span = np.array(
            [0.0 if sp is None else sp.range_c[1] - sp.range_c[0] for sp in setpoints]
        )
        self._sp_u_low = np.array(
            [0.0 if sp is None else sp.util_range[0] for sp in setpoints]
        )
        self._sp_u_span = np.array(
            [
                1.0
                if sp is None
                else sp.util_range[1] - sp.util_range[0]
                for sp in setpoints
            ]
        )
        windows = [
            1 if sp is None else sp.prediction_filter.window for sp in setpoints
        ]
        w_max = max(windows)
        self._sp_window = np.array(windows, dtype=np.int64)
        # A ring indexed by samples pushed: the p-th sample lands in slot
        # ``p % window``.  Slots not yet filled hold 0.0.
        self._sp_ring = np.zeros((n, w_max))
        self._sp_pushed = np.zeros(n, dtype=np.int64)
        self._sp_sum = np.zeros(n)
        for i, sp in enumerate(setpoints):
            if sp is None:
                continue
            samples = sp.prediction_filter.samples
            if samples:
                self._sp_ring[i, : len(samples)] = samples
                self._sp_pushed[i] = len(samples)
            self._sp_sum[i] = sp.prediction_filter.running_sum
        # Freshest predictor output, consumed by the SSfan landing-speed
        # computation in the same step (the scalar path re-reads
        # ``setpoint.predicted_util`` from the identical sum/count).
        self._sp_predicted = np.zeros(n)

        # --- single-step fan scaling (Section V-C) ---
        single_steps = [c.single_step for c in controllers]
        self._has_ss = np.array([ss is not None for ss in single_steps])
        self._ss_phase = np.full(n, _SS_INACTIVE, dtype=np.int8)
        self._ss_periods = np.zeros(n, dtype=np.int64)
        self._ss_boosts = np.zeros(n, dtype=np.int64)
        self._ss_threshold = np.zeros(n)
        self._ss_max_boost = np.ones(n, dtype=np.int64)
        self._ss_refractory = np.zeros(n, dtype=np.int64)
        self._ss_headroom = np.zeros(n)
        self._ss_target_c = np.zeros(n)
        self._ss_ambient_c = np.zeros(n)
        self._ss_max_speed = np.ones(n)
        self._ss_min_speed = np.zeros(n)
        self._ss_p_static = np.zeros(n)
        self._ss_p_dynamic = np.zeros(n)
        self._ss_r_die = np.zeros(n)
        self._ss_r_base = np.zeros(n)
        self._ss_r_coeff = np.ones(n)
        self._ss_inv_r_exp = np.ones(n)
        for i, ss in enumerate(single_steps):
            if ss is None:
                continue
            cfg = ss.model.config
            self._ss_phase[i] = SS_PHASE_CODES[ss.phase]
            self._ss_periods[i] = ss.periods_in_phase
            self._ss_boosts[i] = ss.boost_count
            self._ss_threshold[i] = ss.degradation_threshold
            self._ss_max_boost[i] = ss.max_boost_periods
            self._ss_refractory[i] = ss.refractory_periods
            self._ss_headroom[i] = ss.headroom_util
            # The scalar recomputes this difference on every landing; the
            # operands never change, so hoisting it preserves the bits.
            self._ss_target_c[i] = (
                cfg.control.t_critical_c - ss.landing_margin_c
            )
            self._ss_ambient_c[i] = cfg.ambient_c
            self._ss_max_speed[i] = cfg.fan.max_speed_rpm
            self._ss_min_speed[i] = cfg.fan.min_speed_rpm
            self._ss_p_static[i] = cfg.cpu.p_static_w
            self._ss_p_dynamic[i] = cfg.cpu.p_dynamic_w
            self._ss_r_die[i] = cfg.die.r_die_k_per_w
            self._ss_r_base[i] = cfg.heatsink.r_base_k_per_w
            self._ss_r_coeff[i] = cfg.heatsink.r_coeff
            self._ss_inv_r_exp[i] = 1.0 / cfg.heatsink.r_exponent

        # --- last proposals (scalar parity for sync-back) ---
        self._last_fan_prop = np.zeros(n)
        self._last_fan_none = np.ones(n, dtype=bool)
        self._last_cap_prop = np.zeros(n)
        self._last_cap_none = np.ones(n, dtype=bool)
        for i, controller in enumerate(controllers):
            fan_prop, cap_prop = controller.last_proposals
            if fan_prop is not None:
                self._last_fan_prop[i] = fan_prop
                self._last_fan_none[i] = False
            if cap_prop is not None:
                self._last_cap_prop[i] = cap_prop
                self._last_cap_none[i] = False

        # --- which rows carry each optional layer (step_due skips a
        # layer's op group when no due row needs it) ---
        self._capper_rows = _Rows(self._has_capper)
        self._sp_rows = _Rows(self._has_sp)
        # Rule-based and E-coord servers both follow an *action*: only the
        # chosen knob moves.  The uncoordinated baseline applies every
        # proposal.
        self._coord_rows = _Rows(self._is_rule | self._is_eco)
        self._eco_rows = _Rows(self._is_eco)
        self._ss_rows = _Rows(self._has_ss)
        self._next_fan_min = float(self._next_fan.min())

    @property
    def n_servers(self) -> int:
        """Batch width B."""
        return self._n

    @property
    def needs_degradation(self) -> bool:
        """Whether :meth:`step_due` needs the recent-degradation signal.

        True when any server carries the SSfan override; the caller then
        passes the tracker bank's :meth:`BatchTrackerBank.
        recent_degradation` (post-record, matching the scalar engine's
        record-then-read order).
        """
        return bool(self._has_ss.any())

    def _update_setpoints(self, idx: np.ndarray, util: np.ndarray) -> None:
        """A-Tref: moving-average predictor -> linear T_ref schedule."""
        window = self._sp_window[idx]
        pushed = self._sp_pushed[idx]
        slot = pushed % window
        # The scalar filter subtracts the evicted sample before adding the
        # new one; replay both float ops in that order.  A slot not yet
        # filled holds 0.0, and x - 0.0 == x.
        total = self._sp_sum[idx] - self._sp_ring[idx, slot] + util
        self._sp_ring[idx, slot] = util
        pushed = pushed + 1
        self._sp_pushed[idx] = pushed
        self._sp_sum[idx] = total
        predicted = total / np.minimum(pushed, window)
        self._sp_predicted[idx] = predicted
        fraction = (predicted - self._sp_u_low[idx]) / self._sp_u_span[idx]
        fraction = np.minimum(np.maximum(fraction, 0.0), 1.0)
        t_ref = self._sp_t_min[idx] + fraction * self._sp_t_span[idx]
        self.t_ref_c[idx] = t_ref
        self._pid_setpoint[idx] = t_ref

    def _fan_proposals(
        self, idx: np.ndarray, tmeas: np.ndarray
    ) -> np.ndarray:
        """One fan decision per server in ``idx`` (Eqn 4 with Eqns 8-10)."""
        applied = self._applied[idx]
        setpoint = self._pid_setpoint[idx]
        g_step = self._g_step[idx]

        # Eqn 10: inside the quantization deadband, freeze everything.
        held = (
            self._has_guard[idx]
            & (g_step != 0.0)
            & (np.abs(setpoint - tmeas) < self._g_threshold[idx])
        )
        self._hold_count[idx] += held
        proposals = applied.copy()
        if held.all():
            return proposals

        live = idx[~held]
        applied = applied[~held]
        setpoint = setpoint[~held]
        g_step = g_step[~held]
        tmeas = tmeas[~held]

        # Eqns 8-9: gains follow the *applied* operating speed.
        speeds = self._region_speeds[live]
        last = self._n_regions[live] - 1
        below = (speeds <= applied[:, None]).sum(axis=1)
        region = np.clip(below - 1, 0, last)
        changed = region != self._region_index[live]
        self._region_index[live] = region
        # Region change: re-base the offset and clear the error sum.
        offset = np.where(changed, applied, self._pid_offset[live])
        integral = np.where(changed, 0.0, self._pid_integral[live])
        self._pid_offset[live] = offset

        rows = np.arange(live.size)
        low_end = applied <= speeds[rows, 0]
        high_end = applied >= speeds[rows, last]
        i = np.where(low_end, 0, np.where(high_end, last, below - 1))
        j = np.where(low_end | high_end | (last == 0), i, i + 1)
        s_i = speeds[rows, i]
        denom = np.where(i == j, 1.0, speeds[rows, j] - s_i)
        alpha = np.where(i == j, 0.0, (applied - s_i) / denom)
        one_minus = 1.0 - alpha
        kp = one_minus * self._region_kp[live, i] + alpha * self._region_kp[live, j]
        ki = one_minus * self._region_ki[live, i] + alpha * self._region_ki[live, j]
        kd = one_minus * self._region_kd[live, i] + alpha * self._region_kd[live, j]
        self._pid_kp[live] = kp
        self._pid_ki[live] = ki
        self._pid_kd[live] = kd

        # Deadband error shaping: act only on the part of the error that
        # exceeds one LSB (guard servers only).
        error = tmeas - setpoint
        magnitude = np.abs(error) - g_step
        shaped = np.where(
            g_step == 0.0,
            error,
            np.where(
                magnitude <= 0.0, 0.0, np.where(error > 0.0, magnitude, -magnitude)
            ),
        )
        measurement = np.where(self._has_guard[live], setpoint + shaped, tmeas)

        # PID update (position form, back-calculation anti-windup).
        dt = self._pid_dt[live]
        err = measurement - setpoint
        candidate = integral + err * dt
        prev = self._pid_prev[live]
        derivative = np.where(
            self._pid_has_prev[live], (err - prev) / dt, 0.0
        )
        output = offset + kp * err + ki * candidate + kd * derivative
        high = self._v_max[live]
        low = self._v_min[live]
        saturated = (output > high) | (output < low)
        clamped = np.where(output > high, high, low)
        back_calc = (clamped - offset - kp * err - kd * derivative) / np.where(
            ki > 0.0, ki, 1.0
        )
        integral = np.where(saturated & (ki > 0.0), back_calc, candidate)
        output = np.where(saturated, clamped, output)
        self._pid_integral[live] = integral
        self._pid_prev[live] = err
        self._pid_has_prev[live] = True
        self._pid_last_out[live] = output
        self._pid_has_out[live] = True

        # Direction sanity: a measurably hot reading must never produce a
        # speed decrease (mirrors AdaptivePIDFanController.propose).
        proposal = np.where(
            err > 0.0,
            np.maximum(output, applied),
            np.where(err < 0.0, np.minimum(output, applied), output),
        )
        slew = self._slew[live]
        proposal = np.minimum(
            np.maximum(proposal, applied - slew), applied + slew
        )
        proposals[~held] = proposal
        return proposals

    def _eco_actions(
        self,
        rows: np.ndarray,
        tmeas: np.ndarray,
        ds: np.ndarray,
        du: np.ndarray,
        fan_prop: np.ndarray,
        cur_fan: np.ndarray,
    ) -> np.ndarray:
        """E-coord action codes for the servers in ``rows`` (all E-coord).

        Replays :meth:`~repro.core.ecoord.EnergyAwareCoordinator.
        coordinate` element-wise.  The candidate-list ``max`` reduces to
        masks: the gate ``emergency or fan_useful`` is just
        ``fan_useful`` (the margin is non-negative, so emergency implies
        fan-useful); in the cooling branch cap-down's efficiency is
        ``inf`` while fan-up's is finite unless its power increase is
        non-positive (then both are ``inf`` and the first-listed fan-up
        wins the tie); in the relaxing branch fan-down's saving is
        ``>= 0`` while cap-up's is ``<= 0``, so fan-down always wins when
        both are proposed (ties break to the first-listed fan-down).
        """
        fan_useful = tmeas >= self._eco_gate_c[rows]
        fanup = (ds > 0) & fan_useful
        capdown = du < 0
        take_cooling = (fanup | capdown) & fan_useful
        pps = self._eco_fan_pps[rows]
        v_max = self._eco_fan_vmax[rows]
        power_inc = (
            pps * (fan_prop / v_max) ** 3 - pps * (cur_fan / v_max) ** 3
        )
        fan_wins = fanup & (~capdown | (power_inc <= 0.0))
        cooling = np.where(fan_wins, _FAN_UP, _CAP_DOWN)
        relaxing = np.where(
            ds < 0, _FAN_DOWN, np.where(du > 0, _CAP_UP, _NONE)
        )
        return np.where(take_cooling, cooling, relaxing).astype(np.int8)

    def _ssfan_override(
        self,
        rows: np.ndarray,
        fan: np.ndarray,
        util: np.ndarray,
        demand: np.ndarray,
        degradation: np.ndarray,
    ) -> np.ndarray:
        """SSfan phase machine for the servers in ``rows`` (all SSfan).

        ``fan`` is the coordinated fan speed; the return value is the
        (possibly overridden) speed to apply.  Mirrors
        :meth:`~repro.core.single_step.SingleStepFanScaling.apply` with
        int8 phase codes and masked transitions.
        """
        phase = self._ss_phase[rows]
        thr = self._ss_threshold[rows]
        boosted = phase == _SS_BOOSTED
        refractory = phase == _SS_REFRACTORY
        inactive = phase == _SS_INACTIVE
        periods = self._ss_periods[rows] + (boosted | refractory)
        degraded = degradation > thr
        cont_boost = boosted & degraded & (periods < self._ss_max_boost[rows])
        end_boost = boosted & ~cont_boost
        refr_done = refractory & (periods >= self._ss_refractory[rows])
        refr_hold = refractory & ~refr_done
        trigger = inactive & (thr > 0.0) & degraded

        max_speed = self._ss_max_speed[rows]
        new_fan = np.where(cont_boost | trigger, max_speed, fan)

        # Landing speed ("lowest possible fan speed which enables to run
        # required CPU utilization"): the scalar closed form of
        # SteadyStateServerModel.required_fan_speed_rpm, with safe
        # denominators on the rows that take a different branch.  Only
        # rows ending a boost or holding refractory need it, and the
        # final exponentiation goes through CPython's ``**`` - NumPy's
        # SIMD pow loop can differ from libm pow by an ulp, which would
        # break bit-for-bit equality with the scalar lane.
        need = np.nonzero(end_boost | refr_hold)[0]
        if need.size:
            sub = rows[need]
            predicted = np.where(
                self._has_sp[sub], self._sp_predicted[sub], util[need]
            )
            demand_eff = np.minimum(
                np.maximum(
                    np.maximum(demand[need], predicted)
                    + self._ss_headroom[sub],
                    0.0,
                ),
                1.0,
            )
            power = (
                self._ss_p_static[sub] + self._ss_p_dynamic[sub] * demand_eff
            )
            power_pos = power > 0.0
            r_hs = (
                self._ss_target_c[sub] - self._ss_ambient_c[sub]
            ) / np.where(power_pos, power, 1.0) - self._ss_r_die[sub]
            r_var = r_hs - self._ss_r_base[sub]
            var_pos = r_var > 0.0
            base = self._ss_r_coeff[sub] / np.where(var_pos, r_var, 1.0)
            speed = np.array(
                [
                    float(b) ** float(e)
                    for b, e in zip(base, self._ss_inv_r_exp[sub])
                ]
            )
            sub_max = max_speed[need]
            sub_min = self._ss_min_speed[sub]
            landing = np.where(
                power_pos,
                np.where(
                    var_pos,
                    np.minimum(np.maximum(speed, sub_min), sub_max),
                    sub_max,
                ),
                sub_min,
            )
            new_fan[need] = landing
        transition = end_boost | refr_done | trigger
        self._ss_phase[rows] = np.where(
            end_boost,
            _SS_REFRACTORY,
            np.where(refr_done, _SS_INACTIVE, np.where(trigger, _SS_BOOSTED, phase)),
        ).astype(np.int8)
        self._ss_periods[rows] = np.where(transition, 0, periods)
        self._ss_boosts[rows] += trigger
        return new_fan

    def step_due(
        self,
        idx: np.ndarray,
        t: float,
        tmeas: np.ndarray,
        util: np.ndarray,
        demand: np.ndarray | None = None,
        degradation: np.ndarray | None = None,
    ) -> None:
        """One CPU control period for the servers in ``idx``.

        ``idx`` is any due set, the whole batch included.  ``tmeas``,
        ``util``, ``demand``, and ``degradation`` are aligned with
        ``idx``.  ``demand`` (OS demand estimate) and ``degradation``
        (post-record recent mean deficit) are required when a due server
        carries the SSfan override (see :attr:`needs_degradation`);
        without SSfan they are unused.  Updated knob settings land in
        :attr:`fan_speed_rpm` / :attr:`cpu_cap`.
        """
        ss = self._ss_rows.within(idx)
        if ss is not None and degradation is None:
            raise SimulationError(
                "SSfan servers need the degradation signal; pass "
                "demand/degradation to step_due"
            )

        # Section V-B: predictive T_ref adjustment, every CPU period.
        sp = self._sp_rows.within(idx)
        if sp is not None:
            self._update_setpoints(idx[sp], util[sp])

        # Deadzone cap proposals (no-capper rows of a mixed due set get
        # no-op coefficients and a zero sign).
        cap = self.cpu_cap[idx]
        capper = self._capper_rows.within(idx)
        if capper is None:
            du = np.zeros(idx.size, dtype=np.int8)
            self._last_cap_none[idx] = True
        else:
            step = self._cap_step[idx]
            proposed = np.where(
                tmeas > self._cap_high[idx],
                cap - step,
                np.where(tmeas < self._cap_low[idx], cap + step, cap),
            )
            cap_prop = np.minimum(
                np.maximum(proposed, self._cap_min[idx]), self._cap_max[idx]
            )
            self._last_cap_prop[idx] = cap_prop
            du = _classify(cap_prop - cap)
            if capper is _EVERY:
                self._last_cap_none[idx] = False
            else:
                self._last_cap_none[idx] = ~capper
                du *= capper

        # Fan proposals, for the due servers whose fan period is due too.
        t_plus = t + 1e-9
        cur_fan = self.fan_speed_rpm[idx]
        fan_due = None
        if self._next_fan_min <= t_plus:
            mask = self._next_fan[idx] <= t_plus
            due = idx[mask]
            if due.size:
                fan_due = mask
                fan_prop = np.zeros(idx.size)
                fan_prop[fan_due] = self._fan_proposals(due, tmeas[fan_due])
                nxt = self._next_fan[due]
                interval = self._fan_interval[due]
                while True:
                    late = nxt <= t_plus
                    if not late.any():
                        break
                    nxt = np.where(late, nxt + interval, nxt)
                self._next_fan[due] = nxt
                self._next_fan_min = float(self._next_fan.min())
        if fan_due is None:
            ds = np.zeros(idx.size, dtype=np.int8)
            self._last_fan_none[idx] = True
        else:
            ds = _classify(fan_prop - cur_fan) * fan_due
            self._last_fan_prop[idx] = fan_prop
            self._last_fan_none[idx] = ~fan_due

        # Global coordination: action-followers (Table II codes, E-coord)
        # move only the chosen knob; the uncoordinated baseline applies
        # every proposal it has.
        action = None
        coord = self._coord_rows.within(idx)
        if coord is not None:
            action = _TABLE_II[ds, du]
            eco = self._eco_rows.within(idx)
            if eco is not None:
                action[eco] = self._eco_actions(
                    idx[eco],
                    tmeas[eco],
                    ds[eco],
                    du[eco],
                    cur_fan[eco] if fan_due is None else fan_prop[eco],
                    cur_fan[eco],
                )
            # Row indices are distinct (one action per server), so the
            # buffered fancy-index add is exact and cheaper than np.add.at.
            rows = idx[coord]
            taken = action[coord]
            self._last_action[rows] = taken
            self._action_counts[rows, taken] += 1
        if capper is not None:
            take_cap = _follow(
                coord, _TAKES_CAP, action, True if capper is _EVERY else capper
            )
            self.cpu_cap[idx] = np.where(take_cap, cap_prop, cap)
        new_fan = cur_fan
        if fan_due is not None:
            take_fan = _follow(coord, _TAKES_FAN, action, fan_due)
            new_fan = np.where(take_fan, fan_prop, cur_fan)

        # Section V-C: SSfan override after coordination.
        if ss is not None:
            assert demand is not None and degradation is not None
            new_fan[ss] = self._ssfan_override(
                idx[ss], new_fan[ss], util[ss], demand[ss], degradation[ss]
            )
        if fan_due is not None or ss is not None:
            self.fan_speed_rpm[idx] = new_fan
            # notify_applied: clamp into the physical limits.
            self._applied[idx] = np.minimum(
                np.maximum(new_fan, self._v_min[idx]), self._v_max[idx]
            )

    def sync_back(self) -> None:
        """Write the final batch state into the scalar controller objects.

        After this, stepping a controller the scalar way continues the
        trajectory exactly where the vectorized run left it.
        """
        for i, controller in enumerate(self._controllers):
            fan = controller.fan_controller
            fan.restore_state(
                applied_speed_rpm=float(self._applied[i]),
                region_index=int(self._region_index[i]),
            )
            pid = fan.pid
            pid.gains = PIDGains(
                kp=float(self._pid_kp[i]),
                ki=float(self._pid_ki[i]),
                kd=float(self._pid_kd[i]),
            )
            pid.setpoint = float(self._pid_setpoint[i])
            pid.output_offset = float(self._pid_offset[i])
            pid.restore_state(
                integral=float(self._pid_integral[i]),
                prev_error=(
                    float(self._pid_prev[i]) if self._pid_has_prev[i] else None
                ),
                last_output=(
                    float(self._pid_last_out[i]) if self._pid_has_out[i] else None
                ),
            )
            guard = fan.quantization_guard
            if guard is not None:
                guard.restore_hold_count(int(self._hold_count[i]))
            coordinator = controller.coordinator
            if type(coordinator) in (RuleBasedCoordinator, EnergyAwareCoordinator):
                coordinator.restore_trace(
                    last_action=CODE_TO_ACTION[int(self._last_action[i])],
                    action_counts={
                        action: int(self._action_counts[i, code])
                        for code, action in enumerate(CODE_TO_ACTION)
                    },
                )
            single_step = controller.single_step
            if single_step is not None:
                single_step.restore_state(
                    phase=CODE_TO_SS_PHASE[int(self._ss_phase[i])],
                    periods_in_phase=int(self._ss_periods[i]),
                    boost_count=int(self._ss_boosts[i]),
                )
            setpoint = controller.setpoint
            if setpoint is not None:
                pushed = int(self._sp_pushed[i])
                window = int(self._sp_window[i])
                count = min(pushed, window)
                order = (pushed - count + np.arange(count)) % window
                setpoint.prediction_filter.restore(
                    samples=tuple(float(s) for s in self._sp_ring[i, order]),
                    total=float(self._sp_sum[i]),
                )
            controller.restore_decision_state(
                state=ControlState(
                    fan_speed_rpm=float(self.fan_speed_rpm[i]),
                    cpu_cap=float(self.cpu_cap[i]),
                ),
                t_ref_c=float(self.t_ref_c[i]),
                next_fan_decision_s=float(self._next_fan[i]),
                last_fan_proposal=(
                    None if self._last_fan_none[i] else float(self._last_fan_prop[i])
                ),
                last_cap_proposal=(
                    None if self._last_cap_none[i] else float(self._last_cap_prop[i])
                ),
            )
