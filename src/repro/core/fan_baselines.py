"""Baseline fan controllers the paper argues against (Sections I, VI-B).

Enterprise firmware conservatively ships *single threshold* or *deadzone*
schemes; Fig. 4 shows the deadzone controller oscillating under a fixed
workload once the measurement lag and quantization are present.  These
implementations exist to reproduce that failure and to benchmark the
adaptive PID against.

Backend note: racks hosting these controllers still run their
plant/sensing on the array lane, but the control
step demotes per server to these scalar objects -
``batch_controller_unsupported_reason`` only vets the stock
adaptive-PID composition.  The benchmark no-silent-fallback gates
therefore run the Table III schemes, not these baselines; see
``docs/backends.md``.
"""

from __future__ import annotations

from repro.core.base import FanController
from repro.errors import ControlError
from repro.units import check_fan_speed, check_positive, check_temperature


class StaticFanController(FanController):
    """Fixed fan speed (the most conservative baseline)."""

    def __init__(self, speed_rpm: float) -> None:
        self._speed = check_fan_speed(speed_rpm, "speed_rpm")

    def propose(self, time_s: float, tmeas_c: float) -> float:
        return self._speed


class SingleThresholdFanController(FanController):
    """Two-speed bang-bang control around one threshold.

    Runs at ``high_speed_rpm`` whenever the measured temperature is at or
    above the threshold, else at ``low_speed_rpm``.  With a lagged,
    quantized measurement this chatters between the two speeds.
    """

    def __init__(
        self,
        threshold_c: float,
        low_speed_rpm: float,
        high_speed_rpm: float,
    ) -> None:
        self._threshold_c = check_temperature(threshold_c, "threshold_c")
        self._low = check_fan_speed(low_speed_rpm, "low_speed_rpm")
        self._high = check_fan_speed(high_speed_rpm, "high_speed_rpm")
        if self._low >= self._high:
            raise ControlError(
                f"low speed ({low_speed_rpm}) must be below high ({high_speed_rpm})"
            )

    @property
    def threshold_c(self) -> float:
        """The switching threshold."""
        return self._threshold_c

    def propose(self, time_s: float, tmeas_c: float) -> float:
        return self._high if tmeas_c >= self._threshold_c else self._low


class DeadzoneFanController(FanController):
    """Incremental deadzone control (the Fig. 4 scheme).

    Raises the speed by ``step_rpm`` when the measurement exceeds
    ``t_high_c``, lowers it when below ``t_low_c``, and holds inside the
    deadzone.  The 10 s lag makes each correction arrive long after the
    temperature has already crossed the opposite bound, producing the
    sustained sawtooth of Fig. 4.
    """

    def __init__(
        self,
        t_low_c: float,
        t_high_c: float,
        step_rpm: float,
        fan_limits_rpm: tuple[float, float],
        initial_speed_rpm: float | None = None,
    ) -> None:
        self._t_low_c = check_temperature(t_low_c, "t_low_c")
        self._t_high_c = check_temperature(t_high_c, "t_high_c")
        if self._t_low_c > self._t_high_c:
            raise ControlError(
                f"t_low_c ({t_low_c}) must not exceed t_high_c ({t_high_c})"
            )
        self._step = check_positive(step_rpm, "step_rpm")
        low, high = fan_limits_rpm
        check_fan_speed(low, "fan_limits_rpm[0]")
        check_fan_speed(high, "fan_limits_rpm[1]")
        if low >= high:
            raise ControlError(f"fan limits must satisfy min < max: {fan_limits_rpm}")
        self._limits = (low, high)
        if initial_speed_rpm is None:
            initial_speed_rpm = 0.5 * (low + high)
        self._speed = min(max(initial_speed_rpm, low), high)

    @property
    def speed_rpm(self) -> float:
        """Current commanded speed."""
        return self._speed

    def notify_applied(self, fan_speed_rpm: float) -> None:
        low, high = self._limits
        self._speed = min(max(fan_speed_rpm, low), high)

    def propose(self, time_s: float, tmeas_c: float) -> float:
        low, high = self._limits
        if tmeas_c > self._t_high_c:
            self._speed = min(self._speed + self._step, high)
        elif tmeas_c < self._t_low_c:
            self._speed = max(self._speed - self._step, low)
        return self._speed
