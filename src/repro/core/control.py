"""The control module.

Table 1 of the paper lists a tiny "Control module" (18 slices): the
device through which the processor starts and stops the emulation and
polls global progress.  Its register map:

========== ==== =====================================================
register   mode purpose
========== ==== =====================================================
CTRL       rw   bit 0: run enable; bit 1: statistics reset (W1C)
STATUS     ro   bit 0: running; bit 1: done (all TGs exhausted, drained)
CYCLES_LO  ro   emulated cycle counter, low word
CYCLES_HI  ro   emulated cycle counter, high word
SENT       ro   packets sent by all generators
RECEIVED   ro   packets received by all receptors
========== ==== =====================================================
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.bus import Device
from repro.core.registers import RegisterBank

CTRL_RUN = 1 << 0
CTRL_STAT_RESET = 1 << 1
STATUS_RUNNING = 1 << 0
STATUS_DONE = 1 << 1


class ControlDevice(Device):
    """Global run control and progress counters."""

    kind = "control"

    def __init__(self, name: str = "control") -> None:
        super().__init__(name)
        self.running = False
        # Platform-provided probes, wired by the platform builder.
        self.get_cycles: Callable[[], int] = lambda: 0
        self.get_sent: Callable[[], int] = lambda: 0
        self.get_received: Callable[[], int] = lambda: 0
        self.is_done: Callable[[], bool] = lambda: False
        self.on_stat_reset: Optional[Callable[[], None]] = None

    def _define_registers(self, bank: RegisterBank) -> None:
        bank.define("CTRL", on_write=self._write_ctrl)
        bank.define(
            "STATUS", writable=False, on_read=self._read_status
        )
        bank.define(
            "CYCLES_LO",
            writable=False,
            on_read=lambda: self.get_cycles() & 0xFFFFFFFF,
        )
        bank.define(
            "CYCLES_HI",
            writable=False,
            on_read=lambda: self.get_cycles() >> 32,
        )
        bank.define(
            "SENT", writable=False, on_read=lambda: self.get_sent()
        )
        bank.define(
            "RECEIVED",
            writable=False,
            on_read=lambda: self.get_received(),
        )

    def _write_ctrl(self, value: int) -> None:
        self.running = bool(value & CTRL_RUN)
        if value & CTRL_STAT_RESET and self.on_stat_reset is not None:
            self.on_stat_reset()
            # W1C: clear the reset bit so reads show it self-cleared.
            self.bank["CTRL"].poke(value & ~CTRL_STAT_RESET)

    def _read_status(self) -> int:
        status = 0
        if self.running:
            status |= STATUS_RUNNING
        if self.is_done():
            status |= STATUS_DONE
        return status

    # ------------------------------------------------------------------
    # Direct (device-side) control, used by the engine
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.running = True
        self.bank["CTRL"].poke(CTRL_RUN)

    def stop(self) -> None:
        self.running = False
        self.bank["CTRL"].poke(0)

    def describe(self) -> str:
        state = "running" if self.running else "stopped"
        return f"control {self.name} [{state}]"
