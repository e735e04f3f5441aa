"""Overload control: admission policies for load past saturation.

The subsystem is one base class plus two control laws:

- :class:`~repro.overload.controller.OverloadController` — the interface
  the proxy core consults per arriving INVITE, and the 20 ms tick that
  samples CPU occupancy and receive-queue fill for the laws below;
- :class:`~repro.overload.occupancy.LocalOccupancyController` — the
  classic occupancy-triggered 503 shedder;
- :class:`~repro.overload.window.WindowController` — per-upstream
  feedback windows à la Shen & Schulzrinne.

``build_controller`` maps a :class:`~repro.proxy.config.ProxyConfig`
name to an instance (``"none"`` → ``None``: the collapse baseline, with
zero per-message overhead).
"""

from typing import Optional

from repro.overload.controller import OverloadController
from repro.overload.occupancy import LocalOccupancyController
from repro.overload.window import WindowController

CONTROLLERS = {
    "local-occupancy": LocalOccupancyController,
    "window": WindowController,
}

VALID_CONTROLLERS = ("none",) + tuple(sorted(CONTROLLERS))


def build_controller(name: str) -> Optional[OverloadController]:
    """Instantiate the named controller (``"none"`` → ``None``)."""
    if name == "none":
        return None
    try:
        cls = CONTROLLERS[name]
    except KeyError:
        raise ValueError(f"unknown overload controller {name!r}; "
                         f"expected one of {VALID_CONTROLLERS}") from None
    return cls()


__all__ = [
    "OverloadController",
    "LocalOccupancyController",
    "WindowController",
    "build_controller",
    "CONTROLLERS",
    "VALID_CONTROLLERS",
]
